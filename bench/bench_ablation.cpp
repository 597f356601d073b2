//===- bench_ablation.cpp - E8: precision ablations --------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// Quantifies the precision discussion in the paper's §5:
//
//  * define-use flow sensitivity vs a coarse "ever tainted" analysis: how
//    many statements survive the transformation under each, and the effect
//    on state-space size;
//  * redundant-toss deduplication (the §5/§7 "temporal independence"
//    improvement sketched as future work): toss count and branching
//    factor with and without the dedup pass;
//  * E9, §7 input-domain partitioning: exact like the naive environment at
//    a fraction of its state space.
//
// Exits 1 when one of these printed claims does not hold.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "closing/DomainPartition.h"
#include "envgen/NaiveClose.h"
#include "explorer/Search.h"

using namespace closer;

namespace {

/// A program where flow sensitivity matters: environment data flows into x
/// but is overwritten before the protocol phase, which a coarse analysis
/// cannot see.
const char *flowSensitiveWorkload() {
  return R"(
chan c[8];

proc main() {
  var x;
  var i;
  var acc = 0;
  x = env_input();
  if (x > 0)
    send(c, 'probe');
  else
    send(c, 'idle');
  x = 0;
  for (i = 0; i < 3; i = i + 1) {
    acc = acc + x + i;
    if (acc % 2 == 0)
      send(c, acc);
    else
      send(c, -acc);
  }
}

process m = main();
)";
}

/// The paper's "temporal independence" shape: one env-dependent test
/// appears in two places along a straight line; both closings insert
/// tosses, the dedup pass shares them.
const char *tossDedupWorkload() {
  return R"(
chan c[8];

proc main(x) {
  var y;
  y = x % 2;
  if (y == 0)
    send(c, 1);
  else
    send(c, 2);
  if (y == 0)
    send(c, 3);
  else
    send(c, 4);
}

process m = main(env);
)";
}

/// §7's resource manager: requests are classified into ranges only.
const char *resourceManagerWorkload() {
  return R"(
chan grants[8];

proc manager() {
  var req;
  var round;
  for (round = 0; round < 2; round = round + 1) {
    req = env_input();
    if (req < 10)
      send(grants, 'small');
    else {
      if (req < 100)
        send(grants, 'medium');
      else
        send(grants, 'large');
    }
  }
}

process m = manager();
)";
}

SearchStats explore(const Module &Mod) {
  SearchOptions Opts;
  Opts.MaxDepth = 20;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  return explore(Mod, Opts).Stats;
}

} // namespace

int main() {
  std::printf("E8: precision ablations (paper section 5)\n\n");
  bool Ok = true;
  auto Claim = [&Ok](bool Holds, const char *What) {
    if (!Holds)
      std::printf("CLAIM FAILED: %s\n\n", What);
    Ok &= Holds;
  };

  {
    std::printf("--- define-use flow sensitivity ---\n");
    auto Mod = benchCompile(flowSensitiveWorkload());
    ClosingStats Precise, Coarse;
    Module ClosedPrecise = closeModule(*Mod, {}, &Precise);
    ClosingOptions CoarseOpts;
    CoarseOpts.Taint.CoarseMode = true;
    Module ClosedCoarse = closeModule(*Mod, CoarseOpts, &Coarse);
    SearchStats SP = explore(ClosedPrecise);
    SearchStats SC = explore(ClosedCoarse);
    std::printf("%-22s %12s %12s %12s %12s\n", "mode", "eliminated",
                "tosses", "states", "paths");
    std::printf("%-22s %12zu %12zu %12llu %12llu\n", "precise (paper)",
                Precise.NodesEliminated, Precise.TossNodesInserted,
                static_cast<unsigned long long>(SP.StatesVisited),
                static_cast<unsigned long long>(SP.Runs));
    std::printf("%-22s %12zu %12zu %12llu %12llu\n", "coarse (ablation)",
                Coarse.NodesEliminated, Coarse.TossNodesInserted,
                static_cast<unsigned long long>(SC.StatesVisited),
                static_cast<unsigned long long>(SC.Runs));
    std::printf("\n");
    Claim(Precise.TossNodesInserted < Coarse.TossNodesInserted &&
              SP.StatesVisited < SC.StatesVisited,
          "the define-use analysis inserts fewer tosses and explores fewer "
          "states than the coarse one");
  }

  {
    std::printf("--- redundant-toss deduplication ---\n");
    auto Mod = benchCompile(tossDedupWorkload());
    ClosingStats Plain, Dedup;
    Module ClosedPlain = closeModule(*Mod, {}, &Plain);
    ClosingOptions DedupOpts;
    DedupOpts.DedupTosses = true;
    Module ClosedDedup = closeModule(*Mod, DedupOpts, &Dedup);
    SearchStats SPlain = explore(ClosedPlain);
    SearchStats SDedup = explore(ClosedDedup);
    std::printf("%-22s %12s %12s %12s\n", "mode", "toss-nodes", "states",
                "paths");
    std::printf("%-22s %12zu %12llu %12llu\n", "per-arc (paper)",
                Plain.TossNodesInserted,
                static_cast<unsigned long long>(SPlain.StatesVisited),
                static_cast<unsigned long long>(SPlain.Runs));
    std::printf("%-22s %12zu %12llu %12llu\n", "deduplicated (7)",
                Dedup.TossNodesInserted,
                static_cast<unsigned long long>(SDedup.StatesVisited),
                static_cast<unsigned long long>(SDedup.Runs));
    std::printf("\nNote: sharing toss *nodes* does not merge the choices "
                "made at different visits;\nthe paths count is unchanged — "
                "the structural saving is in the graph, matching the\n"
                "paper's remark that eliminating semantically redundant "
                "tosses needs a deeper analysis.\n\n");
    Claim(Dedup.TossNodesInserted < Plain.TossNodesInserted &&
              SDedup.Runs == SPlain.Runs,
          "deduplication shares toss nodes and leaves the path count alone");
  }

  {
    std::printf("--- E9: input-domain partitioning (section 7 future "
                "work) ---\n");
    std::printf("workload: resource manager classifying requests into "
                "{<10, <100, >=100}\n");
    auto Mod = benchCompile(resourceManagerWorkload());

    // Naive explicit environment over a domain spanning both thresholds.
    Module Naive = naiveCloseModule(*Mod, {127});
    SearchStats SNaive = explore(Naive);

    // Standard Figure 1 closing: interface eliminated, branches tossed.
    Module Closed = closeModule(*Mod);
    SearchStats SClosed = explore(Closed);

    // Partitioned closing: interface simplified to 6 representatives,
    // classification logic preserved.
    PartitionStats PStats;
    Module Partitioned = partitionInputs(*Mod, {}, &PStats);
    SearchStats SPart = explore(Partitioned);

    std::printf("%-26s %12s %12s %10s\n", "mode", "states", "paths",
                "exact?");
    std::printf("%-26s %12llu %12llu %10s\n", "naive env (D=128)",
                static_cast<unsigned long long>(SNaive.StatesVisited),
                static_cast<unsigned long long>(SNaive.Runs), "yes");
    std::printf("%-26s %12llu %12llu %10s\n", "eliminated (Figure 1)",
                static_cast<unsigned long long>(SClosed.StatesVisited),
                static_cast<unsigned long long>(SClosed.Runs),
                "over-approx");
    std::printf("%-26s %12llu %12llu %10s\n", "partitioned (section 7)",
                static_cast<unsigned long long>(SPart.StatesVisited),
                static_cast<unsigned long long>(SPart.Runs), "yes");
    std::printf("\npartitioned %zu input(s) into %zu representatives: "
                "exact like the naive closing,\nnearly as small as the "
                "eliminated one — the trade-off section 7 anticipates.\n\n",
                PStats.InputsPartitioned, PStats.RepresentativesTotal);
    Claim(PStats.InputsPartitioned > 0 &&
              SPart.StatesVisited < SNaive.StatesVisited,
          "partitioning applies and explores fewer states than the naive "
          "environment");
  }
  return Ok ? 0 : 1;
}
