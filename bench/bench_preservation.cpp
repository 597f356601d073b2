//===- bench_preservation.cpp - E5: error preservation under closing --------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// Theorem 7 in the large: across a corpus of randomized open programs,
// every deadlock and preserved-assertion violation detectable in S x E_S
// (naive closing over a small domain) is also detectable in the transformed
// program — while the transformed search is far cheaper. Reports aggregate
// detection counts and the cost ratio; exits 1 when a deadlock or a
// preserved-assertion violation is lost.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "envgen/NaiveClose.h"
#include "explorer/Search.h"
#include "../tests/RandomProgram.h"

using namespace closer;

namespace {

struct CorpusResult {
  unsigned Programs = 0;
  unsigned NaiveDeadlocky = 0;
  unsigned ClosedCaughtDeadlock = 0;
  unsigned NaiveViolating = 0;
  unsigned ClosedCaughtViolation = 0;
  /// Violating programs whose every assertion survived the transformation
  /// with its real argument (Theorem 7's precondition).
  unsigned NaiveViolatingPreserved = 0;
  unsigned ClosedCaughtViolationPreserved = 0;
  uint64_t NaiveStates = 0;
  uint64_t ClosedStates = 0;
};

/// True when every VS_assert in \p Mod kept its real (non-unknown) payload.
bool allAssertionsPreserved(const Module &Mod) {
  for (const ProcCfg &Proc : Mod.Procs)
    for (const CfgNode &Node : Proc.Nodes)
      if (Node.Kind == CfgNodeKind::Call &&
          Node.Builtin == BuiltinKind::VsAssert &&
          Node.Args[0]->Kind == ExprKind::Unknown)
        return false;
  return true;
}

SearchStats explore(const Module &Mod, uint64_t MaxRuns) {
  SearchOptions Opts;
  Opts.MaxDepth = 10;
  Opts.MaxRuns = MaxRuns;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  return explore(Mod, Opts).Stats;
}

CorpusResult runCorpus(unsigned Seeds, int64_t Domain) {
  CorpusResult Out;
  for (uint64_t Seed = 1; Seed <= Seeds; ++Seed) {
    std::string Src = randomOpenProgram(Seed);
    DiagnosticEngine Diags;
    auto Open = compileAndVerify(Src, Diags);
    if (!Open)
      continue;
    ++Out.Programs;

    Module Naive = naiveCloseModule(*Open, {Domain - 1});
    SearchStats NaiveStats = explore(Naive, 30000);
    Out.NaiveStates += NaiveStats.StatesVisited;

    CloseResult R = closeSource(Src);
    if (!R.ok())
      continue;
    SearchStats ClosedStats = explore(*R.Closed, 60000);
    Out.ClosedStates += ClosedStats.StatesVisited;

    if (NaiveStats.Deadlocks) {
      ++Out.NaiveDeadlocky;
      if (ClosedStats.Deadlocks)
        ++Out.ClosedCaughtDeadlock;
    }
    if (NaiveStats.AssertionViolations) {
      ++Out.NaiveViolating;
      if (ClosedStats.AssertionViolations)
        ++Out.ClosedCaughtViolation;
      if (allAssertionsPreserved(*R.Closed)) {
        ++Out.NaiveViolatingPreserved;
        if (ClosedStats.AssertionViolations)
          ++Out.ClosedCaughtViolationPreserved;
      }
    }
  }
  return Out;
}

} // namespace

int main() {
  std::printf("E5: deadlock / assertion preservation across a random "
              "corpus (Theorem 7)\n\n");
  CorpusResult R = runCorpus(48, 3);
  std::printf("programs analyzed:                 %u\n", R.Programs);
  std::printf("open systems with deadlocks:       %u\n", R.NaiveDeadlocky);
  std::printf("  ... also found after closing:    %u\n",
              R.ClosedCaughtDeadlock);
  std::printf("open systems with violations:      %u\n", R.NaiveViolating);
  std::printf("  ... also found after closing:    %u\n",
              R.ClosedCaughtViolation);
  std::printf("  violating, all asserts preserved:%u\n",
              R.NaiveViolatingPreserved);
  std::printf("  ... also found after closing:    %u  (Theorem 7 requires "
              "equality on this pair)\n",
              R.ClosedCaughtViolationPreserved);
  std::printf("aggregate explored states, naive:  %llu\n",
              static_cast<unsigned long long>(R.NaiveStates));
  std::printf("aggregate explored states, closed: %llu\n",
              static_cast<unsigned long long>(R.ClosedStates));
  bool Holds = R.ClosedCaughtDeadlock == R.NaiveDeadlocky &&
               R.ClosedCaughtViolationPreserved == R.NaiveViolatingPreserved;
  std::printf("Theorem 7 on the corpus: %s\n\n",
              Holds ? "holds" : "VIOLATED (a deadlock or a preserved-"
                                "assertion violation was lost)");
  return Holds ? 0 : 1;
}
