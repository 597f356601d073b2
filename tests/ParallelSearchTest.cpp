//===- ParallelSearchTest.cpp - Parallel vs sequential search equivalence --===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The parallel explorer partitions the search tree into disjoint subtrees,
// so every tree-shaped statistic and the error-report set must be identical
// to the sequential explorer's, for any worker count and any scheduling.
//
//===----------------------------------------------------------------------===//

#include "explorer/ParallelSearch.h"

#include "RandomProgram.h"
#include "TestUtil.h"
#include "closing/Pipeline.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>

using namespace closer;

namespace {

#ifndef CLOSER_SOURCE_DIR
#define CLOSER_SOURCE_DIR "."
#endif

std::string readExample(const std::string &Name) {
  std::string Path = std::string(CLOSER_SOURCE_DIR) + "/examples/minic/" + Name;
  std::ifstream In(Path);
  EXPECT_TRUE(In.good()) << "cannot open " << Path;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// The statistics that describe the search tree itself (as opposed to the
/// replay effort, which legitimately differs between the sequential and
/// the parallel traversal).
std::string treeShape(const SearchStats &S) {
  std::string Out;
  Out += "states=" + std::to_string(S.StatesVisited);
  Out += " tree-transitions=" + std::to_string(S.TreeTransitions);
  Out += " deadlocks=" + std::to_string(S.Deadlocks);
  Out += " terminations=" + std::to_string(S.Terminations);
  Out += " assertion-violations=" + std::to_string(S.AssertionViolations);
  Out += " divergences=" + std::to_string(S.Divergences);
  Out += " runtime-errors=" + std::to_string(S.RuntimeErrors);
  Out += " depth-limit-hits=" + std::to_string(S.DepthLimitHits);
  Out += " sleep-prunes=" + std::to_string(S.SleepSetPrunes);
  Out += " covered=" + std::to_string(S.VisibleOpsCovered);
  Out += S.Completed ? " complete" : " stopped";
  return Out;
}

/// Order-independent fingerprint of the reported errors: kind plus the
/// replayable choice sequence identifies a report uniquely.
std::vector<std::string> errorSet(const std::vector<ErrorReport> &Reports) {
  std::vector<std::string> Out;
  for (const ErrorReport &R : Reports)
    Out.push_back(std::to_string(static_cast<int>(R.Kind)) + ":" +
                  replayToString(R.Choices));
  std::sort(Out.begin(), Out.end());
  return Out;
}

void expectParallelMatchesSequential(const Module &Mod, SearchOptions Opts,
                                     const std::string &Label) {
  Opts.MaxReports = 4096; // Compare full error sets, not truncations.

  SearchOptions Seq = Opts;
  Seq.Jobs = 1;
  Explorer Sequential(Mod, Seq);
  SearchStats SeqStats = Sequential.run();

  SearchResult Parallel = explore(Mod, Opts);

  EXPECT_EQ(treeShape(SeqStats), treeShape(Parallel.Stats)) << Label;
  EXPECT_EQ(errorSet(Sequential.reports()), errorSet(Parallel.Reports))
      << Label;
}

TEST(ParallelSearchTest, MatchesSequentialOnExamplePrograms) {
  for (const char *Name :
       {"figure2.mc", "lock_order_bug.mc", "bounded_buffer.mc",
        "resource_manager.mc"}) {
    std::string Source = readExample(Name);
    auto Mod = mustCompile(Source);
    ASSERT_TRUE(Mod) << Name;
    SearchOptions Opts;
    Opts.MaxDepth = 12;
    Opts.Jobs = 4;
    expectParallelMatchesSequential(*Mod, Opts, Name);
  }
}

TEST(ParallelSearchTest, MatchesSequentialWithoutReduction) {
  std::string Source = readExample("lock_order_bug.mc");
  auto Mod = mustCompile(Source);
  ASSERT_TRUE(Mod);
  SearchOptions Opts;
  Opts.MaxDepth = 12;
  Opts.Jobs = 4;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  expectParallelMatchesSequential(*Mod, Opts, "lock_order_bug.mc --no-por");
}

TEST(ParallelSearchTest, MatchesSequentialOnRandomPrograms) {
  for (uint64_t Seed : {7u, 21u, 1003u, 1017u}) {
    auto Mod = mustCompile(randomOpenProgram(Seed));
    ASSERT_TRUE(Mod) << "seed " << Seed;
    SearchOptions Opts;
    Opts.MaxDepth = 10;
    Opts.Jobs = 4;
    expectParallelMatchesSequential(*Mod, Opts,
                                    "seed " + std::to_string(Seed));
  }
}

TEST(ParallelSearchTest, ShallowSplitForcesWorkDonation) {
  // A split depth of 1 seeds far fewer items than workers, so progress
  // beyond the first items depends on the donation path re-splitting
  // subtrees onto the deque.
  auto Mod = mustCompile(randomOpenProgram(1003));
  ASSERT_TRUE(Mod);
  SearchOptions Opts;
  Opts.MaxDepth = 10;
  Opts.Jobs = 4;
  Opts.SplitDepth = 1;
  expectParallelMatchesSequential(*Mod, Opts, "split-depth 1");
}

TEST(ParallelSearchTest, SharedStateBudgetStopsAllWorkers) {
  auto Mod = mustCompile(randomOpenProgram(1003));
  ASSERT_TRUE(Mod);
  SearchOptions Opts;
  Opts.MaxDepth = 12;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  Opts.Jobs = 4;
  Opts.MaxStates = 50;

  SearchResult R = explore(*Mod, Opts);
  const SearchStats &Stats = R.Stats;
  EXPECT_FALSE(Stats.Completed);
  // The budget is a global atomic; each worker can overshoot by at most
  // the one state it counts between two stop-flag checks.
  EXPECT_GE(Stats.StatesVisited, 50u);
  EXPECT_LE(Stats.StatesVisited, 50u + Opts.Jobs);
}

TEST(ParallelSearchTest, SharedRunBudgetStopsAllWorkers) {
  auto Mod = mustCompile(randomOpenProgram(1003));
  ASSERT_TRUE(Mod);
  SearchOptions Opts;
  Opts.MaxDepth = 12;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  Opts.Jobs = 4;
  Opts.MaxRuns = 50;

  SearchResult R = explore(*Mod, Opts);
  EXPECT_FALSE(R.Stats.Completed);
  // Like MaxStates: each worker counts its path in the shared budget
  // before checking it, so the overshoot is at most one run per worker.
  EXPECT_GE(R.Stats.Runs, 50u);
  EXPECT_LE(R.Stats.Runs, 50u + Opts.Jobs);
}

TEST(ParallelSearchTest, ProgressMonitorReadsWorkerCounters) {
  // The monitor thread sums every worker's counter block while the workers
  // write them; under the Tsan build this pins that those reads are
  // race-free. The grid's 160k states overflow the 2^12-slot cache, which
  // then stops pruning, so the time budget is what ends the run.
  auto Mod = mustCompile(semGridSource(400));
  ASSERT_TRUE(Mod);
  SearchOptions Opts;
  Opts.MaxDepth = 100000;
  Opts.UsePersistentSets = false;
  Opts.StateCacheBits = 12;
  Opts.Jobs = 4;
  Opts.ProgressIntervalSeconds = 0.01;
  Opts.TimeBudgetSeconds = 0.2;

  SearchResult R = explore(*Mod, Opts);
  EXPECT_TRUE(R.Stats.Interrupted);
  EXPECT_GT(R.Stats.StatesVisited, 0u);
  EXPECT_GT(R.Stats.CacheInserts, 0u);
}

TEST(ParallelSearchTest, StopOnFirstErrorStopsParallelRun) {
  std::string Source = readExample("lock_order_bug.mc");
  auto Mod = mustCompile(Source);
  ASSERT_TRUE(Mod);
  SearchOptions Opts;
  Opts.MaxDepth = 16;
  Opts.Jobs = 4;
  Opts.StopOnFirstError = true;

  SearchResult R = explore(*Mod, Opts);
  EXPECT_GE(R.Stats.Deadlocks, 1u);
  EXPECT_GE(R.Reports.size(), 1u);
  EXPECT_FALSE(R.Stats.Completed);
}

TEST(ParallelSearchTest, NegativeTossBranchBoundIsReportedNotEnumerated) {
  // A malformed closed program: corrupt a TossBranch bound to a negative
  // value. Decision::optionCount() used to cast it straight to size_t,
  // wrapping into ~2^64 siblings; now the runtime reports it.
  CloseResult R = closeSource(figure2Source());
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  Module &Mod = *R.Closed;
  bool Corrupted = false;
  for (ProcCfg &Proc : Mod.Procs) {
    for (CfgNode &Node : Proc.Nodes) {
      if (Node.Kind == CfgNodeKind::TossBranch) {
        Node.TossBound = -2;
        Corrupted = true;
        break;
      }
    }
    if (Corrupted)
      break;
  }
  ASSERT_TRUE(Corrupted) << "closed figure2 should contain a toss branch";

  SearchOptions Opts;
  Opts.MaxDepth = 30;
  Explorer Ex(Mod, Opts);
  SearchStats Stats = Ex.run();
  EXPECT_GE(Stats.RuntimeErrors, 1u);
  bool SawBadBound = false;
  for (const ErrorReport &Rep : Ex.reports())
    if (Rep.Kind == ErrorReport::Type::RuntimeError &&
        Rep.Error.Kind == RunErrorKind::BadTossBound)
      SawBadBound = true;
  EXPECT_TRUE(SawBadBound);

  // And the parallel explorer agrees.
  SearchOptions Par = Opts;
  Par.Jobs = 2;
  expectParallelMatchesSequential(Mod, Par, "corrupted toss bound");
}

TEST(ParallelSearchTest, NegativeEnvDomainIsReportedNotEnumerated) {
  auto Mod = mustCompile(figure2Source()); // Open: env process argument.
  ASSERT_TRUE(Mod);
  SearchOptions Opts;
  Opts.MaxDepth = 20;
  Opts.Runtime.EnvDomainBound = -3;
  Explorer Ex(*Mod, Opts);
  SearchStats Stats = Ex.run();
  EXPECT_TRUE(Stats.Completed);
  EXPECT_GE(Stats.RuntimeErrors, 1u);
  // The bogus domain must not multiply the search: one run, one report.
  EXPECT_EQ(Stats.Runs, 1u);
}

TEST(ParallelSearchTest, DroppedReportsAreCounted) {
  // Four toss outcomes, each violating the assertion: 4 reports offered.
  auto Mod = mustCompile(R"(
chan c[4];

proc main() {
  var x;
  x = VS_toss(3);
  VS_assert(x > 90);
  send(c, x);
}

process m = main();
)");
  ASSERT_TRUE(Mod);
  SearchOptions Opts;
  Opts.MaxReports = 2;
  Explorer Ex(*Mod, Opts);
  SearchStats Stats = Ex.run();
  EXPECT_EQ(Stats.AssertionViolations, 4u);
  EXPECT_EQ(Ex.reports().size(), 2u);
  EXPECT_EQ(Stats.ReportsDropped, 2u);
  EXPECT_NE(Stats.str().find("reports-dropped=2"), std::string::npos);
}

} // namespace
