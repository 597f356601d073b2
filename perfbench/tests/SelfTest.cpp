//===- SelfTest.cpp - Self-tests of the benchmark --------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The benchmark's own tests: its summaries state their sample count, and
// each reference check accepts a right answer and rejects a deliberately
// wrong one. (That every printed metric is in BENCHMARK.json is
// test_metric_names.py.)
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "Checks.h"
#include "Stats.h"

#include "cfg/CfgPrinter.h"
#include "closing/Pipeline.h"

#include <gtest/gtest.h>

using namespace closer;
using namespace perfbench;

namespace {

std::unique_ptr<Module> mustCompile(const std::string &Source) {
  CompileResult R = compile(Source);
  EXPECT_TRUE(R.ok()) << R.Diags.str();
  return std::move(R.M);
}

std::vector<double> iota(size_t N) {
  std::vector<double> V;
  for (size_t I = 0; I != N; ++I)
    V.push_back(static_cast<double>(N - I)); // Unsorted on purpose.
  return V;
}

TEST(SummaryTest, StatesSampleCountAndMedian) {
  Summary S = summarize({3, 1, 2});
  EXPECT_EQ(S.N, 3u);
  EXPECT_DOUBLE_EQ(S.Median, 2);
  EXPECT_DOUBLE_EQ(S.Min, 1);
  EXPECT_DOUBLE_EQ(S.Max, 3);
  EXPECT_DOUBLE_EQ(summarize({4, 1, 3, 2}).Median, 2.5);
  Summary Q = summarize({5, 1, 4, 2, 3});
  EXPECT_DOUBLE_EQ(Q.Q1, 2);
  EXPECT_DOUBLE_EQ(Q.Q3, 4);
  EXPECT_EQ(summarize({}).N, 0u);
}

TEST(SummaryTest, HighPercentileNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(summarize(iota(19)).HighPct, 0); // Not even p50 has ten above.
  EXPECT_EQ(summarize(iota(20)).HighPct, 50);
  EXPECT_EQ(summarize(iota(40)).HighPct, 75);
  EXPECT_EQ(summarize(iota(99)).HighPct, 75);
  EXPECT_EQ(summarize(iota(100)).HighPct, 90);
  EXPECT_EQ(summarize(iota(1000)).HighPct, 99);
  Summary S = summarize(iota(101)); // 1..101: p90 = 91.
  EXPECT_EQ(S.N, 101u);
  EXPECT_DOUBLE_EQ(S.High, 91);
}

TEST(GridCheckTest, AcceptsTheClosedFormAndRejectsOffByOne) {
  const int Iters = 6;
  EXPECT_EQ(gridStateCount(512), 1050625u);
  auto Grid = mustCompile(semGridProgram(Iters));
  SearchOptions Opts;
  Opts.MaxDepth = 1 << 20;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  Opts.StateCacheBits = 12;
  SearchResult R = explore(*Grid, Opts);
  EXPECT_EQ(checkGridRun(R, Iters), "");

  SearchResult Wrong = R;
  ++Wrong.Stats.CacheInserts;
  EXPECT_NE(checkGridRun(Wrong, Iters), "");
  Wrong.Stats.CacheInserts -= 2;
  EXPECT_NE(checkGridRun(Wrong, Iters), "");
  EXPECT_NE(checkGridRun(R, Iters + 1), "");

  Wrong = R;
  Wrong.Stats.CacheSaturated = 1;
  EXPECT_NE(checkGridRun(Wrong, Iters), "");
  Wrong = R;
  Wrong.Stats.Completed = false;
  EXPECT_NE(checkGridRun(Wrong, Iters), "");
}

TEST(ClosedSourceCheckTest, RejectsEnvironmentCalls) {
  EXPECT_TRUE(containsEnvToken("x = env_input();"));
  EXPECT_TRUE(containsEnvToken("env_output(x);"));
  EXPECT_FALSE(containsEnvToken("x = env_inputs + my_env_output;"));

  const std::string Open = "chan c[2];\n"
                           "proc p() {\n  var x;\n  x = env_input();\n"
                           "  send(c, x);\n}\n"
                           "process m = p();\n";
  EXPECT_NE(checkClosedSource(Open), "");
  CompileResult R = compile(Open);
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  EXPECT_EQ(checkClosedSource(emitModuleSource(*R.M)), "");
  EXPECT_NE(checkClosedSource("proc p( {"), "");
}

TEST(DeadlockCheckTest, RejectsAReplayThatDoesNotDeadlock) {
  auto Mod = mustCompile("sem a(1);\nsem b(1);\n"
                         "proc f() { sem_wait(a); sem_wait(b); "
                         "sem_signal(b); sem_signal(a); }\n"
                         "proc g() { sem_wait(b); sem_wait(a); "
                         "sem_signal(a); sem_signal(b); }\n"
                         "process pf = f();\nprocess pg = g();\n");
  SearchOptions Opts;
  Opts.StopOnFirstError = true;
  SearchResult R = explore(*Mod, Opts);
  ASSERT_FALSE(R.Reports.empty());
  EXPECT_EQ(checkDeadlockReport(*Mod, R), "");

  SearchResult Wrong = R;
  Wrong.Reports.front().Choices.pop_back(); // Stops one step short.
  EXPECT_NE(checkDeadlockReport(*Mod, Wrong), "");
  Wrong.Reports.front().Choices.clear();
  EXPECT_NE(checkDeadlockReport(*Mod, Wrong), "");
  Wrong = R;
  Wrong.Reports.front().Kind = ErrorReport::Type::AssertionViolation;
  EXPECT_NE(checkDeadlockReport(*Mod, Wrong), "");
  Wrong.Reports.clear();
  EXPECT_NE(checkDeadlockReport(*Mod, Wrong), "");
}

} // namespace
