//===- EnvGenTest.cpp - Tests for the naive-environment baseline -----------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "envgen/NaiveClose.h"

#include "cfg/CfgVerifier.h"
#include "closing/Pipeline.h"
#include "explorer/Search.h"
#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace closer;

namespace {

TEST(EnvGenTest, RewritesEnvInputsToTosses) {
  auto Mod = mustCompile(R"(
chan c[4];

proc main() {
  var x;
  x = env_input();
  send(c, x);
  env_output(x);
}

process m = main();
)");
  NaiveCloseStats Stats;
  Module Naive = naiveCloseModule(*Mod, {3}, &Stats);
  EXPECT_EQ(Stats.EnvInputsRewritten, 1u);
  EXPECT_EQ(Stats.EnvOutputsRewritten, 1u);

  DiagnosticEngine Diags;
  EXPECT_TRUE(verifyModule(Naive, Diags)) << Diags.str();

  // No env interface remains.
  for (const ProcCfg &Proc : Naive.Procs)
    for (const CfgNode &Node : Proc.Nodes)
      if (Node.Kind == CfgNodeKind::Call) {
        EXPECT_TRUE(Node.Builtin != BuiltinKind::EnvInput &&
                    Node.Builtin != BuiltinKind::EnvOutput);
      }
}

TEST(EnvGenTest, WrapsEnvProcessArguments) {
  auto Mod = mustCompile(figure2Source());
  NaiveCloseStats Stats;
  Module Naive = naiveCloseModule(*Mod, {7}, &Stats);
  EXPECT_EQ(Stats.WrappersSynthesized, 1u);

  DiagnosticEngine Diags;
  ASSERT_TRUE(verifyModule(Naive, Diags)) << Diags.str();
  ASSERT_EQ(Naive.Processes.size(), 1u);
  EXPECT_TRUE(Naive.Processes[0].Args.empty());
  EXPECT_NE(Naive.findProc(Naive.Processes[0].ProcName), nullptr);

  EnvAnalysis Analysis(Naive);
  EXPECT_TRUE(Analysis.moduleIsClosed())
      << "naive closing must produce a closed module";
}

TEST(EnvGenTest, NaiveStateSpaceGrowsWithDomain) {
  auto Mod = mustCompile(R"(
chan c[4];

proc main() {
  var x;
  x = env_input();
  if (x > 0)
    send(c, 1);
  else
    send(c, 0);
}

process m = main();
)");
  auto CountRuns = [&](int64_t Domain) {
    Module Naive = naiveCloseModule(*Mod, {Domain});
    SearchOptions Opts;
    Opts.UsePersistentSets = false;
    Opts.UseSleepSets = false;
    return explore(Naive, Opts).Stats.Runs;
  };
  EXPECT_EQ(CountRuns(1), 2u);
  EXPECT_EQ(CountRuns(7), 8u);
  EXPECT_EQ(CountRuns(31), 32u);

  // The paper's transformation is domain-independent: one toss, two runs.
  CloseResult R = closeSource(R"(
chan c[4];

proc main() {
  var x;
  x = env_input();
  if (x > 0)
    send(c, 1);
  else
    send(c, 0);
}

process m = main();
)");
  ASSERT_TRUE(R.ok()) << R.Diags.str();
  SearchOptions Opts;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  EXPECT_EQ(explore(*R.Closed, Opts).Stats.Runs, 2u);
}

TEST(EnvGenTest, NaiveAndTransformedAgreeOnVisibleBehaviors) {
  // For the Figure 3 program (optimal translation), the set of visible
  // traces of the naive closing over domain [0,15] must be a subset of the
  // transformed program's traces (payload-insensitive comparison), and
  // both must reach the same branch alternatives.
  auto Mod = mustCompile(figure3Source());
  Module Naive = naiveCloseModule(*Mod, {15});

  SearchOptions Opts;
  Opts.MaxDepth = 30;
  std::vector<Trace> NaiveTraces = collectTraces(Naive, Opts, 256);
  ASSERT_FALSE(NaiveTraces.empty());

  CloseResult R = closeSource(figure3Source());
  ASSERT_TRUE(R.ok());
  std::vector<Trace> ClosedTraces = collectTraces(*R.Closed, Opts, 4096);
  ASSERT_FALSE(ClosedTraces.empty());

  for (const Trace &NT : NaiveTraces) {
    bool Covered = false;
    for (const Trace &CT : ClosedTraces)
      if (traceSubsumes(CT, NT)) {
        Covered = true;
        break;
      }
    EXPECT_TRUE(Covered) << "naive trace not covered:\n" << traceToString(NT);
  }
}

} // namespace
