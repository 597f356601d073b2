//===- RuntimeTest.cpp - Tests for the concurrent-system runtime ----------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "runtime/System.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

using namespace closer;

namespace {

/// Runs a single-path execution (always choosing 0) until no transition is
/// enabled; returns the final classification.
GlobalStateKind runToEnd(System &Sys, ExecResult *Last = nullptr) {
  ZeroChoiceProvider Zero;
  Sys.reset(Zero);
  for (;;) {
    std::vector<int> Enabled = Sys.enabledProcesses();
    if (Enabled.empty())
      return Sys.classify();
    ExecResult R = Sys.executeTransition(Enabled.front(), Zero);
    if (Last)
      *Last = R;
    if (!R.ok())
      return Sys.classify();
  }
}

TEST(RuntimeTest, StraightLineSendsAndTerminates) {
  auto Mod = mustCompile(R"(
chan c[4];

proc main() {
  var i;
  for (i = 1; i <= 3; i = i + 1)
    send(c, i * 10);
}

process m = main();
)");
  System Sys(*Mod);
  EXPECT_EQ(runToEnd(Sys), GlobalStateKind::Termination);
  ASSERT_EQ(Sys.trace().size(), 3u);
  EXPECT_EQ(Sys.trace()[0].Payload, Value::makeInt(10));
  EXPECT_EQ(Sys.trace()[1].Payload, Value::makeInt(20));
  EXPECT_EQ(Sys.trace()[2].Payload, Value::makeInt(30));
}

TEST(RuntimeTest, FifoChannelOrderAcrossProcesses) {
  auto Mod = mustCompile(R"(
chan c[2];
chan out[8];

proc producer() {
  send(c, 1);
  send(c, 2);
}

proc consumer() {
  var a;
  var b;
  a = recv(c);
  b = recv(c);
  send(out, a * 10 + b);
}

process p = producer();
process q = consumer();
)");
  System Sys(*Mod);
  EXPECT_EQ(runToEnd(Sys), GlobalStateKind::Termination);
  // FIFO: consumer computes 1*10 + 2 = 12.
  const Trace &T = Sys.trace();
  ASSERT_FALSE(T.empty());
  EXPECT_EQ(T.back().Object, "out");
  EXPECT_EQ(T.back().Payload, Value::makeInt(12));
}

TEST(RuntimeTest, SemaphoreDeadlockDetected) {
  auto Mod = mustCompile(R"(
sem a(1);
sem b(1);
chan done[2];

proc left() {
  sem_wait(a);
  sem_wait(b);
  send(done, 1);
  sem_signal(b);
  sem_signal(a);
}

proc right() {
  sem_wait(b);
  sem_wait(a);
  send(done, 2);
  sem_signal(a);
  sem_signal(b);
}

process l = left();
process r = right();
)");
  System Sys(*Mod);
  ZeroChoiceProvider Zero;
  Sys.reset(Zero);
  // Force the deadlocking interleaving: left takes a, right takes b.
  ASSERT_TRUE(Sys.processEnabled(0));
  Sys.executeTransition(0, Zero); // left: sem_wait(a)
  ASSERT_TRUE(Sys.processEnabled(1));
  Sys.executeTransition(1, Zero); // right: sem_wait(b)
  EXPECT_TRUE(Sys.enabledProcesses().empty());
  EXPECT_EQ(Sys.classify(), GlobalStateKind::Deadlock);
}

TEST(RuntimeTest, SharedVariableReadWrite) {
  auto Mod = mustCompile(R"(
shared sv = 5;
chan out[2];

proc main() {
  var v;
  v = read(sv);
  write(sv, v + 1);
  v = read(sv);
  send(out, v);
}

process m = main();
)");
  System Sys(*Mod);
  EXPECT_EQ(runToEnd(Sys), GlobalStateKind::Termination);
  EXPECT_EQ(Sys.trace().back().Payload, Value::makeInt(6));
}

TEST(RuntimeTest, AssertionViolationReported) {
  auto Mod = mustCompile(R"(
proc main() {
  var x = 3;
  VS_assert(x == 4);
}

process m = main();
)");
  System Sys(*Mod);
  ExecResult Last;
  ZeroChoiceProvider Zero;
  Sys.reset(Zero);
  ASSERT_TRUE(Sys.processEnabled(0));
  ExecResult R = Sys.executeTransition(0, Zero);
  ASSERT_EQ(R.Violations.size(), 1u);
  EXPECT_EQ(R.Violations[0].Process, 0);
}

TEST(RuntimeTest, AssertUnknownPasses) {
  auto Mod = mustCompile(R"(
proc main() {
  VS_assert(unknown);
}

process m = main();
)");
  System Sys(*Mod);
  ZeroChoiceProvider Zero;
  Sys.reset(Zero);
  ASSERT_TRUE(Sys.processEnabled(0));
  ExecResult R = Sys.executeTransition(0, Zero);
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.Violations.empty());
}

TEST(RuntimeTest, BranchOnUnknownIsARuntimeError) {
  auto Mod = mustCompile(R"(
chan c[2];

proc main() {
  var x = unknown;
  if (x > 0)
    send(c, 1);
}

process m = main();
)");
  System Sys(*Mod);
  ZeroChoiceProvider Zero;
  ExecResult R = Sys.reset(Zero);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error.Kind, RunErrorKind::UnknownInControl);
}

TEST(RuntimeTest, ProcedureCallsAndReturnValues) {
  auto Mod = mustCompile(R"(
chan out[2];

proc square(n) {
  return n * n;
}

proc main() {
  var r;
  r = square(7);
  send(out, r);
}

process m = main();
)");
  System Sys(*Mod);
  EXPECT_EQ(runToEnd(Sys), GlobalStateKind::Termination);
  EXPECT_EQ(Sys.trace().back().Payload, Value::makeInt(49));
}

TEST(RuntimeTest, RecursionComputesFactorial) {
  auto Mod = mustCompile(R"(
chan out[2];

proc fact(n) {
  var r;
  if (n <= 1)
    return 1;
  r = fact(n - 1);
  return n * r;
}

proc main() {
  var r;
  r = fact(6);
  send(out, r);
}

process m = main();
)");
  System Sys(*Mod);
  EXPECT_EQ(runToEnd(Sys), GlobalStateKind::Termination);
  EXPECT_EQ(Sys.trace().back().Payload, Value::makeInt(720));
}

TEST(RuntimeTest, PointersWriteThroughCalleeFrames) {
  auto Mod = mustCompile(R"(
chan out[2];

proc bump(p) {
  *p = *p + 1;
}

proc main() {
  var x = 41;
  bump(&x);
  send(out, x);
}

process m = main();
)");
  System Sys(*Mod);
  EXPECT_EQ(runToEnd(Sys), GlobalStateKind::Termination);
  EXPECT_EQ(Sys.trace().back().Payload, Value::makeInt(42));
}

TEST(RuntimeTest, ArraysIndexAndBoundsError) {
  auto Mod = mustCompile(R"(
chan out[4];

proc main() {
  var a[3];
  var i;
  for (i = 0; i < 3; i = i + 1)
    a[i] = i * i;
  send(out, a[2]);
  a[5] = 1;
}

process m = main();
)");
  System Sys(*Mod);
  ExecResult Last;
  GlobalStateKind End = runToEnd(Sys, &Last);
  (void)End;
  EXPECT_EQ(Sys.trace().back().Payload, Value::makeInt(4));
  EXPECT_EQ(Last.Error.Kind, RunErrorKind::IndexOutOfBounds);
}

TEST(RuntimeTest, DivergenceDetectedByStepLimit) {
  auto Mod = mustCompile(R"(
proc main() {
  var x = 0;
  while (1)
    x = x + 1;
}

process m = main();
)");
  SystemOptions Opts;
  Opts.InvisibleStepLimit = 500;
  System Sys(*Mod, Opts);
  ZeroChoiceProvider Zero;
  ExecResult R = Sys.reset(Zero);
  ASSERT_FALSE(R.ok());
  EXPECT_EQ(R.Error.Kind, RunErrorKind::Divergence);
}

TEST(RuntimeTest, HaltParksProcessAsTerminated) {
  auto Mod = mustCompile(R"(
chan c[2];

proc main() {
  send(c, 1);
  halt();
  send(c, 2);
}

process m = main();
)");
  System Sys(*Mod);
  EXPECT_EQ(runToEnd(Sys), GlobalStateKind::Termination);
  EXPECT_EQ(Sys.trace().size(), 1u); // Only the first send executes.
}

TEST(RuntimeTest, GlobalsArePerProcess) {
  auto Mod = mustCompile(R"(
var g = 0;
chan out[4];

proc writer(v) {
  g = v;
  send(out, g);
}

process a = writer(1);
process b = writer(2);
)");
  System Sys(*Mod);
  ZeroChoiceProvider Zero;
  Sys.reset(Zero);
  // Run process a fully, then b: each sees its own copy of g.
  while (Sys.processEnabled(0))
    Sys.executeTransition(0, Zero);
  while (Sys.processEnabled(1))
    Sys.executeTransition(1, Zero);
  ASSERT_EQ(Sys.trace().size(), 2u);
  EXPECT_EQ(Sys.trace()[0].Payload, Value::makeInt(1));
  EXPECT_EQ(Sys.trace()[1].Payload, Value::makeInt(2));
}

TEST(RuntimeTest, SwitchDispatch) {
  auto Mod = mustCompile(R"(
chan out[4];

proc classify(v) {
  switch (v) {
  case 0:
    send(out, 'zero');
  case 1:
    send(out, 'one');
  default:
    send(out, 'many');
  }
}

proc main() {
  classify(0);
  classify(1);
  classify(9);
}

process m = main();
)");
  System Sys(*Mod);
  EXPECT_EQ(runToEnd(Sys), GlobalStateKind::Termination);
  ASSERT_EQ(Sys.trace().size(), 3u);
  EXPECT_EQ(Sys.trace()[0].Payload.str(), "'zero'");
  EXPECT_EQ(Sys.trace()[1].Payload.str(), "'one'");
  EXPECT_EQ(Sys.trace()[2].Payload.str(), "'many'");
}

TEST(RuntimeTest, FingerprintDistinguishesAndMatchesStates) {
  auto Mod = mustCompile(R"(
chan c[4];

proc main() {
  var x;
  x = VS_toss(1);
  send(c, x);
  send(c, x);
}

process m = main();
)");
  System Sys(*Mod);
  ZeroChoiceProvider Zero;
  Sys.reset(Zero);
  uint64_t F1 = Sys.fingerprint();
  Sys.reset(Zero);
  uint64_t F2 = Sys.fingerprint();
  EXPECT_EQ(F1, F2) << "reset must reproduce the initial state exactly";

  // A different toss outcome must give a different state.
  class OneProvider : public ChoiceProvider {
  public:
    int64_t choose(ChoiceKind, int64_t Bound) override { return Bound; }
  };
  OneProvider One;
  Sys.reset(One);
  EXPECT_NE(Sys.fingerprint(), F1);
}

TEST(RuntimeTest, FingerprintDependsOnChannelOrder) {
  // The two sends commute except for the order they leave in the channel:
  // [1,2] and [2,1] are the only difference between the two final states.
  auto Mod = mustCompile(R"(
chan c[2];

proc put(v) {
  send(c, v);
}

process a = put(1);
process b = put(2);
)");
  System Sys(*Mod);
  ZeroChoiceProvider Zero;
  auto RunInOrder = [&](int First, int Second) {
    Sys.reset(Zero);
    EXPECT_TRUE(Sys.executeTransition(First, Zero).ok());
    EXPECT_TRUE(Sys.executeTransition(Second, Zero).ok());
    EXPECT_EQ(Sys.classify(), GlobalStateKind::Termination);
    return Sys.fingerprint();
  };
  uint64_t OneTwo = RunInOrder(0, 1);
  EXPECT_EQ(Sys.trace()[0].Payload, Value::makeInt(1));
  uint64_t TwoOne = RunInOrder(1, 0);
  EXPECT_EQ(Sys.trace()[0].Payload, Value::makeInt(2));
  EXPECT_NE(OneTwo, TwoOne);
  EXPECT_EQ(RunInOrder(0, 1), OneTwo);
}

} // namespace
