//===- TestUtil.h - Shared helpers for the closer test suite ---*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#ifndef CLOSER_TESTS_TESTUTIL_H
#define CLOSER_TESTS_TESTUTIL_H

#include "cfg/CfgBuilder.h"
#include "cfg/CfgVerifier.h"
#include "support/Diagnostics.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

namespace closer {

/// Compiles MiniC source, failing the test with diagnostics on error.
inline std::unique_ptr<Module> mustCompile(const std::string &Source) {
  DiagnosticEngine Diags;
  std::unique_ptr<Module> Mod = compileMiniC(Source, Diags);
  EXPECT_TRUE(Mod != nullptr) << Diags.str();
  if (Mod) {
    EXPECT_TRUE(verifyModule(*Mod, Diags)) << Diags.str();
  }
  return Mod;
}

/// The paper's Figure 2 procedure p, in MiniC. The process argument `env`
/// opens the system: x is provided by the environment. The paper's
/// send('even', cnt) / send('odd', cnt) pair is modeled as two channels
/// carrying the (untainted) counter.
inline const char *figure2Source() {
  return R"(
chan evens[16];
chan odds[16];

proc p(x) {
  var cnt = 0;
  var y;
  while (cnt < 10) {
    y = x % 2;
    if (y == 0)
      send(evens, cnt);
    else
      send(odds, cnt);
    cnt = cnt + 1;
  }
}

process main = p(env);
)";
}

/// The paper's Figure 3 procedure q: same as p but x is shifted each
/// iteration, so the closed program is an optimal translation.
inline const char *figure3Source() {
  return R"(
chan evens[16];
chan odds[16];

proc q(x) {
  var cnt = 0;
  var y;
  while (cnt < 10) {
    y = x % 2;
    if (y == 0)
      send(evens, cnt);
    else
      send(odds, cnt);
    x = x / 2;
    cnt = cnt + 1;
  }
}

process main = q(env);
)";
}

/// Two processes looping \p Iters times over wait/signal on one shared
/// semaphore: Iters^2 distinct states, each reachable along exponentially
/// many interleavings. Uncached (and without POR) the search tree is
/// exponential in Iters, so a small grid keeps any budgeted run busy.
inline std::string semGridSource(int Iters) {
  std::string S = "sem s(2);\n";
  for (const char *P : {"a", "b"})
    S += "proc " + std::string(P) + "() {\n  var k;\n  for (k = 0; k < " +
         std::to_string(Iters) +
         "; k = k + 1) {\n    sem_wait(s);\n    sem_signal(s);\n  }\n}\n";
  S += "process pa = a();\nprocess pb = b();\n";
  return S;
}

} // namespace closer

#endif // CLOSER_TESTS_TESTUTIL_H
