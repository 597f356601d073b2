//===- main.cpp - closer's end-to-end benchmark ---------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
//   closer_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--git-sha SHA --git-dirty 0|1 --tree-sha SHA]
//   closer_bench --list-metrics
//
// Prints the result lines described in Report.h. Exits 1 without a result
// when the arguments are bad or the workload cannot be set up; a failed
// reference check is a result (correct: false), not an exit code.
//
//===----------------------------------------------------------------------===//

#include "Report.h"
#include "Workloads.h"

#include "support/CommandLine.h"

#include <cstdio>

using namespace perfbench;

int main(int Argc, char **Argv) {
  const closer::FlagSpec Spec = {
      {"--workload", closer::FlagArity::Value},
      {"--seed", closer::FlagArity::Value},
      {"--seconds", closer::FlagArity::Value},
      {"--trace", closer::FlagArity::Value},
      {"--git-sha", closer::FlagArity::Value},
      {"--git-dirty", closer::FlagArity::Value},
      {"--tree-sha", closer::FlagArity::Value},
      {"--list-metrics", closer::FlagArity::Bool},
  };
  closer::Args A = closer::parseArgs(Argc, Argv, 1, Spec);
  if (A.Error.empty() && A.has("--list-metrics")) {
    std::printf("%s\n", metricRegistryJson().c_str());
    return 0;
  }

  RunOptions O;
  O.Workload = A.strOf("--workload", "");
  O.Seed = static_cast<uint64_t>(A.intOf("--seed", 1));
  O.Seconds = A.secondsOf("--seconds", 10);
  long Trace = A.intOf("--trace", 0);
  O.Trace = Trace != 0;
  O.Threads = O.Workload == "explore_grid" ? benchThreads() : 1;
  if (A.Error.empty() && (Trace < 0 || Trace > 1))
    A.fail("--trace must be 0 or 1");
  if (A.Error.empty() && !A.Positional.empty())
    A.fail("unexpected argument '" + A.Positional[0] + "'");
  if (!A.Error.empty()) {
    std::fprintf(stderr, "error: %s\n", A.Error.c_str());
    return 1;
  }

  Provenance P;
  P.GitSha = A.strOf("--git-sha", "unknown");
  P.GitDirty = A.strOf("--git-dirty", "unknown");
  P.TreeSha = A.strOf("--tree-sha", "unknown");
  P.Workload = O.Workload;
  P.Seed = O.Seed;
  P.Seconds = O.Seconds;
  P.Trace = O.Trace;
  P.Threads = O.Threads;

  Result R(O.Trace);
  std::string Err = runWorkload(O, R);
  if (!Err.empty()) {
    std::fprintf(stderr, "error: %s\n", Err.c_str());
    return 1;
  }
  std::fprintf(stderr, "%s: %llu reference checks, %llu failed\n",
               O.Workload.c_str(),
               static_cast<unsigned long long>(R.attempted()),
               static_cast<unsigned long long>(R.failed()));
  return R.print(P) ? 0 : 1;
}
