//===- Workloads.h - The benchmark's workloads -----------------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Three closed-loop workloads (one client; each operation starts when the
/// previous one has finished), driven through the facades the CLI calls:
///
///  * close_corpus  — closer::compile() + emitModuleSource() over a seeded
///                    batch of CorpusGen modules of 10k..75k CFG nodes;
///  * explore_grid  — closer::explore() of the cached semaphore grid with
///                    min(nproc, 4) workers; its traced run also measures
///                    the layers the grid bypasses on switch-app verdicts;
///  * switchapp_bug — source text of the §6 switch app with its seeded
///                    trunk leak -> compile() -> explore() on the VM until
///                    the first deadlock. Runs by hand; BENCHMARK.json
///                    leaves it out, as its timings drift with the host.
///
/// See perfbench/README.md for why each exists and what it measures.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_PERFBENCH_WORKLOADS_H
#define CLOSER_PERFBENCH_WORKLOADS_H

#include "Report.h"

#include <string>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  unsigned Threads = 1;
};

/// Runs \p O.Workload into \p Out. Returns an empty string on success and
/// the reason when the workload could not be set up (no result then).
std::string runWorkload(const RunOptions &O, Result &Out);

} // namespace perfbench

#endif // CLOSER_PERFBENCH_WORKLOADS_H
