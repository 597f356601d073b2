//===- Checks.h - Reference checks of workload answers ---------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Every answer a workload produces is checked against a reference that
/// does not come from the code path under test:
///
///  * the semaphore grid's distinct-state count has a closed form;
///  * a reported deadlock is re-executed by replayChoices() on the
///    interpreter, independently of the search (and of the VM the search
///    ran on), and must end in a deadlocked state;
///  * closed source must be free of environment calls and must survive a
///    fresh parse + CFG verification.
///
/// Each check returns an empty string on success and a one-line reason on
/// failure.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_PERFBENCH_CHECKS_H
#define CLOSER_PERFBENCH_CHECKS_H

#include "explorer/Search.h"

#include <cstdint>
#include <string>

namespace perfbench {

/// Distinct global states of semGridProgram(Iters): each process is either
/// at its loop head (counter 0..Iters) or holding the semaphore (counter
/// 0..Iters-1), so 2*Iters+1 local states each, and the semaphore count is
/// determined by them.
uint64_t gridStateCount(int Iters);

/// A complete, unsaturated cached exploration of semGridProgram(Iters)
/// that inserted exactly gridStateCount(Iters) fingerprints.
std::string checkGridRun(const closer::SearchResult &R, int Iters);

/// The search reported a deadlock first, and replaying its choice list on
/// \p Closed faithfully reaches a deadlocked state.
std::string checkDeadlockReport(const closer::Module &Closed,
                                const closer::SearchResult &R);

/// True when \p Text contains `env_input` or `env_output` as a whole
/// identifier.
bool containsEnvToken(const std::string &Text);

/// Emitted closed source has no environment call and re-parses and
/// verifies.
std::string checkClosedSource(const std::string &Emitted);

} // namespace perfbench

#endif // CLOSER_PERFBENCH_CHECKS_H
