//===- ParallelSearch.h - Work-sharing parallel stateless search -*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parallel VeriSoft-style search. Stateless exploration is embarrassingly
/// parallel: a recorded choice prefix fully determines the subtree below
/// it, so disjoint prefixes can be exhausted by independent workers, each
/// owning a private System replaying from the initial state.
///
///  * a sequential seeding pass expands the search tree to a split depth
///    and seeds the frontier prefixes round-robin across per-worker
///    work-stealing deques (sched/Scheduler.h);
///  * N workers claim prefixes — own deque first, then stealing — and run
///    the ordinary bounded DFS below them, pinned so backtracking never
///    escapes the claimed subtree;
///  * an idle worker parks on a wait node after its steal sweep fails;
///    busy workers donate the highest unexplored sibling prefix of their
///    current path whenever more workers are parked than parcels are
///    queued, each donation waking exactly one sleeper, so load stays
///    balanced on skewed trees without broadcast wakeups;
///  * the only shared writable memory is SharedSearchControl: the stop
///    flag (raised by StopOnFirstError, a budget, the time budget or
///    SIGINT; read at every replay step) and the MaxRuns/MaxStates budget
///    counters (bumped only while those budgets are set). Progress
///    counters are worker-owned blocks (SearchCounters) that the monitor
///    thread sums;
///  * per-worker SearchStats are merged at exit, and ErrorReports are
///    deduplicated by a hash of their choice sequence (by the erroneous
///    state's fingerprint under state caching, where distinct paths can
///    report the same state);
///  * under state caching, all workers share one concurrent fingerprint
///    table (explorer/StateCache.h), so a state expanded by any worker is
///    pruned everywhere else.
///
/// Without caching, the result is bit-identical to the sequential
/// Explorer's on every tree-shaped statistic (states, tree transitions,
/// leaf classification) and reports the same error set, independent of
/// worker scheduling, because the work items partition the search tree
/// exactly. Under caching, the *report set* stays deterministic for
/// truncation-free runs while visit order and replay-effort stats may
/// vary; see docs/ALGORITHM.md "Concurrent state caching".
///
/// This class is an implementation detail of closer::explore() (Search.h):
/// construct it directly only in tests that exercise the backend itself.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_EXPLORER_PARALLELSEARCH_H
#define CLOSER_EXPLORER_PARALLELSEARCH_H

#include "explorer/Search.h"
#include "sched/Scheduler.h"

#include <memory>
#include <vector>

namespace closer {

class ParallelExplorer {
public:
  ParallelExplorer(const Module &Mod, SearchOptions Options = {});
  ~ParallelExplorer();

  /// Runs the exploration to completion (or budget exhaustion) on
  /// Options.Jobs worker threads. Jobs <= 1 runs the sequential Explorer.
  /// State caching is legal with any job count: the workers share one
  /// concurrent fingerprint table.
  SearchStats run();

  const std::vector<ErrorReport> &reports() const { return Reports; }
  const SearchStats &stats() const { return Stats; }

  /// Per-part statistics of the last run: element 0 is the seeding pass
  /// (or the single explorer of a sequential run), then one entry per
  /// worker thread. Summing them reproduces stats() up to the
  /// merge-derived fields (coverage, Completed/Interrupted/WallSeconds).
  const std::vector<SearchStats> &workerStats() const { return PerWorker; }

  /// When the last run was stopped cooperatively (time budget, SIGINT, or
  /// a hard budget), the choice prefixes of the abandoned subtrees:
  /// every worker's deepest in-flight path plus the unclaimed work items,
  /// deepest first. Each is replayable (`closer replay`) and names a
  /// subtree a by-hand resumption would still have to explore. Empty for
  /// completed runs.
  const std::vector<std::vector<ReplayStep>> &resumePrefixes() const {
    return Resume;
  }

  /// Visible-operation call sites never exercised by the last run, merged
  /// over all workers.
  std::vector<std::pair<std::string, NodeId>> uncoveredVisibleOps() const;

private:
  /// A claimed unit of work: explore the whole subtree under Prefix.
  /// Decisions at index >= FreshFrom have not been executed by any other
  /// worker and count as fresh for stats/report purposes.
  ///
  /// When the donor held a checkpoint at or below the donation point, a
  /// copy rides along (HasSnap): the receiver restores Snap and replays
  /// only Prefix[SnapCursor..] instead of re-executing the whole prefix
  /// from the initial state. Without it, a work item donated at depth d
  /// costs d replayed transitions before any fresh exploration starts,
  /// which dominates the wall clock of deep, donation-heavy runs.
  struct WorkItem {
    std::vector<ReplayStep> Prefix;
    size_t FreshFrom = 0;
    bool HasSnap = false;
    /// Number of leading Prefix steps Snap already covers; Snap is the
    /// state *before* Prefix[SnapCursor] executes, with SnapSleep the
    /// sleep set in force there (empty when sleep sets are off).
    size_t SnapCursor = 0;
    std::vector<int> SnapSleep;
    SystemSnapshot Snap;
  };

  /// The scheduler instantiation this explorer runs on: per-worker
  /// Chase–Lev deques of WorkItems plus a parking lot for idle workers.
  using ExploreScheduler = sched::Scheduler<WorkItem>;

  class Monitor;

  /// Exhausts the explorer's current (sub)tree: runOnce/backtrack loop
  /// with shared-budget accounting, donating work while workers starve.
  /// \p Sched is null for the sequential seeding pass; \p W is the calling
  /// worker's scheduler index.
  void driveExplorer(Explorer &Ex, ExploreScheduler *Sched, int W);
  void workerMain(Explorer &Ex, ExploreScheduler &Sched, int W);
  /// Moves one unexplored sibling subtree from Ex's path to worker \p W's
  /// deque (whence an idle worker steals it).
  static bool donateOne(Explorer &Ex, ExploreScheduler &Sched, int W);
  /// The replay step selecting option \p Option of decision \p D.
  static ReplayStep stepFor(const Explorer::Decision &D, size_t Option);
  void mergeResults(const std::vector<Explorer *> &Parts);

  /// Gathers the abandoned-subtree prefixes of a cooperatively stopped
  /// run into Resume (deepest first, deduplicated).
  void collectResume(std::vector<std::vector<ReplayStep>> InFlight,
                     std::vector<WorkItem> Unclaimed);

  const Module &Mod;
  SearchOptions Options;
  SharedSearchControl Control;
  SearchStats Stats;
  std::vector<ErrorReport> Reports;
  std::vector<SearchStats> PerWorker;
  std::vector<std::vector<ReplayStep>> Resume;
  std::unordered_set<uint64_t> Covered; ///< Union of worker coverage sets.
  /// The shared visited-state table when caching is on (rebuilt per run).
  std::unique_ptr<StateCache> Cache;
};

} // namespace closer

#endif // CLOSER_EXPLORER_PARALLELSEARCH_H
