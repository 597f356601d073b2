//===- Search.h - VeriSoft-style stateless state-space search --*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Systematic exploration of a closed system's global state space in the
/// style of VeriSoft [God97]:
///
///  * the search is *stateless*: no visited state is stored; alternative
///    paths are explored by re-executing the system from its initial state
///    under a recorded sequence of choices (scheduling choices at global
///    states, VS_toss outcomes, and — when driving a still-open module —
///    environment choices over a finite domain);
///  * depth-bounded DFS guarantees complete coverage of the state space up
///    to the bound;
///  * partial-order reduction: persistent sets derived from static
///    communication footprints (processes whose remaining footprints are
///    disjoint can never interact) plus sleep sets, as in [God96];
///  * deadlocks, assertion violations, divergences and runtime errors are
///    reported with their full visible trace.
///
/// A state-caching mode (store fingerprints, prune revisits) is provided as
/// an ablation of the stateless design; see explorer/StateCache.h.
///
/// closer::explore() runs every search: one explorer for Jobs <= 1, a
/// seeding pass plus Jobs work-stealing workers otherwise, each with or
/// without the shared state cache. collectTraces() runs the same driver and
/// keeps the leaf traces. The per-worker engine underneath (Explorer.h) and
/// the driver (ParallelSearch.cpp) are internal to the library.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_EXPLORER_SEARCH_H
#define CLOSER_EXPLORER_SEARCH_H

#include "explorer/Replay.h"
#include "explorer/StateCache.h"
#include "runtime/System.h"
#include "support/Diagnostics.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace closer {

namespace vm {
struct CompiledModule;
} // namespace vm

/// Which transition-execution engine the search drives the System with.
/// All modes produce bit-identical tree-shaped statistics and reports; only
/// throughput differs (and Both pays for two executions per transition).
enum class ExecMode {
  Interp, ///< The tree-walking interpreter (the default).
  Vm,     ///< The direct-threaded bytecode VM.
  Both,   ///< Differential oracle: run both, abort on any divergence.
};

struct SearchOptions {
  /// Maximum transitions along one path (the paper's "complete coverage of
  /// the state space up to some depth").
  size_t MaxDepth = 60;
  /// Hard budget on replays (0 = unlimited).
  uint64_t MaxRuns = 0;
  /// Hard budget on fresh tree states (0 = unlimited).
  uint64_t MaxStates = 0;
  bool UsePersistentSets = true;
  bool UseSleepSets = true;
  /// State caching: log2 of the fingerprint-cache slot count (0 = off;
  /// StateCache::DefaultBits is the CLI's bare `--state-cache` size). The
  /// cache is a bounded concurrent table (explorer/StateCache.h) shared
  /// across all workers, so `--state-cache` composes with `--jobs N`. Sleep
  /// sets are disabled whenever caching is on: their path-dependent pruning
  /// is unsound against a cross-path visited set (a slept-on state could be
  /// cache-pruned everywhere else and never get explored at all).
  unsigned StateCacheBits = 0;
  bool StopOnFirstError = false;
  /// Treat deadlocks as errors for StopOnFirstError purposes.
  bool DeadlockIsError = true;
  /// Maximum error reports retained.
  size_t MaxReports = 64;
  /// Track which visible operations (CFG call sites) the search exercised
  /// — a test-adequacy metric for the paper's "lightweight testing
  /// platform" use (§6).
  bool TrackCoverage = true;
  /// Worker threads (1 = one explorer, no seeding pass; 0 = auto:
  /// explore() resolves it to the hardware concurrency and records the
  /// resolved count in SearchResult::Options).
  size_t Jobs = 1;
  /// Number of decisions the sequential seeding pass expands before
  /// handing subtrees to workers (0 = derive from Jobs). Only read when
  /// Jobs > 1.
  size_t SplitDepth = 0;
  /// Keep a System snapshot every this many global states along the DFS
  /// stack and, on backtrack, restore the nearest one instead of
  /// re-executing the whole choice prefix (0 = pure stateless search, the
  /// paper's baseline). Any value yields bit-identical tree-shaped stats;
  /// only Transitions/TransitionsReplayed/TransitionsRestored move.
  size_t CheckpointInterval = 0;
  //===--------------------------------------------------------------------===//
  // Observability & graceful degradation
  //===--------------------------------------------------------------------===//
  /// Print a progress line to stderr every this many seconds (0 = off).
  /// Driven by a monitor thread that sums the explorers' SearchCounters
  /// blocks; workers never block or synchronize for it.
  double ProgressIntervalSeconds = 0;
  /// Cooperative wall-clock budget: after this many seconds the run stop
  /// flag is raised, workers drain, and partial results (stats, reports,
  /// in-flight resume prefixes) are still delivered (0 = unlimited).
  double TimeBudgetSeconds = 0;
  /// External cooperative-stop flag (e.g. set by a SIGINT handler); polled
  /// by the monitor thread. Never written by the search.
  const std::atomic<bool> *ExternalStop = nullptr;
  /// Transition-execution engine (interpreter, bytecode VM, or the
  /// interpreter-vs-VM differential oracle).
  ExecMode Exec = ExecMode::Interp;
  /// Pre-compiled bytecode for Vm/Both modes. explore() compiles the module
  /// once and shares the immutable result across the seeder and all
  /// workers; left null with Exec == Interp.
  std::shared_ptr<const vm::CompiledModule> VmCode;
  SystemOptions Runtime;

  bool stateCacheEnabled() const { return StateCacheBits != 0; }

  /// Centralized option validation: every constraint the explorers assume
  /// (previously scattered as ad-hoc checks across the CLI and the
  /// explorers). The CLI prints any errors and exits 1 before a search
  /// starts; explore() merely clamps, so library callers who skip
  /// validation still get a defined (if adjusted) run. Warnings describe
  /// adjustments explore() applies automatically (e.g. sleep sets off
  /// under caching).
  std::vector<Diagnostic> validate() const;
};

struct SearchStats {
  uint64_t Runs = 0;             ///< Completed path replays.
  uint64_t Transitions = 0;      ///< Transitions executed, incl. replays.
  uint64_t TreeTransitions = 0;  ///< Distinct search-tree edges.
  /// Prefix transitions re-executed during replay (the stateless-search
  /// overhead checkpointing attacks); Transitions = TreeTransitions +
  /// TransitionsReplayed.
  uint64_t TransitionsReplayed = 0;
  /// Prefix transitions skipped by restoring a checkpoint instead of
  /// re-executing them (0 in pure stateless mode).
  uint64_t TransitionsRestored = 0;
  uint64_t StatesVisited = 0;    ///< Distinct tree nodes (global states).
  uint64_t Deadlocks = 0;
  uint64_t Terminations = 0;
  uint64_t AssertionViolations = 0;
  uint64_t Divergences = 0;
  uint64_t RuntimeErrors = 0;
  uint64_t DepthLimitHits = 0;
  uint64_t SleepSetPrunes = 0;
  /// State-cache traffic (all zero when caching is off). CacheHits counts
  /// pruned revisits, CacheInserts first-time stores, CacheSaturated fresh
  /// arrivals the full cache declined to store (searched anyway: the
  /// saturation policy is "stop inserting, keep searching").
  uint64_t CacheHits = 0;
  uint64_t CacheInserts = 0;
  uint64_t CacheSaturated = 0;
  /// Error reports discarded because MaxReports was already reached.
  uint64_t ReportsDropped = 0;
  /// Visible-operation call sites executed at least once / total in the
  /// module (0/0 when coverage tracking is off).
  uint64_t VisibleOpsCovered = 0;
  uint64_t VisibleOpsTotal = 0;
  // Scheduler and allocator traffic (all zero for sequential, non-pooled
  // runs). Not tree-shaped: these vary run to run with thread timing, so
  // str() prints them only when nonzero and the equivalence tests exclude
  // them.
  /// Work items this worker stole from another worker's deque.
  uint64_t Steals = 0;
  /// Targeted wakeups this worker received while parked.
  uint64_t Wakeups = 0;
  /// Bytes the worker's footprint arena drew from the global heap.
  uint64_t ArenaBytes = 0;
  /// Pool misses (fresh allocations) across the worker's object pools —
  /// bounded by the DFS-stack high-water mark, not the state count.
  uint64_t PoolFresh = 0;
  bool Completed = false; ///< Search exhausted the (bounded) tree.
  /// Stop came from outside the search itself — the wall-clock budget or
  /// an external flag (SIGINT) — rather than from completion or a
  /// MaxRuns/MaxStates/StopOnFirstError condition. Partial results are
  /// still valid; resume prefixes identify the abandoned subtrees.
  bool Interrupted = false;
  /// The run stopped because StopOnFirstError was set and it counted a
  /// qualifying error: an assertion violation, a runtime error, a
  /// divergence, or a deadlock under DeadlockIsError.
  bool StoppedAtFirstError = false;
  /// Wall-clock duration of the run (not part of str(): tree-shaped output
  /// stays bit-identical across machines and runs).
  double WallSeconds = 0;

  std::string str() const;
};

/// One reported problem, with the visible trace that leads to it and the
/// choice sequence that reproduces it (see explorer/Replay.h).
struct ErrorReport {
  enum class Type { Deadlock, AssertionViolation, RuntimeError, Divergence };
  Type Kind;
  size_t Depth = 0;
  Trace TraceToError;
  std::vector<ReplayStep> Choices; ///< Feed to replayChoices to reproduce.
  RunError Error;    ///< RuntimeError / Divergence details.
  SourceLoc Loc;     ///< Assertion location.
  int Process = -1;
  /// Fingerprint of the erroneous global state. Under state caching, where
  /// the same state can be reached freshly along different paths by
  /// different workers, reports are deduplicated by state identity (this
  /// field plus the error details) rather than by choice sequence.
  uint64_t StateFp = 0;

  std::string str() const;
};

/// Everything a finished search produced, as returned by closer::explore().
struct SearchResult {
  /// The options the search actually ran with, after explore()'s
  /// normalizations (sleep sets off under caching, Jobs clamped) — what a
  /// run artifact should record as its self-description.
  SearchOptions Options;
  SearchStats Stats;
  std::vector<ErrorReport> Reports;
  /// Per-part statistics: element 0 is the seeding pass, then one entry
  /// per worker thread. Summing them reproduces Stats up to the
  /// merge-derived fields (coverage, Completed/Interrupted/
  /// StoppedAtFirstError/WallSeconds). A one-explorer run (Jobs <= 1) has
  /// the single entry Workers[0] == Stats.
  std::vector<SearchStats> Workers;
  /// For runs stopped early (time budget, SIGINT, a hard budget or the
  /// first error): replayable choice prefixes of the abandoned subtrees —
  /// every explorer's in-flight path plus the unclaimed work items, deepest
  /// first. Empty for completed runs.
  std::vector<std::vector<ReplayStep>> Resume;
  /// Visible-operation call sites the search never exercised.
  std::vector<std::pair<std::string, NodeId>> Uncovered;
};

/// Runs a search of \p Mod: one explorer (Jobs <= 1) or work-sharing
/// parallel (Jobs > 1), each with or without the state cache
/// (stateCacheEnabled()); `--state-cache --jobs N` shares one concurrent
/// fingerprint table across all workers. Normalizations applied (see
/// SearchOptions::validate() for the corresponding warnings): sleep sets
/// are disabled when caching is on; Jobs == 0 runs one worker per hardware
/// thread (the resolved count is recorded in SearchResult::Options).
SearchResult explore(const Module &Mod, const SearchOptions &Options);

/// All distinct visible traces of the leaves a search of \p Mod reaches,
/// in DFS order, capped at \p MaxTraces. Runs explore()'s driver with one
/// explorer (Options.Jobs is ignored) so the cap keeps a deterministic
/// prefix. Used by the trace-inclusion property tests (Theorem 6).
std::vector<Trace> collectTraces(const Module &Mod, SearchOptions Options,
                                 size_t MaxTraces);

} // namespace closer

#endif // CLOSER_EXPLORER_SEARCH_H
