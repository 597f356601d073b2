//===- Explorer.h - The per-worker DFS engine of one search ------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal to the explorer library: the stateless depth-first engine that
/// closer::explore() (Search.h) instantiates once per part of a search —
/// the single explorer of a one-job run, or the seeding pass plus one per
/// worker thread. It is not runnable on its own: the search driver
/// (ParallelSearch.cpp) attaches the run's shared stop flag and budgets,
/// the shared state cache, and drives the runOnce()/backtrack() loop.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_EXPLORER_EXPLORER_H
#define CLOSER_EXPLORER_EXPLORER_H

#include "explorer/Footprints.h"
#include "explorer/Search.h"
#include "runtime/System.h"
#include "support/Arena.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <unordered_set>
#include <vector>

namespace closer {

/// One explorer's live progress counters: the read side of `--progress`.
/// Only the owning explorer writes its block, and only with relaxed stores
/// of values it already holds in its SearchStats (no read-modify-write), so
/// the per-state path never touches a cache line another core writes. The
/// monitor thread sums the blocks of the seeder and every worker (taking
/// the max of MaxDepth); its reads are racy by design but atomic, so a
/// progress line is a slightly stale, never torn, view.
struct alignas(64) SearchCounters {
  std::atomic<uint64_t> States{0};
  std::atomic<uint64_t> Transitions{0};
  std::atomic<uint64_t> Runs{0};
  /// Reports retained by this explorer; duplicates across workers are not
  /// yet deduplicated, so the sum may exceed the final merged count.
  std::atomic<uint64_t> Reports{0};
  /// Deepest fresh global state this explorer reached.
  std::atomic<uint64_t> MaxDepth{0};
  // State-cache traffic (zero when caching is off).
  std::atomic<uint64_t> CacheHits{0};
  std::atomic<uint64_t> CacheInserts{0};
  std::atomic<uint64_t> CacheSaturated{0};
};
static_assert(sizeof(SearchCounters) == 64,
              "one explorer's counters must fill exactly one cache line");

/// The only memory the explorers of one run write in common: the stop flag
/// and the global MaxStates/MaxRuns budget counters. Progress counters are
/// not here; they are worker-owned (SearchCounters).
struct SharedSearchControl {
  /// Raised by StopOnFirstError, an exhausted budget, the time budget or
  /// SIGINT. Every explorer reads it at every replay step and it is
  /// written a handful of times per run, so it sits alone on its cache
  /// line and stays shared in every core's cache.
  alignas(64) std::atomic<bool> Stop{false};
  /// Global budget counters, bumped only while MaxStates (resp. MaxRuns)
  /// is set, so an unbudgeted run never writes them. A worker counts
  /// before it checks, so a budget overshoots by at most one per worker.
  alignas(64) std::atomic<uint64_t> StatesVisited{0};
  std::atomic<uint64_t> Runs{0};
};

struct SearchDriver;

class Explorer {
public:
  /// \p Options must already be normalized by the driver (sleep sets off
  /// under caching, VmCode compiled for Vm/Both). \p Cache is the run's
  /// shared visited-state table, null when caching is off.
  Explorer(const Module &Mod, const SearchOptions &Options,
           SharedSearchControl &Shared, StateCache *Cache);

private:
  struct Decision {
    enum class Kind { Sched, Toss, Env };
    Kind K = Kind::Sched;
    // Sched:
    std::vector<int> Procs; ///< Candidate processes, in exploration order.
    std::vector<int> Sleep; ///< Sleep set on entry (process indices).
    // Toss/Env:
    int64_t Bound = 0;
    size_t Chosen = 0;
    /// Trailing options handed to another worker by work sharing;
    /// backtrack() must not re-explore them.
    uint32_t DonatedTail = 0;

    size_t optionCount() const {
      if (K == Kind::Sched)
        return Procs.size();
      // A negative bound is a runtime error (the System reports it before
      // any choice is recorded); never let it wrap into a huge count.
      return Bound < 0 ? 1 : static_cast<size_t>(Bound) + 1;
    }
    /// Options still owned by this explorer (donated ones excluded).
    size_t ownedOptionEnd() const { return optionCount() - DonatedTail; }
  };

  class PathProvider;

  /// A snapshot of the System just before executing decision Path[Cursor],
  /// with the sleep set in force at that point. Stays valid while the
  /// decision survives backtracking (Cursor < Path.size()) — the decision's
  /// Chosen branch may change underneath it, since the snapshot captures
  /// the state *before* the choice is acted on.
  struct Checkpoint {
    size_t Cursor = 0;
    std::vector<int> Sleep;
    SystemSnapshot Snap;
  };

  /// Executes one full path following (and extending) Path. Returns false
  /// when the global stop condition triggered.
  bool runOnce();
  bool backtrack();
  /// Snapshots the state before executing Path[Cursor] when the checkpoint
  /// interval (or a worker's pinned prefix) calls for it.
  void maybeCheckpoint(const std::vector<int> &CurSleep);
  /// The replay step that selects option \p Option of decision \p D.
  static ReplayStep stepFor(const Decision &D, size_t Option);
  std::vector<ReplayStep> currentChoices() const;
  /// Persistent-set candidate selection; overwrites \p Out (which is pool
  /// or scratch storage on the hot path).
  void schedCandidatesInto(const std::vector<int> &Enabled,
                           const std::vector<int> &Sleep,
                           std::vector<int> &Out);
  /// Counts one finished runOnce() path in Stats and the live block.
  /// Returns true when it exhausts the run-wide MaxRuns budget.
  bool countRun();
  /// Copies the allocator counters (arena bytes, pool misses) into Stats.
  /// Called by the driver when this explorer's part of the run ends.
  void syncAllocStats();
  // Pool recycling for path/checkpoint storage; popping without releasing
  // is only a missed reuse, never a leak.
  void releaseDecision(Decision &D);
  void releaseCheckpoint(Checkpoint &C);
  void clearPath();
  void clearCkpts();
  void report(ErrorReport R);
  bool stopRequested() const {
    return Shared.Stop.load(std::memory_order_acquire);
  }
  /// Stops this explorer and every sibling worker.
  void requestStop() { Shared.Stop.store(true, std::memory_order_release); }
  /// Work sharing: prepare this explorer to exhaust the subtree under
  /// \p Prefix. The prefix decisions are reconstructed (candidates and
  /// sleep sets recomputed) during the first runOnce() without recounting
  /// stats; decisions at index >= \p FreshFrom count as fresh. backtrack()
  /// then never pops below the prefix. Stats/Reports accumulate across
  /// successive subtrees.
  void beginSubtree(std::vector<ReplayStep> Prefix, size_t FreshFrom) {
    clearPath();
    Cursor = 0;
    clearCkpts(); // Snapshots index into the abandoned path.
    LastInFlight.clear();
    Floor = Prefix.size();
    SeedPrefix = std::move(Prefix);
    SeedCursor = 0;
    SeedFresh = FreshFrom;
    SeedSnapValid = false;
    SeedSnap = Checkpoint();
  }
  /// Like beginSubtree(), but the work item ships the donor's checkpoint
  /// covering Prefix[0, SnapCursor): the first runOnce() restores \p Snap
  /// with \p SnapSleep in force and replays only the prefix tail. The
  /// covered head is materialized as placeholder decisions (single-option,
  /// never executed) so currentChoices() and donation prefixes still
  /// serialize the full path from the root.
  void beginSubtree(std::vector<ReplayStep> Prefix, size_t FreshFrom,
                    SystemSnapshot Snap, size_t SnapCursor,
                    std::vector<int> SnapSleep);

  const Module &Mod;
  SearchOptions Options;
  FootprintAnalysis Footprints;
  System Sys;
  /// The engine installed into Sys for Vm/Both modes (null for Interp).
  /// Owned here: each explorer needs its own register file even when the
  /// compiled code is shared.
  std::unique_ptr<ExecEngine> Engine;
  std::vector<Decision> Path;
  size_t Cursor = 0;
  /// Checkpoints along the current path, shallowest first (strictly
  /// increasing Cursor). Empty when CheckpointInterval is 0.
  std::vector<Checkpoint> Ckpts;
  SearchStats Stats;
  /// The live mirror of Stats that the progress monitor reads; written by
  /// this explorer only.
  SearchCounters Live;
  std::vector<ErrorReport> Reports;
  /// The run's visited-state fingerprint table (one table shared across
  /// all explorers), consulted at fresh arrivals. Null when caching is off.
  StateCache *Cache;
  /// Covered visible sites, packed as ProcIdx * 2^32 + NodeId.
  std::unordered_set<uint64_t> CoveredOps;
  std::vector<Trace> *TraceSink = nullptr;
  size_t TraceSinkCap = 0;
  /// The choice prefix that was in flight when a cooperative stop cut the
  /// current runOnce() short — the deepest abandoned path, replayable by
  /// hand to resume the search (empty when the run ended normally).
  std::vector<ReplayStep> LastInFlight;

  // Work-sharing state, driven by the search driver.
  /// Decisions [0, Floor) are a pinned work-item prefix; backtrack() stops
  /// there instead of at the root.
  size_t Floor = 0;
  /// Choice prefix still to be reconstructed into Path on the next
  /// runOnce(), and the cursor walking it.
  std::vector<ReplayStep> SeedPrefix;
  size_t SeedCursor = 0;
  /// First prefix index whose execution counts as fresh (seeded items:
  /// prefix length — nothing; donated items: the donated sibling step).
  size_t SeedFresh = 0;
  /// Work-item snapshot (see the snapshot beginSubtree overload): restored
  /// whenever no regular checkpoint survives, so with CheckpointInterval 0
  /// every path of the item still starts at SeedSnap.Cursor instead of the
  /// initial state. Cursor/Sleep/Snap reuse the Checkpoint layout.
  bool SeedSnapValid = false;
  Checkpoint SeedSnap;
  /// Seeding mode: instead of descending past FrontierDepth decisions,
  /// emit the choice prefix here and treat the node as an artificial leaf.
  /// The frontier node itself is left uncounted for its future owner.
  std::vector<std::vector<ReplayStep>> *FrontierSink = nullptr;
  size_t FrontierDepth = 0;
  /// The run's stop flag and budgets, shared by all its explorers (the
  /// monitor thread stops a run through it).
  SharedSearchControl &Shared;

  // Hot-path allocation recycling (support/Arena.h). All per-explorer and
  // single-threaded: in a parallel run each worker's Explorer owns its own
  // arena and pools, so the steady state touches no shared allocator at
  // all. Pool misses are bounded by the DFS-stack high-water mark; the
  // arena stops growing once the deepest path has been visited.
  /// Recycles Decision::Procs/Sleep and Checkpoint::Sleep.
  support::VectorPool<int> IntPool;
  /// Recycles checkpoint snapshots: restoring content into a pooled
  /// snapshot reuses its process/comm/trace buffers.
  support::ObjectPool<SystemSnapshot> SnapPool;
  /// Backs the per-transition footprint scratch bitsets (FpBuf).
  support::Arena FpArena;
  // Per-transition scratch, reused across every state expansion.
  std::vector<int> EnabledBuf;
  std::vector<std::pair<int, NodeId>> FrameBuf;
  /// One footprint per process, words on FpArena; sized once per run.
  std::vector<ObjSet> FpBuf;
  /// Union-find scratch for schedCandidatesInto.
  std::vector<int> CompBuf;
  /// Current/next sleep-set scratch for the runOnce descent loop.
  std::vector<int> SleepCurBuf;
  std::vector<int> SleepNextBuf;
  std::vector<int> CandBuf;

  friend struct SearchDriver;
};

} // namespace closer

#endif // CLOSER_EXPLORER_EXPLORER_H
