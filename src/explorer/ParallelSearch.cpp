//===- ParallelSearch.cpp - The search driver: explore() and its workers ---===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
//
// The one search driver behind closer::explore() and closer::collectTraces().
// Stateless exploration is embarrassingly parallel: a recorded choice prefix
// fully determines the subtree below it, so disjoint prefixes can be
// exhausted by independent workers, each owning a private System.
//
//  * With Jobs <= 1 a single Explorer runs the bounded DFS from the root;
//    there is no seeding pass and no scheduler.
//  * Otherwise a sequential seeding pass expands the search tree to a split
//    depth and deals the frontier prefixes round-robin across per-worker
//    work-stealing deques (sched/Scheduler.h). N workers claim prefixes —
//    own deque first, then stealing — and run the same DFS below them,
//    pinned so backtracking never escapes the claimed subtree.
//  * An idle worker parks on a wait node after its steal sweep fails; busy
//    workers donate the highest unexplored sibling prefix of their current
//    path whenever more workers are parked than parcels are queued, each
//    donation waking exactly one sleeper, so load stays balanced on skewed
//    trees without broadcast wakeups.
//  * The only shared writable memory is SharedSearchControl: the stop flag
//    (raised by StopOnFirstError, a budget, the time budget or SIGINT; read
//    at every replay step) and the MaxRuns/MaxStates budget counters
//    (bumped only while those budgets are set). Progress counters are
//    explorer-owned blocks (SearchCounters) that the monitor thread sums.
//  * Per-explorer SearchStats are merged at exit, and ErrorReports are
//    deduplicated by a hash of their choice sequence (by the erroneous
//    state's fingerprint under state caching, where distinct paths can
//    report the same state).
//  * Under state caching, all explorers share one concurrent fingerprint
//    table (explorer/StateCache.h), so a state expanded by any worker is
//    pruned everywhere else.
//
// Without caching, the result is bit-identical to the one-explorer run's on
// every tree-shaped statistic (states, tree transitions, leaf
// classification) and reports the same error set, independent of worker
// scheduling, because the work items partition the search tree exactly.
// Under caching, the *report set* stays deterministic for truncation-free
// runs while visit order and replay-effort stats may vary; see
// docs/ALGORITHM.md "Concurrent state caching".
//
//===----------------------------------------------------------------------===//

#include "explorer/Explorer.h"

#include "sched/Scheduler.h"
#include "vm/Bytecode.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>

using namespace closer;

namespace closer {

/// Runs one search: builds its explorers, drives them, and merges their
/// results into a SearchResult. Stateless; a friend of Explorer.
struct SearchDriver {
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

  /// Per-worker Chase–Lev deques of WorkItems plus a parking lot for idle
  /// workers.
  using ExploreScheduler = sched::Scheduler<WorkItem>;
  using Parts = std::vector<std::unique_ptr<Explorer>>;

  class Monitor;

  /// Normalizes \p Options, runs the search, and returns its result. When
  /// \p TraceSink is set (one-explorer runs only), leaf traces are appended
  /// to it until it holds \p TraceCap of them.
  static SearchResult run(const Module &Mod, const SearchOptions &Options,
                          std::vector<Trace> *TraceSink, size_t TraceCap);
  /// Exhausts the explorer's current (sub)tree: the runOnce/backtrack loop
  /// with run-wide budget accounting, donating work while workers starve.
  /// \p Sched is null for a run's first explorer (the whole search, or the
  /// seeding pass); \p W is the calling worker's scheduler index.
  static void driveExplorer(Explorer &Ex, ExploreScheduler *Sched, int W);
  static void workerMain(Explorer &Ex, ExploreScheduler &Sched, int W);
  /// Moves one unexplored sibling subtree from Ex's path to worker \p W's
  /// deque (whence an idle worker steals it).
  static bool donateOne(Explorer &Ex, ExploreScheduler &Sched, int W);
  /// Fills R.Stats, R.Reports, R.Workers and R.Uncovered from the parts.
  static void merge(SearchResult &R, const Module &Mod, const Parts &Ps);
  /// Gathers the abandoned-subtree prefixes of a stopped run into R.Resume
  /// (deepest first, deduplicated).
  static void collectResume(SearchResult &R, const Parts &Ps,
                            std::vector<WorkItem> Unclaimed);
};

} // namespace closer

//===----------------------------------------------------------------------===//
// Monitor
//===----------------------------------------------------------------------===//

/// Observability sidecar thread: periodically sums the explorers'
/// worker-owned counter blocks for `--progress` lines, and raises the
/// cooperative stop flag when the wall-clock budget expires or an external
/// stop flag (SIGINT) is set. Workers are never blocked by it — they only
/// ever see relaxed atomic loads/stores.
class SearchDriver::Monitor {
public:
  /// \p Blocks are the counter blocks of every explorer of the run; they
  /// must outlive the monitor thread (stop() or destruction).
  Monitor(const SearchOptions &Opts, SharedSearchControl &Control,
          ExploreScheduler *Sched, std::vector<const SearchCounters *> Blocks)
      : Opts(Opts), Control(Control), Sched(Sched),
        Blocks(std::move(Blocks)) {}

  ~Monitor() { stop(); }

  /// Starts the monitor thread, unless these options need none.
  void start() {
    const bool Wanted = Opts.ProgressIntervalSeconds > 0 ||
                        Opts.TimeBudgetSeconds > 0 ||
                        Opts.ExternalStop != nullptr;
    if (!Wanted || T.joinable())
      return;
    Begin = std::chrono::steady_clock::now();
    T = std::thread([this] { loop(); });
  }

  void stop() {
    if (!T.joinable())
      return;
    {
      std::lock_guard<std::mutex> Lock(M);
      Done = true;
    }
    // Exactly one waiter exists — the monitor thread itself — so a
    // targeted wakeup is all that is needed (no broadcast anywhere on the
    // shutdown path).
    CV.notify_one();
    T.join();
  }

  /// True when this monitor raised the stop flag (budget or external).
  bool interrupted() const {
    return Interrupted.load(std::memory_order_acquire);
  }

private:
  void triggerStop() {
    Interrupted.store(true, std::memory_order_release);
    Control.Stop.store(true, std::memory_order_release);
    if (Sched)
      Sched->requestStop(); // Targeted unparks; workers observe Stop.
  }

  /// The run-wide view of the counter blocks: sums, and the max depth.
  struct Totals {
    unsigned long long States = 0, Transitions = 0, Runs = 0, Reports = 0,
                       MaxDepth = 0, CacheHits = 0, CacheInserts = 0,
                       CacheSaturated = 0;
  };

  Totals sum() const {
    auto Get = [](const std::atomic<uint64_t> &C) {
      return static_cast<unsigned long long>(
          C.load(std::memory_order_relaxed));
    };
    Totals T;
    for (const SearchCounters *B : Blocks) {
      T.States += Get(B->States);
      T.Transitions += Get(B->Transitions);
      T.Runs += Get(B->Runs);
      T.Reports += Get(B->Reports);
      T.MaxDepth = std::max(T.MaxDepth, Get(B->MaxDepth));
      T.CacheHits += Get(B->CacheHits);
      T.CacheInserts += Get(B->CacheInserts);
      T.CacheSaturated += Get(B->CacheSaturated);
    }
    return T;
  }

  void emitProgress(double Elapsed, double Dt, const Totals &Now,
                    const Totals &Last) {
    if (Dt <= 0)
      Dt = 1;
    // Cache traffic is appended only for cached runs, pre-formatted so the
    // line below still goes out in one fprintf call (concurrent report
    // printing cannot shear it).
    char CacheBuf[128] = "";
    if (Opts.stateCacheEnabled())
      std::snprintf(CacheBuf, sizeof(CacheBuf),
                    " cache-hits=%llu cache-inserts=%llu cache-saturated=%llu",
                    Now.CacheHits, Now.CacheInserts, Now.CacheSaturated);
    std::fprintf(
        stderr,
        "progress: t=%.1fs states=%llu states/s=%.0f transitions=%llu "
        "trans/s=%.0f depth=%llu frontier=%zu runs=%llu reports=%llu%s\n",
        Elapsed, Now.States,
        static_cast<double>(Now.States - Last.States) / Dt, Now.Transitions,
        static_cast<double>(Now.Transitions - Last.Transitions) / Dt,
        Now.MaxDepth, Sched ? Sched->queuedHint() : static_cast<size_t>(0),
        Now.Runs, Now.Reports, CacheBuf);
  }

  void loop() {
    // Poll fast enough that budgets and Ctrl-C feel immediate even when
    // the progress interval is long (or progress is off).
    double PollS = 0.05;
    if (Opts.ProgressIntervalSeconds > 0)
      PollS = std::min(PollS, Opts.ProgressIntervalSeconds / 2);
    const auto Poll = std::chrono::duration<double>(std::max(PollS, 0.001));

    double NextProgress = Opts.ProgressIntervalSeconds;
    double LastElapsed = 0;
    Totals Last;

    std::unique_lock<std::mutex> Lock(M);
    for (;;) {
      if (CV.wait_for(Lock, Poll, [this] { return Done; }))
        return;
      double Elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - Begin)
                           .count();
      if (!interrupted()) {
        if (Opts.ExternalStop &&
            Opts.ExternalStop->load(std::memory_order_relaxed))
          triggerStop();
        else if (Opts.TimeBudgetSeconds > 0 &&
                 Elapsed >= Opts.TimeBudgetSeconds)
          triggerStop();
      }
      if (Opts.ProgressIntervalSeconds > 0 && Elapsed >= NextProgress) {
        Totals Now = sum();
        emitProgress(Elapsed, Elapsed - LastElapsed, Now, Last);
        Last = Now;
        LastElapsed = Elapsed;
        NextProgress = Elapsed + Opts.ProgressIntervalSeconds;
      }
    }
  }

  const SearchOptions &Opts;
  SharedSearchControl &Control;
  ExploreScheduler *Sched;
  const std::vector<const SearchCounters *> Blocks;
  std::chrono::steady_clock::time_point Begin;
  std::thread T;
  std::mutex M;
  std::condition_variable CV;
  bool Done = false;
  std::atomic<bool> Interrupted{false};
};

//===----------------------------------------------------------------------===//
// The driver
//===----------------------------------------------------------------------===//

namespace {

/// FNV-1a over 64-bit words: the hash behind both report identities.
struct ReportHash {
  uint64_t H = 1469598103934665603ull;
  void mix(uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  }
};

uint64_t reportKey(const ErrorReport &R) {
  ReportHash Hash;
  Hash.mix(static_cast<uint64_t>(R.Kind));
  for (const ReplayStep &S : R.Choices) {
    Hash.mix(static_cast<uint64_t>(S.K) + 1);
    Hash.mix(static_cast<uint64_t>(S.Value) + 0x9e3779b9ull);
  }
  return Hash.H;
}

/// Report identity under state caching: the same erroneous state can be
/// reached freshly along different choice sequences (by different workers,
/// or sequentially before its fingerprint lands in the cache), so reports
/// deduplicate by the state and the error details instead of by path.
uint64_t stateReportKey(const ErrorReport &R) {
  ReportHash Hash;
  Hash.mix(static_cast<uint64_t>(R.Kind));
  Hash.mix(R.StateFp);
  Hash.mix(static_cast<uint64_t>(R.Error.Kind));
  Hash.mix(static_cast<uint64_t>(R.Process) + 0x9e3779b9ull);
  Hash.mix(static_cast<uint64_t>(R.Loc.Line) << 32 |
           static_cast<uint64_t>(R.Loc.Column));
  return Hash.H;
}

void accumulate(SearchStats &Into, const SearchStats &From) {
  Into.Runs += From.Runs;
  Into.Transitions += From.Transitions;
  Into.TreeTransitions += From.TreeTransitions;
  Into.TransitionsReplayed += From.TransitionsReplayed;
  Into.TransitionsRestored += From.TransitionsRestored;
  Into.StatesVisited += From.StatesVisited;
  Into.Deadlocks += From.Deadlocks;
  Into.Terminations += From.Terminations;
  Into.AssertionViolations += From.AssertionViolations;
  Into.Divergences += From.Divergences;
  Into.RuntimeErrors += From.RuntimeErrors;
  Into.DepthLimitHits += From.DepthLimitHits;
  Into.SleepSetPrunes += From.SleepSetPrunes;
  Into.CacheHits += From.CacheHits;
  Into.CacheInserts += From.CacheInserts;
  Into.CacheSaturated += From.CacheSaturated;
  Into.ReportsDropped += From.ReportsDropped;
  Into.Steals += From.Steals;
  Into.Wakeups += From.Wakeups;
  Into.ArenaBytes += From.ArenaBytes;
  Into.PoolFresh += From.PoolFresh;
}

} // namespace

bool SearchDriver::donateOne(Explorer &Ex, ExploreScheduler &Sched, int W) {
  // Donate from the highest (closest to the work-item root) decision with
  // untried siblings: that is the largest parcel of remaining work, which
  // is what keeps skewed trees balanced. The donated option is taken from
  // the tail of the sibling range so the donor's own left-to-right DFS
  // order is unaffected.
  for (size_t I = Ex.Floor; I < Ex.Path.size(); ++I) {
    Explorer::Decision &D = Ex.Path[I];
    size_t End = D.ownedOptionEnd();
    if (D.Chosen + 1 >= End)
      continue;
    WorkItem Item;
    Item.FreshFrom = I;
    Item.Prefix.reserve(I + 1);
    for (size_t J = 0; J != I; ++J)
      Item.Prefix.push_back(Explorer::stepFor(Ex.Path[J], Ex.Path[J].Chosen));
    Item.Prefix.push_back(Explorer::stepFor(D, End - 1));
    // Ship the deepest checkpoint at or below the donation point: its
    // snapshot is the state before Path[Cursor] with the current choices
    // [0, Cursor), which are exactly the prefix steps just serialized
    // (Cursor <= I, and backtracking can only have changed choices at or
    // above the checkpoint's own cursor, which pops it first). The
    // receiver then replays Prefix[Cursor..] instead of the whole prefix.
    for (auto It = Ex.Ckpts.rbegin(); It != Ex.Ckpts.rend(); ++It) {
      if (It->Cursor > I)
        continue;
      if (It->Cursor > 0) {
        Item.HasSnap = true;
        Item.SnapCursor = It->Cursor;
        Item.SnapSleep = It->Sleep;
        // Checkpoints are trace-light; the receiver's trace is unrelated
        // to ours, so ship a full copy (valid here for the same reason the
        // checkpoint itself is: the prefix it covers is still in force).
        Item.Snap = Ex.Sys.materializeTrace(It->Snap);
      }
      break;
    }
    ++D.DonatedTail;
    // The parcel goes to the donor's own deque (a thief steals it from the
    // top) and exactly one parked worker is woken. A donation racing a
    // stop still lands on the deque: workers exit without claiming it, and
    // drainRemaining() hands it to the resume-prefix collector — the
    // subtree is reported as abandoned, never silently lost.
    Sched.donate(W, std::move(Item));
    return true;
  }
  return false;
}

void SearchDriver::driveExplorer(Explorer &Ex, ExploreScheduler *Sched,
                                int W) {
  // Donation throttling is demand-driven (Scheduler::wantDonation): a
  // parcel is shed only while more workers are parked than parcels are
  // queued. This supersedes the fixed DonateBackoff counter the old shared
  // work queue needed — that constant existed because every donation paid
  // a mutex round-trip and a broadcast wakeup, so donors had to ration
  // blindly. A donation now costs one lock-free deque push and at most one
  // targeted unpark, and the throttle reacts to actual demand: zero
  // donations while everyone is busy, immediate ones when a sibling
  // starves, with no tuning knob to mis-set.
  for (;;) {
    bool Continue = Ex.runOnce();
    if (Ex.countRun())
      Ex.requestStop();
    if (!Continue || Ex.stopRequested()) {
      // A cooperative stop cut this path short; remember the in-flight
      // choice prefix so an interrupted run can name its abandoned
      // subtrees (`replay:` resume lines).
      if (Ex.stopRequested())
        Ex.LastInFlight = Ex.currentChoices();
      return;
    }
    if (!Ex.backtrack())
      return;
    if (Sched && Sched->wantDonation())
      donateOne(Ex, *Sched, W);
  }
}

void SearchDriver::workerMain(Explorer &Ex, ExploreScheduler &Sched, int W) {
  WorkItem Item;
  while (Sched.next(W, Item)) {
    if (Item.HasSnap)
      Ex.beginSubtree(std::move(Item.Prefix), Item.FreshFrom,
                      std::move(Item.Snap), Item.SnapCursor,
                      std::move(Item.SnapSleep));
    else
      Ex.beginSubtree(std::move(Item.Prefix), Item.FreshFrom);
    driveExplorer(Ex, &Sched, W);
    // The parcel is retired whether its subtree was exhausted or abandoned
    // under a stop; the last retirement declares the run drained.
    Sched.finishItem();
    if (Ex.stopRequested()) {
      Sched.requestStop();
      break;
    }
  }
  // Scheduler traffic and allocator counters become part of this worker's
  // stats (and of the merged totals). Both are owner-written, so reading
  // them on the worker's own thread is race-free.
  const sched::WorkerCounters &C = Sched.counters(W);
  Ex.Stats.Steals = C.Steals;
  Ex.Stats.Wakeups = C.Wakeups;
  Ex.syncAllocStats();
}

void SearchDriver::merge(SearchResult &R, const Module &Mod, const Parts &Ps) {
  // Under caching the same erroneous state can be freshly reached along
  // different paths before its fingerprint lands in the table, so dedup by
  // state identity; otherwise the choice sequence is the identity.
  const bool ByState = R.Options.stateCacheEnabled();
  std::unordered_set<uint64_t> SeenReports;
  std::unordered_set<uint64_t> Covered; ///< Union of the parts' coverage.
  for (const std::unique_ptr<Explorer> &Ex : Ps) {
    R.Workers.push_back(Ex->Stats);
    accumulate(R.Stats, Ex->Stats);
    Covered.insert(Ex->CoveredOps.begin(), Ex->CoveredOps.end());
    for (ErrorReport &Rep : Ex->Reports) {
      uint64_t Key = ByState ? stateReportKey(Rep) : reportKey(Rep);
      if (!SeenReports.insert(Key).second)
        continue; // Same error reported twice — keep one.
      R.Reports.push_back(std::move(Rep));
    }
  }

  // Deterministic report order regardless of worker scheduling: shallow
  // errors first, ties broken by the replayable choice sequence.
  std::sort(R.Reports.begin(), R.Reports.end(),
            [](const ErrorReport &A, const ErrorReport &B) {
              if (A.Depth != B.Depth)
                return A.Depth < B.Depth;
              return replayToString(A.Choices) < replayToString(B.Choices);
            });
  if (R.Reports.size() > R.Options.MaxReports) {
    R.Stats.ReportsDropped += R.Reports.size() - R.Options.MaxReports;
    R.Reports.resize(R.Options.MaxReports);
  }

  uint64_t VisibleOps = 0;
  for (size_t P = 0, E = Mod.Procs.size(); P != E; ++P) {
    const ProcCfg &Proc = Mod.Procs[P];
    for (size_t I = 0, N = Proc.Nodes.size(); I != N; ++I) {
      if (!Proc.Nodes[I].isVisibleOp())
        continue;
      ++VisibleOps;
      uint64_t Key = (static_cast<uint64_t>(P) << 32) | I;
      if (!Covered.count(Key))
        R.Uncovered.push_back({Proc.Name, static_cast<NodeId>(I)});
    }
  }
  if (R.Options.TrackCoverage) {
    R.Stats.VisibleOpsTotal = VisibleOps;
    R.Stats.VisibleOpsCovered = Covered.size();
  }
}

void SearchDriver::collectResume(SearchResult &R, const Parts &Ps,
                                 std::vector<WorkItem> Unclaimed) {
  std::unordered_set<std::string> Seen;
  auto Add = [&](std::vector<ReplayStep> P) {
    if (P.empty())
      return;
    if (!Seen.insert(replayToString(P)).second)
      return;
    R.Resume.push_back(std::move(P));
  };
  for (const std::unique_ptr<Explorer> &Ex : Ps)
    Add(std::move(Ex->LastInFlight));
  for (WorkItem &I : Unclaimed)
    Add(std::move(I.Prefix));
  // Deepest abandoned path first; ties broken by the replay string so the
  // order is independent of worker scheduling.
  std::sort(R.Resume.begin(), R.Resume.end(),
            [](const std::vector<ReplayStep> &A,
               const std::vector<ReplayStep> &B) {
              if (A.size() != B.size())
                return A.size() > B.size();
              return replayToString(A) < replayToString(B);
            });
}

SearchResult SearchDriver::run(const Module &Mod, const SearchOptions &Options,
                               std::vector<Trace> *TraceSink,
                               size_t TraceCap) {
  const auto Begin = std::chrono::steady_clock::now();
  SearchResult R;
  // Normalize before building any explorer, so the options recorded in the
  // result describe the search that actually ran. Jobs == 0 means one
  // worker per hardware thread; the resolved count lands in R.Options (and
  // from there in the stats-json artifact).
  SearchOptions &Opts = R.Options;
  Opts = Options;
  if (Opts.Jobs == 0) {
    unsigned HW = std::thread::hardware_concurrency();
    Opts.Jobs = HW ? HW : 1;
    if (Opts.Jobs > 1024)
      Opts.Jobs = 1024; // validate()'s ceiling; absurd HW reports exist.
  }
  // Soundness, not a preference: a sleep set summarizes what *this path*
  // already covered, but a visited cache prunes across paths. A state
  // skipped here because of the sleep set would be cache-pruned at its
  // other arrivals and never explored at all.
  if (Opts.stateCacheEnabled())
    Opts.UseSleepSets = false;
  // Compile the bytecode once; every explorer shares the immutable module
  // while owning its own register file.
  if (Opts.Exec != ExecMode::Interp && !Opts.VmCode)
    Opts.VmCode = vm::compileModule(Mod);

  // One shared fingerprint table per run: every explorer consults the same
  // cache, so a state expanded anywhere is pruned everywhere.
  SharedSearchControl Control;
  std::unique_ptr<StateCache> Cache;
  if (Opts.stateCacheEnabled())
    Cache = std::make_unique<StateCache>(Opts.StateCacheBits);

  // Part 0 runs the DFS from the root: the whole search with Jobs <= 1,
  // else the seeding pass, followed by one explorer per worker thread.
  // Every explorer exists before the monitor starts, so the monitor reads
  // a fixed set of counter blocks.
  const int Jobs = Opts.Jobs > 1 ? static_cast<int>(Opts.Jobs) : 0;
  assert((!TraceSink || !Jobs) && "traces are collected by one explorer");
  std::unique_ptr<ExploreScheduler> Sched;
  if (Jobs)
    Sched = std::make_unique<ExploreScheduler>(Jobs);
  Parts Ps;
  std::vector<const SearchCounters *> Blocks;
  for (int I = 0; I <= Jobs; ++I) {
    Ps.push_back(std::make_unique<Explorer>(Mod, Opts, Control, Cache.get()));
    Blocks.push_back(&Ps.back()->Live);
  }
  // The monitor runs for the whole run — including the seeding pass, which
  // a time budget or Ctrl-C must also be able to interrupt.
  Monitor Mon(Opts, Control, Sched.get(), std::move(Blocks));
  Mon.start();

  // Phase 1 — the root explorer. As the seeding pass it expands the tree
  // to the split depth, collecting the frontier prefixes: it owns (counts,
  // reports) everything strictly above the frontier; each frontier node
  // and its subtree belong to the worker that claims the prefix.
  Explorer &Root = *Ps[0];
  Root.TraceSink = TraceSink;
  Root.TraceSinkCap = TraceCap;
  std::vector<std::vector<ReplayStep>> Frontier;
  if (Jobs) {
    Root.FrontierSink = &Frontier;
    Root.FrontierDepth = Opts.SplitDepth;
    if (Root.FrontierDepth == 0) {
      Root.FrontierDepth = 3;
      for (int J = 1; J < Jobs; J <<= 1)
        ++Root.FrontierDepth;
    }
  }
  driveExplorer(Root, nullptr, 0);
  Root.syncAllocStats();

  // Phase 2 — parallel subtree exhaustion with work stealing. The frontier
  // is dealt round-robin across the per-worker deques before any worker
  // thread starts, so everyone begins with local work and stealing only
  // kicks in once the initial shares go uneven.
  if (Jobs) {
    int Target = 0;
    for (std::vector<ReplayStep> &Prefix : Frontier) {
      WorkItem Item;
      Item.FreshFrom = Prefix.size(); // Replay of the prefix is never fresh.
      Item.Prefix = std::move(Prefix);
      Sched->seed(Target, std::move(Item));
      Target = (Target + 1) % Jobs;
    }
    if (Control.Stop.load(std::memory_order_acquire))
      Sched->requestStop(); // Budget/first error already hit while seeding.

    std::vector<std::thread> Threads;
    Threads.reserve(static_cast<size_t>(Jobs));
    for (int W = 0; W != Jobs; ++W) {
      Explorer *Ex = Ps[static_cast<size_t>(W) + 1].get();
      Threads.emplace_back([&Sched, W, Ex] { workerMain(*Ex, *Sched, W); });
    }
    for (std::thread &T : Threads)
      T.join();
  }
  Mon.stop();

  merge(R, Mod, Ps);
  R.Stats.Completed = !Control.Stop.load(std::memory_order_acquire);
  R.Stats.Interrupted = Mon.interrupted() && !R.Stats.Completed;
  SearchStats &S = R.Stats;
  S.StoppedAtFirstError =
      !S.Completed && Opts.StopOnFirstError &&
      (S.AssertionViolations || S.RuntimeErrors || S.Divergences ||
       (Opts.DeadlockIsError && S.Deadlocks));
  R.Stats.WallSeconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - Begin)
                            .count();
  if (!Jobs)
    R.Workers[0] = R.Stats; // The one part is the whole run.
  if (!R.Stats.Completed)
    collectResume(R, Ps, Sched ? Sched->drainRemaining()
                               : std::vector<WorkItem>());
  return R;
}

SearchResult closer::explore(const Module &Mod, const SearchOptions &Options) {
  return SearchDriver::run(Mod, Options, nullptr, 0);
}

std::vector<Trace> closer::collectTraces(const Module &Mod,
                                         SearchOptions Options,
                                         size_t MaxTraces) {
  Options.Jobs = 1; // One explorer: the cap keeps a DFS-order prefix.
  std::vector<Trace> Sink;
  // Collect with headroom, dedup below.
  SearchDriver::run(Mod, Options, &Sink, MaxTraces * 4);

  std::vector<Trace> Unique;
  std::unordered_set<std::string> Seen;
  for (Trace &T : Sink) {
    std::string Key = traceToString(T);
    if (Seen.insert(std::move(Key)).second) {
      Unique.push_back(std::move(T));
      if (Unique.size() >= MaxTraces)
        break;
    }
  }
  return Unique;
}
