//===- ParallelSearch.cpp - Work-sharing parallel stateless search ---------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "explorer/ParallelSearch.h"

#include "vm/Bytecode.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>
#include <unordered_set>

using namespace closer;

//===----------------------------------------------------------------------===//
// Monitor
//===----------------------------------------------------------------------===//

/// Observability sidecar thread: periodically sums the explorers'
/// worker-owned counter blocks for `--progress` lines, and raises the
/// cooperative stop flag when the wall-clock budget expires or an external
/// stop flag (SIGINT) is set. Workers are never blocked by it — they only
/// ever see relaxed atomic loads/stores.
class ParallelExplorer::Monitor {
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
// ParallelExplorer
//===----------------------------------------------------------------------===//

ParallelExplorer::ParallelExplorer(const Module &Mod, SearchOptions Options)
    : Mod(Mod), Options(std::move(Options)) {
  // Soundness, not a preference: a sleep set summarizes what *this path*
  // already covered, but a shared visited cache prunes across paths. A
  // state skipped here because of the sleep set would be cache-pruned at
  // its other arrivals and never explored at all.
  if (this->Options.stateCacheEnabled())
    this->Options.UseSleepSets = false;
}

ParallelExplorer::~ParallelExplorer() = default;

/// The replay step that selects option \p Option of decision \p D.
ReplayStep ParallelExplorer::stepFor(const Explorer::Decision &D,
                                     size_t Option) {
  ReplayStep S;
  switch (D.K) {
  case Explorer::Decision::Kind::Sched:
    S.K = ReplayStep::Kind::Sched;
    S.Value = D.Procs[Option];
    break;
  case Explorer::Decision::Kind::Toss:
    S.K = ReplayStep::Kind::Toss;
    S.Value = static_cast<int64_t>(Option);
    break;
  case Explorer::Decision::Kind::Env:
    S.K = ReplayStep::Kind::Env;
    S.Value = static_cast<int64_t>(Option);
    break;
  }
  return S;
}

namespace {

uint64_t reportKey(const ErrorReport &R) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  Mix(static_cast<uint64_t>(R.Kind));
  for (const ReplayStep &S : R.Choices) {
    Mix(static_cast<uint64_t>(S.K) + 1);
    Mix(static_cast<uint64_t>(S.Value) + 0x9e3779b9ull);
  }
  return H;
}

/// Report identity under state caching: the same erroneous state can be
/// reached freshly along different choice sequences (by different workers,
/// or sequentially before its fingerprint lands in the cache), so reports
/// deduplicate by the state and the error details instead of by path.
uint64_t stateReportKey(const ErrorReport &R) {
  uint64_t H = 1469598103934665603ull;
  auto Mix = [&H](uint64_t V) {
    H ^= V;
    H *= 1099511628211ull;
  };
  Mix(static_cast<uint64_t>(R.Kind));
  Mix(R.StateFp);
  Mix(static_cast<uint64_t>(R.Error.Kind));
  Mix(static_cast<uint64_t>(R.Process) + 0x9e3779b9ull);
  Mix(static_cast<uint64_t>(R.Loc.Line) << 32 |
      static_cast<uint64_t>(R.Loc.Column));
  return H;
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
  Into.HashPrunes += From.HashPrunes;
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

bool ParallelExplorer::donateOne(Explorer &Ex, ExploreScheduler &Sched,
                                 int W) {
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
      Item.Prefix.push_back(stepFor(Ex.Path[J], Ex.Path[J].Chosen));
    Item.Prefix.push_back(stepFor(D, End - 1));
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

void ParallelExplorer::driveExplorer(Explorer &Ex, ExploreScheduler *Sched,
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

void ParallelExplorer::workerMain(Explorer &Ex, ExploreScheduler &Sched,
                                  int W) {
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

void ParallelExplorer::mergeResults(const std::vector<Explorer *> &Parts) {
  Stats = SearchStats();
  Reports.clear();
  Covered.clear();
  PerWorker.clear();

  // Under caching the same erroneous state can be freshly reached along
  // different paths before its fingerprint lands in the table, so dedup by
  // state identity; otherwise the choice sequence is the identity.
  const bool ByState = Options.stateCacheEnabled();
  std::unordered_set<uint64_t> SeenReports;
  for (Explorer *Ex : Parts) {
    PerWorker.push_back(Ex->Stats);
    accumulate(Stats, Ex->Stats);
    Covered.insert(Ex->CoveredOps.begin(), Ex->CoveredOps.end());
    for (ErrorReport &R : Ex->Reports) {
      uint64_t Key = ByState ? stateReportKey(R) : reportKey(R);
      if (!SeenReports.insert(Key).second)
        continue; // Same error reported twice — keep one.
      Reports.push_back(std::move(R));
    }
  }

  // Deterministic report order regardless of worker scheduling: shallow
  // errors first, ties broken by the replayable choice sequence.
  std::sort(Reports.begin(), Reports.end(),
            [](const ErrorReport &A, const ErrorReport &B) {
              if (A.Depth != B.Depth)
                return A.Depth < B.Depth;
              return replayToString(A.Choices) < replayToString(B.Choices);
            });
  if (Reports.size() > Options.MaxReports) {
    Stats.ReportsDropped += Reports.size() - Options.MaxReports;
    Reports.resize(Options.MaxReports);
  }

  if (Options.TrackCoverage) {
    for (const ProcCfg &Proc : Mod.Procs)
      for (const CfgNode &Node : Proc.Nodes)
        Stats.VisibleOpsTotal += Node.isVisibleOp();
    Stats.VisibleOpsCovered = Covered.size();
  }
}

void ParallelExplorer::collectResume(
    std::vector<std::vector<ReplayStep>> InFlight,
    std::vector<WorkItem> Unclaimed) {
  Resume.clear();
  std::unordered_set<std::string> Seen;
  auto Add = [&](std::vector<ReplayStep> P) {
    if (P.empty())
      return;
    if (!Seen.insert(replayToString(P)).second)
      return;
    Resume.push_back(std::move(P));
  };
  for (std::vector<ReplayStep> &P : InFlight)
    Add(std::move(P));
  for (WorkItem &I : Unclaimed)
    Add(std::move(I.Prefix));
  // Deepest abandoned path first; ties broken by the replay string so the
  // order is independent of worker scheduling.
  std::sort(Resume.begin(), Resume.end(),
            [](const std::vector<ReplayStep> &A,
               const std::vector<ReplayStep> &B) {
              if (A.size() != B.size())
                return A.size() > B.size();
              return replayToString(A) < replayToString(B);
            });
}

SearchStats ParallelExplorer::run() {
  const auto Begin = std::chrono::steady_clock::now();
  auto Elapsed = [&Begin] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Begin)
        .count();
  };
  Resume.clear();

  // One shared fingerprint table per run: every explorer (the sequential
  // one, the seeder, and all workers) consults the same cache, so a state
  // expanded anywhere is pruned everywhere. Rebuilt fresh each run —
  // stale fingerprints from a previous run would prune unsoundly.
  Cache.reset();
  if (Options.stateCacheEnabled())
    Cache = std::make_unique<StateCache>(Options.effectiveStateCacheBits());

  Control.reset();

  if (Options.Jobs <= 1) {
    Explorer Ex(Mod, Options);
    Ex.Cache = Cache.get();
    Ex.Shared = &Control;
    Monitor Mon(Options, Control, nullptr, {&Ex.Live});
    Mon.start();
    Ex.run();
    Mon.stop();
    std::vector<Explorer *> Parts{&Ex};
    mergeResults(Parts);
    Stats.Completed = Ex.stats().Completed;
    // mergeResults re-derives coverage; keep the sequential run's numbers.
    Stats.VisibleOpsTotal = Ex.stats().VisibleOpsTotal;
    Stats.VisibleOpsCovered = Ex.stats().VisibleOpsCovered;
    Stats.Interrupted = Mon.interrupted() && !Stats.Completed;
    Stats.WallSeconds = Elapsed();
    if (!Stats.Completed)
      collectResume({Ex.LastInFlight}, {});
    return Stats;
  }

  const int Jobs = static_cast<int>(Options.Jobs);
  ExploreScheduler Sched(Jobs);
  // Every explorer of the run exists before the monitor starts, so the
  // monitor reads a fixed set of counter blocks.
  Explorer Seeder(Mod, Options);
  std::vector<std::unique_ptr<Explorer>> Workers;
  Workers.reserve(static_cast<size_t>(Jobs));
  for (int W = 0; W != Jobs; ++W)
    Workers.push_back(std::make_unique<Explorer>(Mod, Options));
  std::vector<Explorer *> Parts{&Seeder};
  std::vector<const SearchCounters *> Blocks;
  for (std::unique_ptr<Explorer> &W : Workers)
    Parts.push_back(W.get());
  for (Explorer *Ex : Parts) {
    Ex->Cache = Cache.get();
    Ex->Shared = &Control;
    Blocks.push_back(&Ex->Live);
  }
  // The monitor runs for the whole run — including the sequential seeding
  // phase, which a time budget or Ctrl-C must also be able to interrupt.
  Monitor Mon(Options, Control, &Sched, std::move(Blocks));
  Mon.start();

  // Phase 1 — sequential seeding: expand the tree to the split depth,
  // collecting the frontier prefixes. The seeder owns (counts, reports)
  // everything strictly above the frontier; each frontier node and its
  // subtree belong to the worker that claims the prefix.
  size_t SplitDepth = Options.SplitDepth;
  if (SplitDepth == 0) {
    SplitDepth = 3;
    for (size_t J = 1; J < Options.Jobs; J <<= 1)
      ++SplitDepth;
  }

  std::vector<std::vector<ReplayStep>> Frontier;
  Seeder.FrontierSink = &Frontier;
  Seeder.FrontierDepth = SplitDepth;
  driveExplorer(Seeder, nullptr, 0);
  Seeder.FrontierSink = nullptr;
  Seeder.syncAllocStats();

  // Phase 2 — parallel subtree exhaustion with work stealing. The frontier
  // is dealt round-robin across the per-worker deques before any worker
  // thread starts, so everyone begins with local work and stealing only
  // kicks in once the initial shares go uneven.
  {
    int Target = 0;
    for (std::vector<ReplayStep> &Prefix : Frontier) {
      WorkItem Item;
      Item.FreshFrom = Prefix.size(); // Replay of the prefix is never fresh.
      Item.Prefix = std::move(Prefix);
      Sched.seed(Target, std::move(Item));
      Target = (Target + 1) % Jobs;
    }
  }

  if (Control.Stop.load(std::memory_order_acquire))
    Sched.requestStop(); // Budget/first error already hit while seeding.

  {
    std::vector<std::thread> Threads;
    Threads.reserve(static_cast<size_t>(Jobs));
    for (int W = 0; W != Jobs; ++W)
      Threads.emplace_back(
          [this, &Sched, W, Ex = Workers[static_cast<size_t>(W)].get()] {
            workerMain(*Ex, Sched, W);
          });
    for (std::thread &T : Threads)
      T.join();
  }

  Mon.stop();

  mergeResults(Parts);
  Stats.Completed = !Control.Stop.load(std::memory_order_acquire);
  Stats.Interrupted = Mon.interrupted() && !Stats.Completed;
  Stats.WallSeconds = Elapsed();
  if (!Stats.Completed) {
    std::vector<std::vector<ReplayStep>> InFlight;
    for (Explorer *Ex : Parts)
      InFlight.push_back(std::move(Ex->LastInFlight));
    collectResume(std::move(InFlight), Sched.drainRemaining());
  }
  return Stats;
}

//===----------------------------------------------------------------------===//
// closer::explore — the one search entry point
//===----------------------------------------------------------------------===//

SearchResult closer::explore(const Module &Mod, const SearchOptions &Options) {
  SearchOptions Opts = Options;
  // Normalize before constructing the backend so the options recorded in
  // the result describe the search that actually ran. Jobs == 0 means one
  // worker per hardware thread; the resolved count lands in
  // SearchResult::Options (and from there in the stats-json artifact).
  if (Opts.Jobs == 0) {
    unsigned HW = std::thread::hardware_concurrency();
    Opts.Jobs = HW ? HW : 1;
    if (Opts.Jobs > 1024)
      Opts.Jobs = 1024; // validate()'s ceiling; absurd HW reports exist.
  }
  if (Opts.stateCacheEnabled()) {
    Opts.UseSleepSets = false; // Unsound with a cross-path visited cache.
    // Fold the deprecated boolean alias into the explicit bit count.
    Opts.StateCacheBits = Opts.effectiveStateCacheBits();
    Opts.UseStateHashing = true;
  }
  // Compile the bytecode once; the seeder and every worker share the
  // immutable module while owning their own register files.
  if (Opts.Exec != ExecMode::Interp && !Opts.VmCode)
    Opts.VmCode = vm::compileModule(Mod);

  ParallelExplorer Ex(Mod, Opts);
  SearchResult R;
  R.Options = std::move(Opts);
  R.Stats = Ex.run();
  R.Reports = Ex.reports();
  R.Workers = Ex.workerStats();
  R.Resume = Ex.resumePrefixes();
  R.Uncovered = Ex.uncoveredVisibleOps();
  return R;
}

std::vector<std::pair<std::string, NodeId>>
ParallelExplorer::uncoveredVisibleOps() const {
  std::vector<std::pair<std::string, NodeId>> Out;
  for (size_t P = 0, E = Mod.Procs.size(); P != E; ++P) {
    const ProcCfg &Proc = Mod.Procs[P];
    for (size_t I = 0, N = Proc.Nodes.size(); I != N; ++I) {
      if (!Proc.Nodes[I].isVisibleOp())
        continue;
      uint64_t Key = (static_cast<uint64_t>(P) << 32) | I;
      if (!Covered.count(Key))
        Out.push_back({Proc.Name, static_cast<NodeId>(I)});
    }
  }
  return Out;
}
