//===- Workloads.cpp - The benchmark's workloads --------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "BenchUtil.h"
#include "Checks.h"
#include "Layers.h"

#include "cfg/CfgPrinter.h"
#include "closing/Pipeline.h"
#include "explorer/Search.h"
#include "support/CorpusGen.h"
#include "support/Random.h"
#include "switchapp/SwitchApp.h"

#include <algorithm>
#include <chrono>

using namespace closer;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

double ratio(double A, double B) { return B > 0 ? A / B : 0; }

double lowest(const std::vector<double> &V) {
  return *std::min_element(V.begin(), V.end());
}

double mean(const std::vector<double> &V) {
  double S = 0;
  for (double X : V)
    S += X;
  return ratio(S, static_cast<double>(V.size()));
}

/// Set-up is repeated and its median reported, so one cold start does not
/// decide setup_s. Each repetition rebuilds every input from scratch.
constexpr int SetupRepeats = 9;

/// Sampled global states per traced explore workload.
constexpr uint64_t SampledStates = 10000;

/// Runs \p Setup SetupRepeats times into \p Seconds; stops at the first
/// failure and returns its reason.
template <class F>
std::string timedSetups(std::vector<double> &Seconds, F &&Setup) {
  for (int I = 0; I != SetupRepeats; ++I) {
    auto T0 = Clock::now();
    std::string Err = Setup();
    Seconds.push_back(since(T0));
    if (!Err.empty())
      return Err;
  }
  return "";
}

/// Compiles \p Source with the default closing pipeline.
std::unique_ptr<Module> closedModule(const std::string &Source,
                                     std::string &Err) {
  CompileResult R = compile(Source);
  if (!R.ok()) {
    Err = "compile failed:\n" + R.Diags.str();
    return nullptr;
  }
  return std::move(R.M);
}

//===----------------------------------------------------------------------===//
// Per-layer metric groups. Every traced run sets every group; a layer that
// is not on the workload's timed path reads 0, except that explore_grid's
// traced run measures the explorer layers the grid bypasses on switch-app
// verdicts (setVerdictLayers).
//===----------------------------------------------------------------------===//

/// Closing-side layers from \p P, summed over \p Calls profiled closes
/// whose untraced counterparts took \p Wall seconds each on average. The
/// IR-size counts are means per closed module. Null \p P: not on the path.
double setCloseLayers(Result &Out, const CloseProfile *P, int Calls,
                      double Wall) {
  CloseProfile Z;
  const CloseProfile &C = P ? *P : Z;
  auto PerNode = [&C](double S) { return ratio(S * 1e9, C.Nodes); };
  auto PerUnit = [&C](double S) { return ratio(S * 1e9, C.units()); };
  Out.set("lang.parse_ns_per_node", PerNode(C.Parse));
  Out.set("lang.sema_ns_per_node", PerNode(C.Sema));
  Out.set("cfg.lower_ns_per_node", PerNode(C.Lower));
  Out.set("cfg.verify_ns_per_node", PerNode(C.Verify));
  Out.set("dataflow.alias_ns_per_unit", PerUnit(C.Alias));
  Out.set("dataflow.defuse_ns_per_unit", PerUnit(C.DefUse));
  Out.set("dataflow.taint_ns_per_unit", PerUnit(C.Taint));
  Out.set("closing.close_ns_per_unit", PerUnit(C.Close));
  Out.set("closing.emit_ns_per_node", ratio(C.Emit * 1e9, C.NodesAfter));
  Out.set("dataflow.du_arcs", ratio(C.DuArcs, Calls));
  Out.set("closing.nodes_after", ratio(C.NodesAfter, Calls));
  Out.set("closing.toss_nodes", ratio(C.TossNodes, Calls));
  double Share = ratio(C.layers(), Wall * Calls);
  Out.set("closing.pipeline_share", Share);
  return Share;
}

/// explore() results of the traced run, averaged per operation.
struct ExploreCounts {
  double Transitions = 0, Tree = 0, Replayed = 0, Runs = 0, States = 0,
         CacheHits = 0, CacheInserts = 0, CacheSaturated = 0,
         SleepPrunes = 0, Expanded = 0, Reports = 0, PoolFresh = 0,
         ArenaBytes = 0, Steals = 0, Wakeups = 0, Imbalance = 0;
};

ExploreCounts meanCounts(const std::vector<SearchResult> &Runs) {
  ExploreCounts C;
  for (const SearchResult &R : Runs) {
    const SearchStats &S = R.Stats;
    C.Transitions += S.Transitions;
    C.Tree += S.TreeTransitions;
    C.Replayed += S.TransitionsReplayed;
    C.Runs += S.Runs;
    C.States += S.StatesVisited;
    C.CacheHits += S.CacheHits;
    C.CacheInserts += S.CacheInserts;
    C.CacheSaturated += S.CacheSaturated;
    C.SleepPrunes += S.SleepSetPrunes;
    // States whose candidate set was computed (schedCandidatesInto): every
    // fresh arrival that is not a leaf for another reason.
    C.Expanded += static_cast<double>(S.StatesVisited) -
                  static_cast<double>(S.CacheHits + S.Deadlocks +
                                      S.Terminations + S.DepthLimitHits);
    C.Reports += R.Reports.size();
    C.PoolFresh += S.PoolFresh;
    C.ArenaBytes += S.ArenaBytes;
    C.Steals += S.Steals;
    C.Wakeups += S.Wakeups;
    // Workers[0] is the seeding pass; the rest are the worker threads.
    if (R.Workers.size() > 2) {
      double Max = 0, Sum = 0;
      for (size_t W = 1; W != R.Workers.size(); ++W) {
        double N = static_cast<double>(R.Workers[W].StatesVisited);
        Max = std::max(Max, N);
        Sum += N;
      }
      C.Imbalance += ratio(Max, Sum / (R.Workers.size() - 1));
    }
  }
  double N = static_cast<double>(Runs.size());
  for (double *F :
       {&C.Transitions, &C.Tree, &C.Replayed, &C.Runs, &C.States,
        &C.CacheHits, &C.CacheInserts, &C.CacheSaturated, &C.SleepPrunes,
        &C.Expanded, &C.Reports, &C.PoolFresh, &C.ArenaBytes, &C.Steals,
        &C.Wakeups, &C.Imbalance})
    *F = ratio(*F, N);
  return C;
}

/// Explore-side layers: per-call times from \p T, and each layer's share
/// of the worker time (wall x jobs) of one operation, estimated as
/// per-call time x call count. How SearchStats counts map to calls:
///
///   transition (interp or vm)  Transitions (every executed transition)
///   snapshot                   Transitions / CheckpointInterval (one
///                              snapshot per K executed states)
///   restore                    Runs (each path after the first restores
///                              its deepest surviving checkpoint)
///   fingerprint                CacheHits + CacheInserts + CacheSaturated
///                              (one per fresh arrival) + Reports
///   cache insert               CacheInserts + CacheSaturated first-time
///                              inserts, CacheHits repeat inserts
///   footprint                  Expanded x processes (the persistent-set
///                              computation at every expanded state)
///
/// Null \p T: the explorer is not on the path. Returns the summed share.
double setExploreLayers(Result &Out, const ExploreLayerTimes *T,
                        const SearchOptions &Opts, const ExploreCounts &C,
                        double OpWall, int Processes) {
  ExploreLayerTimes Z;
  const ExploreLayerTimes &L = T ? *T : Z;
  const bool Vm = Opts.Exec == ExecMode::Vm;
  const bool Cached = Opts.stateCacheEnabled();
  const bool Por = Opts.UsePersistentSets && Processes > 1;
  const double K = static_cast<double>(Opts.CheckpointInterval);
  const double Fresh = C.CacheHits + C.CacheInserts + C.CacheSaturated;
  const double HitRatio = ratio(C.CacheHits, Fresh);
  const double CacheNs = Cached ? (1 - HitRatio) * L.CacheInsertNs +
                                      HitRatio * L.CacheHitNs
                                : 0;

  Out.set("runtime.snapshot_ns", K > 0 ? L.SnapshotNs : 0);
  Out.set("runtime.restore_ns", K > 0 ? L.RestoreNs : 0);
  Out.set("runtime.fingerprint_ns", L.FingerprintNs);
  Out.set("runtime.interp_ns_per_transition", Vm ? 0 : L.InterpNs);
  Out.set("vm.ns_per_transition", Vm ? L.VmNs : 0);
  Out.set("explorer.cache_insert_ns", CacheNs);
  Out.set("explorer.footprint_ns", Por ? L.FootprintNs : 0);

  const double WorkerNs = OpWall * 1e9 * static_cast<double>(Opts.Jobs);
  const double Eval = (Vm ? L.VmNs : L.InterpNs) * C.Transitions;
  const double Snapshot = K > 0 ? L.SnapshotNs * C.Transitions / K : 0;
  const double Restore = K > 0 ? L.RestoreNs * C.Runs : 0;
  const double Fingerprint = L.FingerprintNs * (Fresh + C.Reports);
  const double Cache = CacheNs * Fresh;
  const double Footprint = Por ? L.FootprintNs * Processes * C.Expanded : 0;
  Out.set("runtime.eval_share", ratio(Eval, WorkerNs));
  Out.set("runtime.snapshot_share", ratio(Snapshot, WorkerNs));
  Out.set("runtime.restore_share", ratio(Restore, WorkerNs));
  Out.set("runtime.fingerprint_share", ratio(Fingerprint, WorkerNs));
  Out.set("explorer.cache_share", ratio(Cache, WorkerNs));
  Out.set("explorer.footprint_share", ratio(Footprint, WorkerNs));

  Out.set("explorer.cache_hit_ratio", HitRatio);
  Out.set("explorer.sleep_prune_ratio", ratio(C.SleepPrunes, C.States));
  Out.set("explorer.replayed_per_tree_transition", ratio(C.Replayed, C.Tree));
  Out.set("explorer.states_to_verdict", C.States);
  Out.set("support.pool_fresh", C.PoolFresh);
  Out.set("support.arena_bytes", C.ArenaBytes);
  return ratio(Eval + Snapshot + Restore + Fingerprint + Cache + Footprint,
               WorkerNs);
}

/// The layers the grid bypasses, from switch-app verdicts: POR footprints
/// (the verdict's worker time is its wall time, one job), the VM, sleep
/// sets and stateless replay. Overwrites what setExploreLayers() set.
void setVerdictLayers(Result &Out, const ExploreLayerTimes &T,
                      const ExploreCounts &C, double VerdictWall,
                      int Processes) {
  Out.set("vm.ns_per_transition", T.VmNs);
  Out.set("explorer.footprint_ns", T.FootprintNs);
  Out.set("explorer.footprint_share",
          ratio(T.FootprintNs * Processes * C.Expanded, VerdictWall * 1e9));
  Out.set("explorer.sleep_prune_ratio", ratio(C.SleepPrunes, C.States));
  Out.set("explorer.replayed_per_tree_transition", ratio(C.Replayed, C.Tree));
  Out.set("explorer.states_to_verdict", C.States);
}

/// Scheduler layer; \p Speedup 0 when no j1 reference was run.
void setSchedLayers(Result &Out, double Speedup, const ExploreCounts &C) {
  Out.set("sched.speedup", Speedup);
  Out.set("sched.steals", C.Steals);
  Out.set("sched.wakeups", C.Wakeups);
  Out.set("sched.worker_imbalance", C.Imbalance);
}

//===----------------------------------------------------------------------===//
// close_corpus
//===----------------------------------------------------------------------===//

/// Procedures x statements-per-procedure of the batch's modules: about
/// 10k..75k CFG nodes. An odd count keeps the median module well defined.
constexpr int CorpusLadder[] = {96, 120, 144, 168, 192, 224, 256};

std::vector<std::string> corpusBatch(uint64_t Seed) {
  Rng R(Seed);
  std::vector<std::string> Batch;
  for (int Side : CorpusLadder) {
    CorpusConfig C;
    C.Procs = Side;
    C.StmtsPerProc = Side;
    C.Seed = R.next();
    Batch.push_back(generateCorpusSource(C));
  }
  return Batch;
}

struct CloseOp {
  double Seconds = 0;
  uint64_t Nodes = 0;
  std::string Emitted;
  std::string Error;
};

/// One user-visible close, as `closer close` runs it: compile() with the
/// default pipeline, then emitModuleSource(). Destroying the result is
/// part of the cost.
CloseOp closeOne(const std::string &Source) {
  CloseOp Op;
  auto T0 = Clock::now();
  {
    CompileResult R = compile(Source);
    if (R.ok()) {
      Op.Emitted = emitModuleSource(*R.M);
      Op.Nodes = R.Closing.NodesBefore;
    } else {
      Op.Error = "compile failed:\n" + R.Diags.str();
    }
  }
  Op.Seconds = since(T0);
  return Op;
}

std::string checkCloseOp(const CloseOp &Op) {
  return Op.Error.empty() ? checkClosedSource(Op.Emitted) : Op.Error;
}

std::string runCloseCorpus(const RunOptions &O, Result &Out) {
  std::vector<std::string> Batch;
  std::vector<double> Setups;
  std::string Err = timedSetups(Setups, [&] {
    Batch = corpusBatch(O.Seed);
    return closeOne(Batch.front()).Error;
  });
  if (!Err.empty())
    return Err;

  auto Start = Clock::now();
  if (!O.Trace) {
    // Whole batches only, so every module weighs the same in the medians.
    std::vector<double> BatchSeconds, BatchRates, Peaks;
    do {
      double Seconds = 0, Nodes = 0;
      resetPeakRss();
      for (const std::string &Source : Batch) {
        CloseOp Op = closeOne(Source);
        Out.check(checkCloseOp(Op));
        Seconds += Op.Seconds;
        Nodes += static_cast<double>(Op.Nodes);
      }
      BatchSeconds.push_back(Seconds);
      BatchRates.push_back(ratio(Nodes, Seconds));
      // Per batch, not per module: the heap a larger module leaves behind
      // would otherwise set the next module's reading. The lowest batch
      // peak is reported: the same batch peaks at about 181 or 196 MB from
      // one batch to the next, with the heap layout the earlier batches
      // left, even after malloc_trim().
      Peaks.push_back(peakRssMb());
    } while (since(Start) < O.Seconds);
    Out.setMedian("setup_s", Setups);
    Out.setMedian("work_per_s", BatchRates);
    Out.setMedian("op_s", BatchSeconds);
    Out.setDerived("peak_rss_mb", lowest(Peaks), Peaks);
    return "";
  }

  // Traced: each module is closed once through the facade (untraced) and
  // once stage by stage (traced); both must emit the same text.
  CloseProfile Sum;
  double Untraced = 0, Traced = 0;
  int Calls = 0;
  do {
    for (const std::string &Source : Batch) {
      CloseOp Op = closeOne(Source);
      Out.check(checkCloseOp(Op));
      Untraced += Op.Seconds;
      CloseProfile P;
      std::string Emitted;
      auto T0 = Clock::now();
      std::string PErr = profileClose(Source, P, Emitted);
      Traced += since(T0);
      if (PErr.empty() && Emitted != Op.Emitted)
        PErr = "stage-by-stage close emitted different text than compile()";
      Out.check(PErr);
      Sum.add(P);
      ++Calls;
    }
  } while (since(Start) < O.Seconds);
  double Covered = setCloseLayers(Out, &Sum, Calls, Untraced / Calls);
  setExploreLayers(Out, nullptr, SearchOptions(), ExploreCounts(), 0, 0);
  setSchedLayers(Out, 0, ExploreCounts());
  Out.set("trace.overhead_share", ratio(Traced - Untraced, Untraced));
  Out.set("trace.unattributed_share", 1 - Covered);
  return "";
}

//===----------------------------------------------------------------------===//
// The switch-app verdict (switchapp_bug, and explore_grid's traced run)
//===----------------------------------------------------------------------===//

SwitchAppConfig switchAppConfig() {
  SwitchAppConfig C;
  C.NumLines = 2;
  C.NumTrunks = 1;
  C.EventsPerLine = 2;
  C.HandlerVariants = 1;
  C.WithRegistration = true;
  C.WithHandoff = true;
  C.WithForwarding = true;
  C.SeedTrunkLeakBug = true;
  return C;
}

/// `closer explore --stop-on-error --exec vm` with the CLI's defaults:
/// depth 60, 1M runs, persistent + sleep sets, checkpoint interval 8, one
/// job, no state cache.
SearchOptions switchAppOptions() {
  SearchOptions Opts;
  Opts.MaxDepth = 60;
  Opts.MaxRuns = 1000000;
  Opts.CheckpointInterval = 8;
  Opts.Jobs = 1;
  Opts.StopOnFirstError = true;
  Opts.Exec = ExecMode::Vm;
  return Opts;
}

struct VerdictOp {
  double CompileSeconds = 0, ExploreSeconds = 0;
  std::unique_ptr<Module> Closed;
  SearchResult R;
  std::string Error;
};

/// Source text -> compile() -> explore() to the first deadlock, as
/// `closer explore` runs it (explore() lowers the bytecode itself).
VerdictOp verdict(const std::string &Source) {
  VerdictOp Op;
  auto T0 = Clock::now();
  Op.Closed = closedModule(Source, Op.Error);
  Op.CompileSeconds = since(T0);
  if (!Op.Closed)
    return Op;
  auto T1 = Clock::now();
  Op.R = explore(*Op.Closed, switchAppOptions());
  Op.ExploreSeconds = since(T1);
  return Op;
}

//===----------------------------------------------------------------------===//
// explore_grid
//===----------------------------------------------------------------------===//

constexpr int GridIters = 512;
/// 2^23 slots hold the grid's (2*512+1)^2 = 1,050,625 states at 12.5% load,
/// so the run completes unsaturated.
constexpr unsigned GridCacheBits = 23;
constexpr int WarmGridIters = 128;
/// Switch-app verdicts behind the grid's traced POR/VM/replay layers.
constexpr int TracedVerdicts = 2;

SearchOptions gridOptions(unsigned Jobs) {
  SearchOptions Opts;
  Opts.MaxDepth = uint64_t(1) << 24;
  Opts.MaxRuns = 0;
  Opts.UsePersistentSets = false;
  Opts.UseSleepSets = false;
  Opts.CheckpointInterval = 8;
  Opts.StateCacheBits = GridCacheBits;
  Opts.Jobs = Jobs;
  Opts.Exec = ExecMode::Interp;
  return Opts;
}

std::string runExploreGrid(const RunOptions &O, Result &Out) {
  std::unique_ptr<Module> Grid;
  const SearchOptions Opts = gridOptions(O.Threads);
  std::vector<double> Setups;
  std::string Err = timedSetups(Setups, [&] {
    std::string E;
    Grid = closedModule(semGridProgram(GridIters), E);
    std::unique_ptr<Module> Warm =
        Grid ? closedModule(semGridProgram(WarmGridIters), E) : nullptr;
    if (!Warm)
      return E;
    return checkGridRun(explore(*Warm, Opts), WarmGridIters);
  });
  if (!Err.empty())
    return Err;

  auto Start = Clock::now();
  std::vector<double> OpSeconds, Rates, Peaks;
  std::vector<SearchResult> Runs;
  // The traced run spends half its time on untraced operations, the rest
  // on the j1 reference and the sampled replay.
  const double OpBudget = O.Trace ? O.Seconds / 2 : O.Seconds;
  do {
    resetPeakRss();
    auto T0 = Clock::now();
    SearchResult R = explore(*Grid, Opts);
    double Seconds = since(T0);
    Peaks.push_back(peakRssMb());
    Out.check(checkGridRun(R, GridIters));
    OpSeconds.push_back(Seconds);
    Rates.push_back(ratio(static_cast<double>(R.Stats.StatesVisited),
                          Seconds));
    if (O.Trace)
      Runs.push_back(std::move(R));
  } while (since(Start) < OpBudget);

  if (!O.Trace) {
    Out.setMedian("setup_s", Setups);
    Out.setMedian("work_per_s", Rates);
    Out.setMedian("op_s", OpSeconds);
    Out.setMedian("peak_rss_mb", Peaks);
    return "";
  }

  auto T0 = Clock::now();
  SearchResult J1 = explore(*Grid, gridOptions(1));
  double J1Seconds = since(T0);
  Out.check(checkGridRun(J1, GridIters));

  ExploreSampleOptions SO;
  SO.Seed = O.Seed;
  SO.States = SampledStates;
  SO.MaxDepth = Opts.MaxDepth;
  SO.CacheBits = GridCacheBits;
  ExploreLayerTimes Times = sampleExploreLayers(*Grid, nullptr, SO);

  ExploreCounts C = meanCounts(Runs);
  double OpWall = mean(OpSeconds);
  setCloseLayers(Out, nullptr, 0, 0);
  double Covered = setExploreLayers(Out, &Times, Opts, C, OpWall,
                                    static_cast<int>(Grid->Processes.size()));
  setSchedLayers(Out, ratio(J1Seconds, median(OpSeconds)), C);
  Out.set("trace.overhead_share", ratio(Times.WallSeconds, OpWall));
  Out.set("trace.unattributed_share", 1 - Covered);

  // The grid bypasses POR, the VM, sleep sets and long replays; the switch
  // app's verdict puts them on its path, so they are measured there.
  const std::string Source = generateSwitchAppSource(switchAppConfig());
  std::vector<SearchResult> Verdicts;
  std::unique_ptr<Module> Closed;
  double VerdictSeconds = 0;
  for (int I = 0; I != TracedVerdicts; ++I) {
    VerdictOp V = verdict(Source);
    if (!V.Closed)
      return V.Error;
    Out.check(checkDeadlockReport(*V.Closed, V.R));
    VerdictSeconds += V.CompileSeconds + V.ExploreSeconds;
    Verdicts.push_back(std::move(V.R));
    Closed = std::move(V.Closed);
  }
  ExploreSampleOptions VO;
  VO.Seed = O.Seed;
  VO.States = SampledStates;
  VO.MaxDepth = switchAppOptions().MaxDepth;
  setVerdictLayers(Out, sampleExploreLayers(*Closed, nullptr, VO),
                   meanCounts(Verdicts), VerdictSeconds / TracedVerdicts,
                   static_cast<int>(Closed->Processes.size()));
  return "";
}

//===----------------------------------------------------------------------===//
// switchapp_bug
//===----------------------------------------------------------------------===//

std::string runSwitchAppBug(const RunOptions &O, Result &Out) {
  std::string Source;
  std::vector<double> Setups;
  std::string Err = timedSetups(Setups, [&] {
    Source = generateSwitchAppSource(switchAppConfig());
    PipelineOptions PO;
    PO.Passes = {"close", "lower-bytecode"};
    CompileResult C = compile(Source, PO);
    if (!C.ok())
      return "compile failed:\n" + C.Diags.str();
    SearchOptions Warm = switchAppOptions();
    Warm.MaxStates = 200000;
    Warm.VmCode = C.Bytecode;
    explore(*C.M, Warm);
    return std::string();
  });
  if (!Err.empty())
    return Err;

  auto Start = Clock::now();
  std::vector<double> OpSeconds, Rates, Peaks;
  std::vector<SearchResult> Runs;
  std::unique_ptr<Module> Closed;
  const double OpBudget = O.Trace ? O.Seconds / 2 : O.Seconds;
  do {
    resetPeakRss();
    VerdictOp Op = verdict(Source);
    Peaks.push_back(peakRssMb());
    Out.check(Op.Error.empty() ? checkDeadlockReport(*Op.Closed, Op.R)
                               : Op.Error);
    OpSeconds.push_back(Op.CompileSeconds + Op.ExploreSeconds);
    Rates.push_back(ratio(static_cast<double>(Op.R.Stats.StatesVisited),
                          Op.ExploreSeconds));
    if (O.Trace) {
      Runs.push_back(std::move(Op.R));
      Closed = std::move(Op.Closed);
    }
  } while (since(Start) < OpBudget);

  if (!O.Trace) {
    Out.setMedian("setup_s", Setups);
    Out.setMedian("work_per_s", Rates);
    Out.setMedian("op_s", OpSeconds);
    Out.setMedian("peak_rss_mb", Peaks);
    return "";
  }
  if (!Closed)
    return "switch app did not compile";

  // Closing layers: the compile() half of every verdict.
  constexpr int Profiles = 5;
  CloseProfile Sum;
  auto T0 = Clock::now();
  for (int I = 0; I != Profiles; ++I) {
    CloseProfile P;
    std::string Emitted;
    Out.check(profileClose(Source, P, Emitted));
    Sum.add(P);
  }
  double ProfileSeconds = since(T0) / Profiles;

  ExploreSampleOptions SO;
  SO.Seed = O.Seed;
  SO.States = SampledStates;
  SO.MaxDepth = switchAppOptions().MaxDepth;
  ExploreLayerTimes Times = sampleExploreLayers(*Closed, nullptr, SO);

  ExploreCounts C = meanCounts(Runs);
  double OpWall = mean(OpSeconds);
  double Covered = setCloseLayers(Out, &Sum, Profiles, OpWall);
  Covered += setExploreLayers(Out, &Times, switchAppOptions(), C, OpWall,
                              static_cast<int>(Closed->Processes.size()));
  setSchedLayers(Out, 0, C);
  Out.set("trace.overhead_share",
          ratio(Times.WallSeconds + ProfileSeconds, OpWall));
  Out.set("trace.unattributed_share", 1 - Covered);
  return "";
}

} // namespace

std::string runWorkload(const RunOptions &O, Result &Out) {
  if (O.Workload == "close_corpus")
    return runCloseCorpus(O, Out);
  if (O.Workload == "explore_grid")
    return runExploreGrid(O, Out);
  if (O.Workload == "switchapp_bug")
    return runSwitchAppBug(O, Out);
  return "unknown workload '" + O.Workload + "'";
}

} // namespace perfbench
