//===- Layers.cpp - Per-layer timing from the benchmark's side ------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "Layers.h"

#include "cfg/CfgBuilder.h"
#include "cfg/CfgPrinter.h"
#include "cfg/CfgVerifier.h"
#include "closing/ClosingTransform.h"
#include "dataflow/AliasAnalysis.h"
#include "dataflow/DefUse.h"
#include "dataflow/EnvTaint.h"
#include "explorer/Footprints.h"
#include "explorer/StateCache.h"
#include "lang/Parser.h"
#include "lang/Sema.h"
#include "runtime/System.h"
#include "support/Random.h"
#include "vm/Bytecode.h"
#include "vm/Vm.h"

#include <algorithm>
#include <chrono>
#include <unordered_set>
#include <vector>

using namespace closer;

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

double seconds(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double>(B - A).count();
}

/// Results of timed calls flow here so the compiler cannot drop them.
volatile uint64_t Sink = 0;

/// Nanoseconds per call of \p Fn over \p Reps back-to-back calls.
template <class F> double nsPerCall(int Reps, F &&Fn) {
  auto T0 = Clock::now();
  for (int I = 0; I != Reps; ++I)
    Fn();
  auto T1 = Clock::now();
  return seconds(T0, T1) * 1e9 / Reps;
}

/// Median cost of reading the clock twice, subtracted from single-call
/// timings (transitions cannot be repeated without a restore in between).
double clockOverheadNs() {
  std::vector<double> D;
  for (int I = 0; I != 1001; ++I) {
    auto T0 = Clock::now();
    auto T1 = Clock::now();
    D.push_back(seconds(T0, T1) * 1e9);
  }
  std::nth_element(D.begin(), D.begin() + 500, D.end());
  return D[500];
}

/// Walk progression: uniformly random toss/env outcomes.
class RandomChoices : public ChoiceProvider {
public:
  explicit RandomChoices(Rng &R) : R(R) {}
  int64_t choose(ChoiceKind, int64_t Bound) override {
    return R.range(0, Bound);
  }

private:
  Rng &R;
};

} // namespace

void CloseProfile::add(const CloseProfile &O) {
  Parse += O.Parse;
  Sema += O.Sema;
  Lower += O.Lower;
  Verify += O.Verify;
  Alias += O.Alias;
  DefUse += O.DefUse;
  Taint += O.Taint;
  Close += O.Close;
  Emit += O.Emit;
  Nodes += O.Nodes;
  DuArcs += O.DuArcs;
  NodesAfter += O.NodesAfter;
  TossNodes += O.TossNodes;
}

std::string profileClose(const std::string &Source, CloseProfile &P,
                         std::string &Emitted) {
  P = CloseProfile();
  DiagnosticEngine Diags;
  auto T0 = Clock::now();
  std::unique_ptr<Program> AST = parseMiniC(Source, Diags);
  auto T1 = Clock::now();
  bool SemaOk = AST && checkProgram(*AST, Diags);
  auto T2 = Clock::now();
  std::unique_ptr<Module> Mod = SemaOk ? buildModule(*AST, Diags) : nullptr;
  auto T3 = Clock::now();
  bool Verified = Mod && verifyModule(*Mod, Diags);
  auto T4 = Clock::now();
  if (!Verified)
    return "closing pipeline failed:\n" + Diags.str();
  AliasAnalysis Alias(*Mod);
  auto T5 = Clock::now();
  std::vector<std::unique_ptr<ProcDataflow>> Dataflows;
  std::vector<const ProcDataflow *> DataflowPtrs;
  for (const ProcCfg &Proc : Mod->Procs) {
    Dataflows.push_back(std::make_unique<ProcDataflow>(*Mod, Proc, Alias));
    DataflowPtrs.push_back(Dataflows.back().get());
  }
  auto T6 = Clock::now();
  EnvAnalysis Analysis(*Mod, Alias, DataflowPtrs);
  auto T7 = Clock::now();
  ClosingStats Stats;
  Module Closed = closeModule(*Mod, Analysis, {}, &Stats);
  auto T8 = Clock::now();
  Emitted = emitModuleSource(Closed);
  auto T9 = Clock::now();

  P.Parse = seconds(T0, T1);
  P.Sema = seconds(T1, T2);
  P.Lower = seconds(T2, T3);
  P.Verify = seconds(T3, T4);
  P.Alias = seconds(T4, T5);
  P.DefUse = seconds(T5, T6);
  P.Taint = seconds(T6, T7);
  P.Close = seconds(T7, T8);
  P.Emit = seconds(T8, T9);
  P.Nodes = Mod->totalNodes();
  for (const ProcDataflow *DF : DataflowPtrs)
    P.DuArcs += DF->arcCount();
  P.NodesAfter = Stats.NodesAfter;
  P.TossNodes = Stats.TossNodesInserted;
  return "";
}

ExploreLayerTimes
sampleExploreLayers(const Module &Mod,
                    std::shared_ptr<const vm::CompiledModule> Code,
                    const ExploreSampleOptions &Options) {
  constexpr int Reps = 8;
  auto Start = Clock::now();
  const double ClockNs = clockOverheadNs();
  auto Single = [ClockNs](Clock::time_point A, Clock::time_point B) {
    return std::max(0.0, seconds(A, B) * 1e9 - ClockNs);
  };

  if (!Code)
    Code = vm::compileModule(Mod);
  vm::Vm Engine(Code);
  System Sys(Mod);
  FootprintAnalysis Footprints(Mod);
  Rng R(Options.Seed);
  RandomChoices Walk(R);
  ZeroChoiceProvider Zero;
  SystemSnapshot Snap;
  std::vector<int> Enabled;
  std::vector<std::pair<int, NodeId>> Frames;
  ObjSet Footprint(Footprints.objectCount());
  std::vector<uint64_t> Fps;
  std::unordered_set<uint64_t> SeenFps;

  double Snapshot = 0, Restore = 0, Fingerprint = 0, Interp = 0, VmT = 0,
         FootprintT = 0;
  uint64_t FootprintCalls = 0, Transitions = 0;
  ExploreLayerTimes T;

  Sys.reset(Walk);
  while (T.States < Options.States) {
    Sys.enabledProcessesInto(Enabled);
    if (Enabled.empty() || Sys.depth() >= Options.MaxDepth) {
      Sys.reset(Walk);
      continue;
    }
    ++T.States;
    Snapshot += nsPerCall(Reps, [&] { Sys.snapshotLightInto(Snap); });
    Restore += nsPerCall(Reps, [&] { Sys.restore(Snap); });
    Fingerprint += nsPerCall(Reps, [&] { Sink = Sink + Sys.fingerprint(); });
    if (SeenFps.insert(Sys.fingerprint()).second)
      Fps.push_back(Sys.fingerprint());
    for (int P = 0, N = Sys.processCount(); P != N; ++P) {
      Sys.frameStackInto(P, Frames);
      FootprintT += nsPerCall(Reps, [&] {
        Footprints.processFootprintInto(Frames, Footprint);
      });
      ++FootprintCalls;
    }

    // One transition of a random enabled process on each engine, from the
    // same state and with the same (all-zero) choices.
    int P = Enabled[R.below(Enabled.size())];
    auto T0 = Clock::now();
    Sys.executeTransition(P, Zero);
    auto T1 = Clock::now();
    Interp += Single(T0, T1);
    Sys.restore(Snap);
    Sys.setEngine(&Engine);
    T0 = Clock::now();
    Sys.executeTransition(P, Zero);
    T1 = Clock::now();
    VmT += Single(T0, T1);
    Sys.setEngine(nullptr);
    Sys.restore(Snap);
    ++Transitions;

    Sys.executeTransition(Enabled[R.below(Enabled.size())], Walk);
  }

  T.SnapshotNs = Snapshot / T.States;
  T.RestoreNs = Restore / T.States;
  T.FingerprintNs = Fingerprint / T.States;
  T.InterpNs = Interp / Transitions;
  T.VmNs = VmT / Transitions;
  T.FootprintNs = FootprintCalls ? FootprintT / FootprintCalls : 0;

  if (Options.CacheBits && !Fps.empty()) {
    StateCache Cache(Options.CacheBits);
    auto Pass = [&] {
      auto T0 = Clock::now();
      for (uint64_t Fp : Fps)
        Sink = Sink + static_cast<uint64_t>(Cache.insert(Fp));
      return seconds(T0, Clock::now()) * 1e9 / Fps.size();
    };
    T.CacheInsertNs = Pass();
    T.CacheHitNs = Pass();
  }
  T.WallSeconds = seconds(Start, Clock::now());
  return T;
}

} // namespace perfbench
