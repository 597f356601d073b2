//===- Layers.h - Per-layer timing from the benchmark's side ---*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-layer numbers of the traced run, taken by timing calls into each
/// module's public functions from here; nothing inside src/ is
/// instrumented.
///
///  * Closing: profileClose() calls parse -> sema -> lower -> verify ->
///    alias -> def-use -> taint -> close -> emit itself and times each
///    call, the same sequence closer::compile() + emitModuleSource() runs.
///  * Exploring: explore() is one opaque call, so sampleExploreLayers()
///    walks seeded random paths of the workload's own System, and at every
///    visited global state times the calls the explorer makes there
///    (snapshot, restore, fingerprint, one transition on each engine,
///    footprints). The workload multiplies these per-call times by the
///    call counts explore() reports to estimate each layer's share.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_PERFBENCH_LAYERS_H
#define CLOSER_PERFBENCH_LAYERS_H

#include "cfg/Cfg.h"

#include <cstdint>
#include <memory>
#include <string>

namespace closer::vm {
struct CompiledModule;
} // namespace closer::vm

namespace perfbench {

/// Seconds spent in each closing-side call, and the IR sizes they saw.
struct CloseProfile {
  double Parse = 0, Sema = 0, Lower = 0, Verify = 0, Alias = 0, DefUse = 0,
         Taint = 0, Close = 0, Emit = 0;
  uint64_t Nodes = 0;      ///< CFG nodes of the open module.
  uint64_t DuArcs = 0;     ///< Define-use arcs of the open module.
  uint64_t NodesAfter = 0; ///< CFG nodes of the closed module.
  uint64_t TossNodes = 0;  ///< VS_toss nodes the transform inserted.

  double layers() const {
    return Parse + Sema + Lower + Verify + Alias + DefUse + Taint + Close +
           Emit;
  }
  /// CFG nodes + define-use arcs: the unit of the paper's linearity claim.
  uint64_t units() const { return Nodes + DuArcs; }
  void add(const CloseProfile &O);
};

/// Closes \p Source stage by stage, timing each call into \p Out, and
/// stores the emitted closed source in \p Emitted. Returns an empty string
/// on success and the diagnostics on failure.
std::string profileClose(const std::string &Source, CloseProfile &Out,
                         std::string &Emitted);

/// Per-call nanoseconds of the explorer's hot calls, from a sample of
/// states.
struct ExploreLayerTimes {
  double SnapshotNs = 0;    ///< System::snapshotLightInto (checkpoints).
  double RestoreNs = 0;     ///< System::restore of that snapshot.
  double FingerprintNs = 0; ///< System::fingerprint.
  double InterpNs = 0;      ///< One transition on the interpreter.
  double VmNs = 0;          ///< One transition on vm::Vm.
  double CacheInsertNs = 0; ///< StateCache::insert of an unseen state.
  double CacheHitNs = 0;    ///< StateCache::insert of a stored state.
  double FootprintNs = 0;   ///< FootprintAnalysis::processFootprintInto.
  uint64_t States = 0;      ///< Global states sampled.
  double WallSeconds = 0;   ///< Wall time the sampling took.
};

struct ExploreSampleOptions {
  uint64_t Seed = 1;
  /// Global states to sample (walks restart until this many are seen).
  uint64_t States = 10000;
  /// Walks are cut at this depth, as the search's MaxDepth cuts paths.
  uint64_t MaxDepth = 60;
  /// Slots (log2) of the table the cache timings insert into; 0 skips
  /// the cache timings.
  unsigned CacheBits = 0;
};

ExploreLayerTimes
sampleExploreLayers(const closer::Module &Mod,
                    std::shared_ptr<const closer::vm::CompiledModule> Code,
                    const ExploreSampleOptions &Options);

} // namespace perfbench

#endif // CLOSER_PERFBENCH_LAYERS_H
