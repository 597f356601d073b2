//===- System.h - Concurrent-system runtime --------------------*- C++ -*-===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The executable semantics of the paper's §2 framework. A System instance
/// holds a set of processes (each an interpreter over its procedure CFGs,
/// with private globals and a private frame stack — processes share no
/// memory) and the communication objects they synchronize through.
///
/// Execution follows the paper's transition model: a *process transition*
/// is one visible operation followed by the finite sequence of invisible
/// operations up to (but excluding) the next visible operation. The system
/// is in a *global state* when every process is stopped at a visible
/// operation (or halted). An external scheduler — the explorer — selects
/// which enabled process executes its next transition, exactly like
/// VeriSoft's scheduler process.
///
/// Nondeterminism (VS_toss, and environment choices when executing a
/// still-open module) is routed through a ChoiceProvider so the explorer
/// can enumerate and replay choice sequences; the runtime itself is
/// deterministic given the provider.
///
//===----------------------------------------------------------------------===//

#ifndef CLOSER_RUNTIME_SYSTEM_H
#define CLOSER_RUNTIME_SYSTEM_H

#include "cfg/Cfg.h"
#include "runtime/Trace.h"
#include "runtime/Value.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

namespace closer {

/// Supplies nondeterministic choices to the runtime.
class ChoiceProvider {
public:
  enum class ChoiceKind {
    Toss, ///< VS_toss(n) or a TossBranch outcome.
    Env,  ///< env_input() or an `env` process argument (open modules only).
  };

  virtual ~ChoiceProvider() = default;

  /// Returns a value in [0, Bound]. Bound >= 0.
  virtual int64_t choose(ChoiceKind Kind, int64_t Bound) = 0;
};

/// A ChoiceProvider that always picks 0 (the deterministic "first path").
class ZeroChoiceProvider : public ChoiceProvider {
public:
  int64_t choose(ChoiceKind, int64_t) override { return 0; }
};

struct SystemOptions {
  /// Environment inputs range over [0, EnvDomainBound] when executing an
  /// open module directly (this *is* the most general environment
  /// restricted to a finite domain — the naive-closing baseline).
  int64_t EnvDomainBound = 1;
  /// Invisible operations allowed per transition before the runtime
  /// reports a divergence (VeriSoft's timeout, made deterministic).
  size_t InvisibleStepLimit = 100000;
  /// Maximum frame-stack depth per process.
  size_t StackLimit = 256;
};

enum class RunErrorKind {
  None,
  DivisionByZero,
  IntegerOverflow,  ///< Signed 64-bit overflow in +, -, *, unary -, or
                    ///< INT64_MIN / -1 (and % -1): a deterministic error,
                    ///< never C++ UB. Shared by interpreter and VM.
  BadPointer,       ///< Dereference of a non-pointer or dangling address.
  IndexOutOfBounds,
  UnknownInControl, ///< Branch/index depends on an unknown value: the
                    ///< module was not properly closed.
  Divergence,       ///< Invisible step limit exceeded.
  StackOverflow,
  BadTossBound,
};

struct RunError {
  RunErrorKind Kind = RunErrorKind::None;
  int Process = -1;
  SourceLoc Loc;
  std::string Message;

  explicit operator bool() const { return Kind != RunErrorKind::None; }
  std::string str() const;
};

/// An executed VS_assert whose expression evaluated to zero.
struct AssertionViolation {
  int Process = -1;
  SourceLoc Loc;
};

/// Result of running one process transition (or the initialization run).
struct ExecResult {
  RunError Error;
  std::vector<AssertionViolation> Violations;
  bool ok() const { return !Error; }
};

/// Classification of a global state.
enum class GlobalStateKind {
  HasEnabled,  ///< At least one transition can execute.
  Termination, ///< Every process halted (ran to completion).
  Deadlock,    ///< No transition enabled but some process still waits.
};

/// Name -> slot index resolution, precomputed per procedure: parameters
/// first (in order), then locals (in order). Shared between the System's
/// interpreter and the bytecode compiler so slot indices can never diverge
/// between engines.
struct ProcLayout {
  std::unordered_map<std::string, uint32_t> SlotOf;
  std::vector<int64_t> ArraySizes; ///< Per slot; -1 scalar.
  int RetValSlot = -1;
};

/// Builds the per-procedure layouts for \p Mod (parallel to Mod.Procs).
/// The single source of truth for slot numbering.
std::vector<ProcLayout> buildProcLayouts(const Module &Mod);

class System;
class SystemSnapshot;

namespace vm {
class Vm;
class DifferentialEngine;
} // namespace vm

/// A pluggable transition-execution engine. The System owns the state
/// (stores, frames, communication objects, trace); an engine is only an
/// alternative way of running the code against that state. The default
/// (no engine installed) is the built-in tree-walking interpreter; the
/// bytecode VM and the interpreter-vs-VM differential oracle implement
/// this interface. Engines must be observationally identical to the
/// interpreter: same state deltas, same choice-provider call sequence,
/// same errors (kind, message, location), same trace events.
class ExecEngine {
public:
  virtual ~ExecEngine() = default;

  /// Executes one process transition of \p P (must be enabled): the
  /// visible operation plus the invisible run to the next visible op.
  virtual ExecResult executeTransition(System &S, int P,
                                       ChoiceProvider &Provider) = 0;

  /// Runs process \p P's invisible prefix to its first visible operation
  /// (the per-process half of reset()).
  virtual ExecResult runPrefix(System &S, int P, ChoiceProvider &Provider) = 0;
};

class System {
public:
  /// Binds the runtime to \p Mod (kept by reference; must outlive the
  /// System) and performs the initial reset with a ZeroChoiceProvider.
  explicit System(const Module &Mod, SystemOptions Options = {});

  /// Reinitializes to the initial global state s0: processes are created
  /// and each runs its invisible prefix to its first visible operation.
  /// Choices made during the prefix come from \p Provider.
  ExecResult reset(ChoiceProvider &Provider);

  int processCount() const { return static_cast<int>(Processes.size()); }

  /// True when process \p P is stopped at a visible operation that is
  /// currently enabled.
  bool processEnabled(int P) const;

  /// Indices of all enabled processes.
  std::vector<int> enabledProcesses() const;

  /// Overwrites \p Out with the enabled-process indices. The hot-path form:
  /// a recycled vector keeps its capacity, so a steady-state search never
  /// allocates here.
  void enabledProcessesInto(std::vector<int> &Out) const;

  GlobalStateKind classify() const;

  /// Executes one process transition of \p P (which must be enabled):
  /// the visible operation plus the invisible run to the next visible
  /// operation. Dispatches to the installed engine, or the built-in
  /// interpreter when none is set.
  ExecResult executeTransition(int P, ChoiceProvider &Provider);

  /// Installs a pluggable execution engine (nullptr restores the built-in
  /// tree-walking interpreter). Not owned; must outlive this System.
  void setEngine(ExecEngine *E) { Engine = E; }
  ExecEngine *engine() const { return Engine; }

  /// Always runs the built-in interpreter, regardless of the installed
  /// engine. The differential oracle uses these to compare engines.
  ExecResult interpTransition(int P, ChoiceProvider &Provider);
  ExecResult interpPrefix(int P, ChoiceProvider &Provider);

  /// Visible events executed since the last reset.
  const Trace &trace() const { return EventTrace; }

  /// Number of transitions executed since the last reset (search depth).
  size_t depth() const { return NumTransitions; }

  //===--------------------------------------------------------------------===//
  // Checkpointing
  //===--------------------------------------------------------------------===//

  /// Captures the full dynamic state (per-process frames/slots/PCs,
  /// communication objects, trace, transition count) as a value. Intended
  /// to be taken at transition boundaries (no execution in flight), where
  /// it is an exact substitute for re-executing the choice prefix that led
  /// here: restore() followed by the same transitions is indistinguishable
  /// from a fresh reset-and-replay, including fingerprints and traces.
  SystemSnapshot snapshot() const;

  /// Like snapshot(), but records only the event trace's length instead of
  /// copying it: O(state) instead of O(depth). Restoring such a snapshot
  /// truncates the live trace, which is only correct while this System
  /// stays on the DFS path the snapshot was taken on (see SystemSnapshot).
  SystemSnapshot snapshotLight() const;

  /// Completes a snapshotLight() result into a full, shippable snapshot by
  /// copying the first TraceLen events of the current trace. Only valid
  /// while the light snapshot is restorable here (same-path requirement):
  /// then the live trace's prefix is exactly the trace at capture time.
  SystemSnapshot materializeTrace(const SystemSnapshot &Light) const;

  /// In-place variants of the three capture operations above. They
  /// overwrite \p S instead of building a fresh snapshot, so a pooled
  /// (recycled) snapshot's process/comm/trace buffers are reused by
  /// element-wise copy assignment — the steady-state checkpointing path
  /// allocates nothing. Semantically identical to the by-value forms.
  void snapshotInto(SystemSnapshot &S) const;
  void snapshotLightInto(SystemSnapshot &S) const;
  void materializeTraceInto(const SystemSnapshot &Light,
                            SystemSnapshot &Out) const;

  /// Restores the state captured by snapshot(). The snapshot must come
  /// from a System bound to the same Module (any instance for full
  /// snapshots; the capturing instance, still on the capture path, for
  /// light ones).
  void restore(const SystemSnapshot &S);

  //===--------------------------------------------------------------------===//
  // Introspection for the explorer
  //===--------------------------------------------------------------------===//

  /// Index into Module.Comms of the object process \p P's pending visible
  /// operation touches, or -1 (VS_assert, halt, or halted process).
  int currentVisibleObject(int P) const;

  /// The builtin of process \p P's pending visible operation, or None when
  /// halted.
  BuiltinKind currentVisibleOp(int P) const;

  /// The frame stack of process \p P as (procedure index, node id) pairs,
  /// outermost first — the input to the static footprint analysis.
  std::vector<std::pair<int, NodeId>> frameStack(int P) const;

  /// Overwrites \p Out with process \p P's frame stack (capacity-reusing
  /// hot-path form of frameStack()).
  void frameStackInto(int P, std::vector<std::pair<int, NodeId>> &Out) const;

  /// 64-bit fingerprint of the full global state (process control points,
  /// stores, communication objects), mixed one word at a time. The state
  /// cache's key and the identity of error reports under caching.
  uint64_t fingerprint() const;

  const Module &module() const { return Mod; }

private:
  struct Slot {
    bool IsArray = false;
    Value Scalar;
    std::vector<Value> Elems;
  };

  struct Frame {
    int ProcIdx = -1;
    NodeId PC = 0;
    std::vector<Slot> Slots;
  };

  enum class ProcStatus { AtVisible, Halted };

  struct ProcessRT {
    ProcStatus Status = ProcStatus::Halted;
    std::vector<Slot> Globals;
    std::vector<Frame> Frames;
  };

  struct CommState {
    CommKind Kind;
    std::deque<Value> Items; ///< Channel contents.
    int64_t Count = 0;       ///< Semaphore count.
    Value Shared;            ///< Shared-variable value.
  };

  // Evaluation. On error, sets PendingError and returns a zero value;
  // callers bail out when PendingError is set.
  Value eval(ProcessRT &P, const Expr *E);
  Value loadVar(ProcessRT &P, const Expr *E);
  Slot *resolveSlotSlow(ProcessRT &P, const std::string &Name,
                        Frame **OwnerFrame);
  Slot *resolveSlot(ProcessRT &P, const Expr *E, Frame **OwnerFrame);
  Value loadAddress(ProcessRT &P, const Address &A);
  void storeAddress(ProcessRT &P, const Address &A, Value V);
  bool addressOf(ProcessRT &P, const Expr *Place, Address &Out);
  void store(ProcessRT &P, const Expr *Lvalue, Value V);
  bool truthy(ProcessRT &P, const Value &V, SourceLoc Loc);

  // Control flow.
  void advanceAlways(ProcessRT &P);
  void haltProcess(ProcessRT &P) {
    P.Status = ProcStatus::Halted;
    P.Frames.clear();
  }
  ExecResult runInvisible(int PIdx, ChoiceProvider &Provider);
  void execVisible(int PIdx, ChoiceProvider &Provider, ExecResult &Result);

  void fail(RunErrorKind Kind, SourceLoc Loc, const std::string &Message);

  const CfgNode &currentNode(const ProcessRT &P) const {
    const Frame &F = P.Frames.back();
    return Mod.Procs[F.ProcIdx].Nodes[F.PC];
  }

  // Steady-state interpretation must not hash strings: variable references
  // and communication-object operands are resolved once, at construction
  // (an Expr always executes with its owning procedure's frame on top, so
  // the resolution is unambiguous).
  void buildResolutionCaches();
  void cacheExprTree(int ProcIdx, const Expr *E);
  /// Communication-object index of \p P's current node (-1 if none).
  int commOf(const ProcessRT &P) const {
    const Frame &F = P.Frames.back();
    return CommIdx[static_cast<size_t>(F.ProcIdx)][F.PC];
  }

  const Module &Mod;
  SystemOptions Options;
  std::vector<ProcLayout> Layouts; ///< Parallel to Mod.Procs.
  /// VarRef/ArrayIndex expression -> slot code: >= 0 is a frame slot index
  /// of the owning procedure's layout; < 0 encodes global slot ~code.
  std::unordered_map<const Expr *, int32_t> VarSlotCache;
  /// Per procedure, per node id: the index into Mod.Comms a visible/comm
  /// Call node operates on, -1 elsewhere.
  std::vector<std::vector<int>> CommIdx;
  std::vector<ProcessRT> Processes;
  std::vector<CommState> Comms; ///< Parallel to Mod.Comms.
  Trace EventTrace;
  size_t NumTransitions = 0;
  RunError PendingError;
  int CurrentProcess = -1; ///< During execution, for error attribution.
  ExecEngine *Engine = nullptr; ///< Not owned; null = interpreter.

  friend class SystemSnapshot;
  // The bytecode VM executes compiled transitions against this state
  // directly (same stores, same error protocol) instead of duplicating it.
  friend class vm::Vm;
  // The oracle re-runs transitions on both engines from a snapshot; it must
  // preserve PendingError across the restore between the two legs.
  friend class vm::DifferentialEngine;
};

/// A value-type copy of a System's full dynamic state, produced by
/// System::snapshot() and consumed by System::restore(). Cheap to copy and
/// assign; the explorer keeps a small stack of these along its DFS path so
/// backtracking can restore a prefix instead of re-executing it.
///
/// Two flavors differ only in how the event trace is captured:
///  * snapshot() stores a full copy — restorable into any System built
///    from the same Module (work items ship these across workers);
///  * snapshotLight() stores just the trace length. Restoring one
///    truncates the live trace to that length, which is only correct when
///    the System is on the same DFS path the snapshot was taken on (the
///    trace is append-only along a path, so the prefix is still intact).
///    This keeps per-checkpoint cost O(state) instead of O(depth) — on
///    deep paths the trace dwarfs the rest of the state.
class SystemSnapshot {
public:
  SystemSnapshot() = default;

  /// Transition count at capture time (the search depth restore() rewinds
  /// to) — what a checkpointed search saves per restore.
  size_t depth() const { return NumTransitions; }

private:
  friend class System;
  std::vector<System::ProcessRT> Processes;
  std::vector<System::CommState> Comms;
  Trace EventTrace;
  size_t TraceLen = 0;
  bool HasTrace = true;
  size_t NumTransitions = 0;
};

} // namespace closer

#endif // CLOSER_RUNTIME_SYSTEM_H
