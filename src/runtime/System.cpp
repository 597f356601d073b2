//===- System.cpp - Concurrent-system runtime --------------------------------===//
//
// Part of the closer project: a reproduction of "Automatically Closing Open
// Reactive Programs" (Colby, Godefroid, Jagadeesan, PLDI 1998).
//
//===----------------------------------------------------------------------===//

#include "runtime/System.h"

#include "runtime/Arith.h"

#include <bit>
#include <cassert>

using namespace closer;

std::string RunError::str() const {
  if (Kind == RunErrorKind::None)
    return "no error";
  std::string Out = "process " + std::to_string(Process) + ": " + Message;
  if (Loc.isValid())
    Out += " at " + Loc.str();
  return Out;
}

//===----------------------------------------------------------------------===//
// Construction and reset
//===----------------------------------------------------------------------===//

std::vector<ProcLayout> closer::buildProcLayouts(const Module &Mod) {
  std::vector<ProcLayout> Layouts(Mod.Procs.size());
  for (size_t P = 0, E = Mod.Procs.size(); P != E; ++P) {
    const ProcCfg &Proc = Mod.Procs[P];
    ProcLayout &L = Layouts[P];
    uint32_t Index = 0;
    for (const std::string &Param : Proc.Params) {
      L.SlotOf.emplace(Param, Index++);
      L.ArraySizes.push_back(-1);
    }
    for (const LocalVar &Local : Proc.Locals) {
      if (Local.Name == retValName())
        L.RetValSlot = static_cast<int>(Index);
      L.SlotOf.emplace(Local.Name, Index++);
      L.ArraySizes.push_back(Local.ArraySize);
    }
  }
  return Layouts;
}

System::System(const Module &Mod, SystemOptions Options)
    : Mod(Mod), Options(Options) {
  Layouts = buildProcLayouts(Mod);
  buildResolutionCaches();
  ZeroChoiceProvider Zero;
  reset(Zero);
}

//===----------------------------------------------------------------------===//
// Resolution caches
//===----------------------------------------------------------------------===//

void System::cacheExprTree(int ProcIdx, const Expr *E) {
  if (!E)
    return;
  if (E->Kind == ExprKind::VarRef || E->Kind == ExprKind::ArrayIndex) {
    const ProcLayout &L = Layouts[static_cast<size_t>(ProcIdx)];
    auto It = L.SlotOf.find(E->Name);
    if (It != L.SlotOf.end()) {
      VarSlotCache.emplace(E, static_cast<int32_t>(It->second));
    } else {
      for (size_t I = 0, N = Mod.Globals.size(); I != N; ++I)
        if (Mod.Globals[I].Name == E->Name) {
          VarSlotCache.emplace(E, ~static_cast<int32_t>(I));
          break;
        }
      // Unresolvable names stay out of the cache; execution reports them
      // through the slow path exactly as before.
    }
  }
  cacheExprTree(ProcIdx, E->Lhs.get());
  cacheExprTree(ProcIdx, E->Rhs.get());
  for (const ExprPtr &Arg : E->Args)
    cacheExprTree(ProcIdx, Arg.get());
}

void System::buildResolutionCaches() {
  CommIdx.resize(Mod.Procs.size());
  for (size_t P = 0, E = Mod.Procs.size(); P != E; ++P) {
    int ProcIdx = static_cast<int>(P);
    CommIdx[P].assign(Mod.Procs[P].Nodes.size(), -1);
    for (const CfgNode &Node : Mod.Procs[P].Nodes) {
      cacheExprTree(ProcIdx, Node.Target.get());
      cacheExprTree(ProcIdx, Node.Value.get());
      for (const ExprPtr &Arg : Node.Args)
        cacheExprTree(ProcIdx, Arg.get());
      if (Node.Kind == CfgNodeKind::Call &&
          builtinInfo(Node.Builtin).TakesObject && !Node.Args.empty())
        CommIdx[P][&Node - Mod.Procs[P].Nodes.data()] =
            Mod.commIndex(Node.Args[0]->Name);
    }
  }
}

//===----------------------------------------------------------------------===//
// Checkpointing
//===----------------------------------------------------------------------===//

SystemSnapshot System::snapshot() const {
  SystemSnapshot S;
  snapshotInto(S);
  return S;
}

SystemSnapshot System::snapshotLight() const {
  SystemSnapshot S;
  snapshotLightInto(S);
  return S;
}

SystemSnapshot System::materializeTrace(const SystemSnapshot &Light) const {
  SystemSnapshot S;
  materializeTraceInto(Light, S);
  return S;
}

void System::snapshotInto(SystemSnapshot &S) const {
  // Copy-assignment into a recycled snapshot reuses the nested vectors'
  // capacity element-wise; this is the whole point of the Into form.
  S.Processes = Processes;
  S.Comms = Comms;
  S.EventTrace = EventTrace;
  S.TraceLen = EventTrace.size();
  S.HasTrace = true;
  S.NumTransitions = NumTransitions;
}

void System::snapshotLightInto(SystemSnapshot &S) const {
  S.Processes = Processes;
  S.Comms = Comms;
  S.EventTrace.clear(); // Keeps capacity; a light snapshot carries no trace.
  S.TraceLen = EventTrace.size();
  S.HasTrace = false;
  S.NumTransitions = NumTransitions;
}

void System::materializeTraceInto(const SystemSnapshot &Light,
                                  SystemSnapshot &Out) const {
  Out.Processes = Light.Processes;
  Out.Comms = Light.Comms;
  Out.TraceLen = Light.TraceLen;
  Out.NumTransitions = Light.NumTransitions;
  if (Light.HasTrace) {
    Out.EventTrace = Light.EventTrace;
  } else {
    assert(EventTrace.size() >= Light.TraceLen &&
           "light snapshot outlived its capture path");
    Out.EventTrace.assign(EventTrace.begin(),
                          EventTrace.begin() +
                              static_cast<ptrdiff_t>(Light.TraceLen));
  }
  Out.HasTrace = true;
}

void System::restore(const SystemSnapshot &S) {
  Processes = S.Processes;
  Comms = S.Comms;
  if (S.HasTrace) {
    EventTrace = S.EventTrace;
  } else {
    // Same-path contract (see SystemSnapshot): the live trace still starts
    // with the events that were in place at capture time, so rewinding is
    // a truncation — no copy of the O(depth) prefix needed.
    assert(EventTrace.size() >= S.TraceLen &&
           "light snapshot restored off its capture path");
    EventTrace.resize(S.TraceLen);
  }
  NumTransitions = S.NumTransitions;
  // Snapshots are taken at transition boundaries, where no error is in
  // flight and no process is mid-execution.
  PendingError = RunError();
  CurrentProcess = -1;
}

ExecResult System::reset(ChoiceProvider &Provider) {
  EventTrace.clear();
  NumTransitions = 0;
  PendingError = RunError();

  Comms.clear();
  for (const CommDecl &Decl : Mod.Comms) {
    CommState S;
    S.Kind = Decl.Kind;
    switch (Decl.Kind) {
    case CommKind::Channel:
      break;
    case CommKind::Semaphore:
      S.Count = Decl.Param;
      break;
    case CommKind::SharedVar:
      S.Shared = Value::makeInt(Decl.Param);
      break;
    }
    Comms.push_back(std::move(S));
  }

  Processes.clear();
  ExecResult Result;
  for (const ProcessDecl &Inst : Mod.Processes) {
    int ProcIdx = Mod.procIndex(Inst.ProcName);
    assert(ProcIdx >= 0 && "verified module");
    const ProcCfg &Proc = Mod.Procs[ProcIdx];
    const ProcLayout &L = Layouts[ProcIdx];

    ProcessRT P;
    P.Status = ProcStatus::AtVisible; // Provisional; fixed by runInvisible.
    P.Globals.reserve(Mod.Globals.size());
    for (const GlobalDecl &G : Mod.Globals) {
      Slot S;
      if (G.ArraySize >= 0) {
        S.IsArray = true;
        S.Elems.assign(static_cast<size_t>(G.ArraySize), Value::makeInt(0));
      } else {
        S.Scalar = Value::makeInt(G.Init);
      }
      P.Globals.push_back(std::move(S));
    }

    Frame F;
    F.ProcIdx = ProcIdx;
    F.PC = Proc.Entry;
    F.Slots.resize(L.ArraySizes.size());
    for (size_t SlotIdx = 0, SE = L.ArraySizes.size(); SlotIdx != SE;
         ++SlotIdx) {
      Slot &S = F.Slots[SlotIdx];
      if (L.ArraySizes[SlotIdx] >= 0) {
        S.IsArray = true;
        S.Elems.assign(static_cast<size_t>(L.ArraySizes[SlotIdx]),
                       Value::makeInt(0));
      } else {
        S.Scalar = Value::makeInt(0);
      }
    }
    // Bind process arguments: constants, or environment choices when the
    // module is still open. A negative environment domain (bad --env-domain
    // configuration) is reported rather than handed to the explorer, where
    // it would wrap into a huge option count.
    for (size_t A = 0, AE = Inst.Args.size(); A != AE; ++A) {
      int64_t V = Inst.Args[A].Value;
      if (Inst.Args[A].IsEnv) {
        if (Options.EnvDomainBound < 0)
          fail(RunErrorKind::BadTossBound, SourceLoc(),
               "environment domain bound must be a nonnegative integer");
        V = PendingError ? 0
                         : Provider.choose(ChoiceProvider::ChoiceKind::Env,
                                           Options.EnvDomainBound);
      }
      F.Slots[A].Scalar = Value::makeInt(V);
    }
    P.Frames.push_back(std::move(F));
    Processes.push_back(std::move(P));
  }

  // Run every process's invisible prefix to its first visible operation,
  // reaching the initial global state s0.
  for (int PIdx = 0, E = processCount(); PIdx != E; ++PIdx) {
    ExecResult R = Engine ? Engine->runPrefix(*this, PIdx, Provider)
                          : runInvisible(PIdx, Provider);
    Result.Violations.insert(Result.Violations.end(), R.Violations.begin(),
                             R.Violations.end());
    if (!R.ok()) {
      Result.Error = R.Error;
      break;
    }
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Errors
//===----------------------------------------------------------------------===//

void System::fail(RunErrorKind Kind, SourceLoc Loc,
                  const std::string &Message) {
  if (PendingError)
    return; // Keep the first error.
  PendingError.Kind = Kind;
  PendingError.Process = CurrentProcess;
  PendingError.Loc = Loc;
  PendingError.Message = Message;
}

//===----------------------------------------------------------------------===//
// Store access
//===----------------------------------------------------------------------===//

System::Slot *System::resolveSlotSlow(ProcessRT &P, const std::string &Name,
                                      Frame **OwnerFrame) {
  Frame &F = P.Frames.back();
  const ProcLayout &L = Layouts[F.ProcIdx];
  auto It = L.SlotOf.find(Name);
  if (It != L.SlotOf.end()) {
    if (OwnerFrame)
      *OwnerFrame = &F;
    return &F.Slots[It->second];
  }
  int GlobalIdx = -1;
  for (size_t I = 0, E = Mod.Globals.size(); I != E; ++I)
    if (Mod.Globals[I].Name == Name) {
      GlobalIdx = static_cast<int>(I);
      break;
    }
  if (GlobalIdx < 0)
    return nullptr;
  if (OwnerFrame)
    *OwnerFrame = nullptr;
  return &P.Globals[GlobalIdx];
}

System::Slot *System::resolveSlot(ProcessRT &P, const Expr *E,
                                  Frame **OwnerFrame) {
  auto It = VarSlotCache.find(E);
  if (It == VarSlotCache.end())
    return resolveSlotSlow(P, E->Name, OwnerFrame);
  int32_t Code = It->second;
  if (Code >= 0) {
    Frame &F = P.Frames.back();
    if (OwnerFrame)
      *OwnerFrame = &F;
    return &F.Slots[static_cast<size_t>(Code)];
  }
  if (OwnerFrame)
    *OwnerFrame = nullptr;
  return &P.Globals[static_cast<size_t>(~Code)];
}

Value System::loadVar(ProcessRT &P, const Expr *E) {
  Slot *S = resolveSlot(P, E, nullptr);
  if (!S) {
    fail(RunErrorKind::BadPointer, SourceLoc(),
         "reference to unknown variable '" + E->Name + "'");
    return Value::makeInt(0);
  }
  if (S->IsArray) {
    fail(RunErrorKind::BadPointer, SourceLoc(),
         "array '" + E->Name + "' used as a scalar");
    return Value::makeInt(0);
  }
  return S->Scalar;
}

bool System::addressOf(ProcessRT &P, const Expr *Place, Address &Out) {
  // Locate the slot and encode its position.
  auto Cached = VarSlotCache.find(Place);
  if (Cached != VarSlotCache.end()) {
    int32_t Code = Cached->second;
    if (Code >= 0) {
      Out.Sp = Address::Space::Frame;
      Out.FrameIndex = static_cast<uint32_t>(P.Frames.size() - 1);
      Out.SlotIndex = static_cast<uint32_t>(Code);
    } else {
      Out.Sp = Address::Space::Global;
      Out.SlotIndex = static_cast<uint32_t>(~Code);
    }
  } else {
    Frame &F = P.Frames.back();
    const ProcLayout &L = Layouts[F.ProcIdx];
    auto It = L.SlotOf.find(Place->Name);
    if (It != L.SlotOf.end()) {
      Out.Sp = Address::Space::Frame;
      Out.FrameIndex = static_cast<uint32_t>(P.Frames.size() - 1);
      Out.SlotIndex = It->second;
    } else {
      int GlobalIdx = -1;
      for (size_t I = 0, E = Mod.Globals.size(); I != E; ++I)
        if (Mod.Globals[I].Name == Place->Name) {
          GlobalIdx = static_cast<int>(I);
          break;
        }
      if (GlobalIdx < 0) {
        fail(RunErrorKind::BadPointer, Place->Loc,
             "address of unknown variable '" + Place->Name + "'");
        return false;
      }
      Out.Sp = Address::Space::Global;
      Out.SlotIndex = static_cast<uint32_t>(GlobalIdx);
    }
  }
  Out.ElemIndex = -1;
  if (Place->Kind == ExprKind::ArrayIndex) {
    Value Idx = eval(P, Place->Lhs.get());
    if (PendingError)
      return false;
    if (!Idx.isInt()) {
      fail(RunErrorKind::UnknownInControl, Place->Loc,
           "array index is not an integer");
      return false;
    }
    Out.ElemIndex = static_cast<int32_t>(Idx.asInt());
  }
  return true;
}

Value System::loadAddress(ProcessRT &P, const Address &A) {
  Slot *S = nullptr;
  if (A.Sp == Address::Space::Global) {
    if (A.SlotIndex >= P.Globals.size()) {
      fail(RunErrorKind::BadPointer, SourceLoc(), "bad global address");
      return Value::makeInt(0);
    }
    S = &P.Globals[A.SlotIndex];
  } else {
    if (A.FrameIndex >= P.Frames.size()) {
      fail(RunErrorKind::BadPointer, SourceLoc(),
           "dangling pointer into a popped frame");
      return Value::makeInt(0);
    }
    Frame &F = P.Frames[A.FrameIndex];
    if (A.SlotIndex >= F.Slots.size()) {
      fail(RunErrorKind::BadPointer, SourceLoc(), "bad frame address");
      return Value::makeInt(0);
    }
    S = &F.Slots[A.SlotIndex];
  }
  if (S->IsArray) {
    if (A.ElemIndex < 0 ||
        static_cast<size_t>(A.ElemIndex) >= S->Elems.size()) {
      fail(RunErrorKind::IndexOutOfBounds, SourceLoc(),
           "array index out of bounds through pointer");
      return Value::makeInt(0);
    }
    return S->Elems[static_cast<size_t>(A.ElemIndex)];
  }
  if (A.ElemIndex > 0) {
    fail(RunErrorKind::BadPointer, SourceLoc(), "element access on scalar");
    return Value::makeInt(0);
  }
  return S->Scalar;
}

void System::storeAddress(ProcessRT &P, const Address &A, Value V) {
  Slot *S = nullptr;
  if (A.Sp == Address::Space::Global) {
    if (A.SlotIndex >= P.Globals.size()) {
      fail(RunErrorKind::BadPointer, SourceLoc(), "bad global address");
      return;
    }
    S = &P.Globals[A.SlotIndex];
  } else {
    if (A.FrameIndex >= P.Frames.size()) {
      fail(RunErrorKind::BadPointer, SourceLoc(),
           "dangling pointer into a popped frame");
      return;
    }
    Frame &F = P.Frames[A.FrameIndex];
    if (A.SlotIndex >= F.Slots.size()) {
      fail(RunErrorKind::BadPointer, SourceLoc(), "bad frame address");
      return;
    }
    S = &F.Slots[A.SlotIndex];
  }
  if (S->IsArray) {
    if (A.ElemIndex < 0 ||
        static_cast<size_t>(A.ElemIndex) >= S->Elems.size()) {
      fail(RunErrorKind::IndexOutOfBounds, SourceLoc(),
           "array index out of bounds through pointer");
      return;
    }
    S->Elems[static_cast<size_t>(A.ElemIndex)] = V;
    return;
  }
  S->Scalar = V;
}

void System::store(ProcessRT &P, const Expr *Lvalue, Value V) {
  switch (Lvalue->Kind) {
  case ExprKind::VarRef: {
    Slot *S = resolveSlot(P, Lvalue, nullptr);
    if (!S) {
      fail(RunErrorKind::BadPointer, Lvalue->Loc,
           "assignment to unknown variable '" + Lvalue->Name + "'");
      return;
    }
    if (S->IsArray) {
      fail(RunErrorKind::BadPointer, Lvalue->Loc,
           "cannot assign to whole array");
      return;
    }
    S->Scalar = V;
    return;
  }
  case ExprKind::ArrayIndex: {
    Address A;
    if (!addressOf(P, Lvalue, A))
      return;
    storeAddress(P, A, V);
    return;
  }
  case ExprKind::Deref: {
    Value Ptr = eval(P, Lvalue->Lhs.get());
    if (PendingError)
      return;
    if (!Ptr.isPointer()) {
      fail(RunErrorKind::BadPointer, Lvalue->Loc,
           "store through a non-pointer value");
      return;
    }
    storeAddress(P, Ptr.asPointer(), V);
    return;
  }
  default:
    fail(RunErrorKind::BadPointer, Lvalue->Loc, "invalid assignment target");
  }
}

//===----------------------------------------------------------------------===//
// Expression evaluation
//===----------------------------------------------------------------------===//

bool System::truthy(ProcessRT &, const Value &V, SourceLoc Loc) {
  if (V.isUnknown()) {
    fail(RunErrorKind::UnknownInControl, Loc,
         "control flow depends on an unknown value (module not closed?)");
    return false;
  }
  if (V.isPointer())
    return true;
  return V.asInt() != 0;
}

Value System::eval(ProcessRT &P, const Expr *E) {
  if (PendingError)
    return Value::makeInt(0);
  switch (E->Kind) {
  case ExprKind::IntLit:
    return Value::makeInt(E->IntValue);
  case ExprKind::Unknown:
    return Value::makeUnknown();
  case ExprKind::VarRef:
    return loadVar(P, E);
  case ExprKind::ArrayIndex: {
    Address A;
    if (!addressOf(P, E, A))
      return Value::makeInt(0);
    return loadAddress(P, A);
  }
  case ExprKind::AddrOf: {
    Address A;
    if (!addressOf(P, E->Lhs.get(), A))
      return Value::makeInt(0);
    return Value::makePointer(A);
  }
  case ExprKind::Deref: {
    Value Ptr = eval(P, E->Lhs.get());
    if (PendingError)
      return Value::makeInt(0);
    if (Ptr.isUnknown())
      return Value::makeUnknown();
    if (!Ptr.isPointer()) {
      fail(RunErrorKind::BadPointer, E->Loc,
           "dereference of a non-pointer value");
      return Value::makeInt(0);
    }
    return loadAddress(P, Ptr.asPointer());
  }
  case ExprKind::Unary: {
    Value V = eval(P, E->Lhs.get());
    if (PendingError)
      return Value::makeInt(0);
    if (V.isUnknown())
      return Value::makeUnknown();
    if (V.isPointer()) {
      fail(RunErrorKind::BadPointer, E->Loc, "arithmetic on a pointer");
      return Value::makeInt(0);
    }
    if (E->UOp == UnaryOp::Neg) {
      int64_t Out;
      if (!checkedNeg(V.asInt(), Out)) {
        fail(RunErrorKind::IntegerOverflow, E->Loc,
             "signed integer overflow in unary '-'");
        return Value::makeInt(0);
      }
      return Value::makeInt(Out);
    }
    return Value::makeInt(V.asInt() == 0 ? 1 : 0);
  }
  case ExprKind::Binary: {
    Value L = eval(P, E->Lhs.get());
    Value R = eval(P, E->Rhs.get());
    if (PendingError)
      return Value::makeInt(0);
    // Pointer equality is the only legal pointer operation.
    if (E->BOp == BinaryOp::Eq || E->BOp == BinaryOp::Ne) {
      if (L.isUnknown() || R.isUnknown())
        return Value::makeUnknown();
      bool Equal = L == R;
      return Value::makeInt((E->BOp == BinaryOp::Eq) == Equal ? 1 : 0);
    }
    if (L.isPointer() || R.isPointer()) {
      fail(RunErrorKind::BadPointer, E->Loc, "arithmetic on a pointer");
      return Value::makeInt(0);
    }
    if (L.isUnknown() || R.isUnknown())
      return Value::makeUnknown();
    int64_t A = L.asInt(), B = R.asInt(), Out;
    switch (E->BOp) {
    case BinaryOp::Add:
      if (!checkedAdd(A, B, Out)) {
        fail(RunErrorKind::IntegerOverflow, E->Loc,
             "signed integer overflow in '+'");
        return Value::makeInt(0);
      }
      return Value::makeInt(Out);
    case BinaryOp::Sub:
      if (!checkedSub(A, B, Out)) {
        fail(RunErrorKind::IntegerOverflow, E->Loc,
             "signed integer overflow in '-'");
        return Value::makeInt(0);
      }
      return Value::makeInt(Out);
    case BinaryOp::Mul:
      if (!checkedMul(A, B, Out)) {
        fail(RunErrorKind::IntegerOverflow, E->Loc,
             "signed integer overflow in '*'");
        return Value::makeInt(0);
      }
      return Value::makeInt(Out);
    case BinaryOp::Div:
      if (B == 0) {
        fail(RunErrorKind::DivisionByZero, E->Loc, "division by zero");
        return Value::makeInt(0);
      }
      if (!checkedDiv(A, B, Out)) {
        fail(RunErrorKind::IntegerOverflow, E->Loc,
             "signed integer overflow in '/'");
        return Value::makeInt(0);
      }
      return Value::makeInt(Out);
    case BinaryOp::Mod:
      if (B == 0) {
        fail(RunErrorKind::DivisionByZero, E->Loc, "modulo by zero");
        return Value::makeInt(0);
      }
      if (!checkedMod(A, B, Out)) {
        fail(RunErrorKind::IntegerOverflow, E->Loc,
             "signed integer overflow in '%'");
        return Value::makeInt(0);
      }
      return Value::makeInt(Out);
    case BinaryOp::Lt:
      return Value::makeInt(A < B);
    case BinaryOp::Le:
      return Value::makeInt(A <= B);
    case BinaryOp::Gt:
      return Value::makeInt(A > B);
    case BinaryOp::Ge:
      return Value::makeInt(A >= B);
    case BinaryOp::And:
      return Value::makeInt((A != 0 && B != 0) ? 1 : 0);
    case BinaryOp::Or:
      return Value::makeInt((A != 0 || B != 0) ? 1 : 0);
    case BinaryOp::Eq:
    case BinaryOp::Ne:
      break; // Handled above.
    }
    return Value::makeInt(0);
  }
  case ExprKind::Call:
    fail(RunErrorKind::BadPointer, E->Loc,
         "call expression reached the evaluator (lowering bug)");
    return Value::makeInt(0);
  }
  return Value::makeInt(0);
}

//===----------------------------------------------------------------------===//
// Control flow
//===----------------------------------------------------------------------===//

/// Follows the single Always arc of the current node, or halts the process
/// when the closing transformation dropped it (|succ(a)| == 0: the original
/// program diverged invisibly here).
void System::advanceAlways(ProcessRT &P) {
  Frame &F = P.Frames.back();
  const CfgNode &Node = Mod.Procs[F.ProcIdx].Nodes[F.PC];
  if (Node.Arcs.empty()) {
    haltProcess(P);
    return;
  }
  F.PC = Node.Arcs[0].Target;
}

ExecResult System::runInvisible(int PIdx, ChoiceProvider &Provider) {
  ExecResult Result;
  ProcessRT &P = Processes[PIdx];
  CurrentProcess = PIdx;
  size_t Steps = 0;

  while (P.Status != ProcStatus::Halted) {
    if (PendingError)
      break;
    if (++Steps > Options.InvisibleStepLimit) {
      fail(RunErrorKind::Divergence, SourceLoc(),
           "invisible step limit exceeded (divergence)");
      break;
    }
    Frame &F = P.Frames.back();
    const ProcCfg &Proc = Mod.Procs[F.ProcIdx];
    const CfgNode &Node = Proc.Nodes[F.PC];

    switch (Node.Kind) {
    case CfgNodeKind::Start:
      advanceAlways(P);
      break;

    case CfgNodeKind::Assign: {
      Value V = eval(P, Node.Value.get());
      if (PendingError)
        break;
      store(P, Node.Target.get(), V);
      if (PendingError)
        break;
      advanceAlways(P);
      break;
    }

    case CfgNodeKind::Branch: {
      Value C = eval(P, Node.Value.get());
      if (PendingError)
        break;
      bool Taken = truthy(P, C, Node.Loc);
      if (PendingError)
        break;
      F.PC = Node.Arcs[Taken ? 0 : 1].Target;
      break;
    }

    case CfgNodeKind::Switch: {
      Value V = eval(P, Node.Value.get());
      if (PendingError)
        break;
      if (!V.isInt()) {
        fail(RunErrorKind::UnknownInControl, Node.Loc,
             "switch on a non-integer value");
        break;
      }
      NodeId Target = InvalidNode;
      NodeId DefaultTarget = InvalidNode;
      for (const CfgArc &Arc : Node.Arcs) {
        if (Arc.Kind == ArcKind::CaseEq && Arc.Value == V.asInt()) {
          Target = Arc.Target;
          break;
        }
        if (Arc.Kind == ArcKind::CaseDefault)
          DefaultTarget = Arc.Target;
      }
      F.PC = Target != InvalidNode ? Target : DefaultTarget;
      assert(F.PC != InvalidNode && "switch must have a default arc");
      break;
    }

    case CfgNodeKind::TossBranch: {
      if (Node.TossBound < 0) {
        // A malformed (or corrupted) closed program; report it instead of
        // letting the explorer enumerate a wrapped-around option range.
        fail(RunErrorKind::BadTossBound, Node.Loc,
             "toss branch bound must be a nonnegative integer");
        break;
      }
      int64_t Choice = Provider.choose(ChoiceProvider::ChoiceKind::Toss,
                                       Node.TossBound);
      assert(Choice >= 0 && Choice <= Node.TossBound && "bad toss choice");
      NodeId Target = InvalidNode;
      for (const CfgArc &Arc : Node.Arcs)
        if (Arc.Value == Choice) {
          Target = Arc.Target;
          break;
        }
      assert(Target != InvalidNode && "toss arcs cover all outcomes");
      F.PC = Target;
      break;
    }

    case CfgNodeKind::Return: {
      Value RetVal = Value::makeInt(0);
      const ProcLayout &L = Layouts[F.ProcIdx];
      if (L.RetValSlot >= 0)
        RetVal = F.Slots[static_cast<size_t>(L.RetValSlot)].Scalar;
      P.Frames.pop_back();
      if (P.Frames.empty()) {
        // Top-level termination: blocking forever (paper §4 assumption).
        haltProcess(P);
        break;
      }
      Frame &Caller = P.Frames.back();
      const CfgNode &CallNode =
          Mod.Procs[Caller.ProcIdx].Nodes[Caller.PC];
      assert(CallNode.Kind == CfgNodeKind::Call && "caller not at a call");
      if (CallNode.Target) {
        store(P, CallNode.Target.get(), RetVal);
        if (PendingError)
          break;
      }
      advanceAlways(P);
      break;
    }

    case CfgNodeKind::Call: {
      if (Node.isVisibleOp()) {
        // Transition boundary: stop just before the visible operation.
        P.Status = ProcStatus::AtVisible;
        return Result;
      }
      switch (Node.Builtin) {
      case BuiltinKind::VsToss: {
        Value Bound = eval(P, Node.Args[0].get());
        if (PendingError)
          break;
        if (!Bound.isInt() || Bound.asInt() < 0) {
          fail(RunErrorKind::BadTossBound, Node.Loc,
               "VS_toss bound must be a nonnegative integer");
          break;
        }
        int64_t V = Provider.choose(ChoiceProvider::ChoiceKind::Toss,
                                    Bound.asInt());
        if (Node.Target) {
          store(P, Node.Target.get(), Value::makeInt(V));
          if (PendingError)
            break;
        }
        advanceAlways(P);
        break;
      }
      case BuiltinKind::EnvInput: {
        if (Options.EnvDomainBound < 0) {
          fail(RunErrorKind::BadTossBound, Node.Loc,
               "environment domain bound must be a nonnegative integer");
          break;
        }
        int64_t V = Provider.choose(ChoiceProvider::ChoiceKind::Env,
                                    Options.EnvDomainBound);
        if (Node.Target) {
          store(P, Node.Target.get(), Value::makeInt(V));
          if (PendingError)
            break;
        }
        advanceAlways(P);
        break;
      }
      case BuiltinKind::EnvOutput: {
        // The most general environment accepts any output.
        (void)eval(P, Node.Args[0].get());
        if (PendingError)
          break;
        advanceAlways(P);
        break;
      }
      case BuiltinKind::None: {
        // User procedure call: push a frame.
        if (P.Frames.size() >= Options.StackLimit) {
          fail(RunErrorKind::StackOverflow, Node.Loc,
               "frame stack limit exceeded");
          break;
        }
        int CalleeIdx = Mod.procIndex(Node.Callee);
        assert(CalleeIdx >= 0 && "verified module");
        const ProcCfg &Callee = Mod.Procs[CalleeIdx];
        const ProcLayout &CalleeLayout = Layouts[CalleeIdx];

        Frame NewFrame;
        NewFrame.ProcIdx = CalleeIdx;
        NewFrame.PC = Callee.Entry;
        NewFrame.Slots.resize(CalleeLayout.ArraySizes.size());
        for (size_t SlotIdx = 0, SE = CalleeLayout.ArraySizes.size();
             SlotIdx != SE; ++SlotIdx) {
          Slot &S = NewFrame.Slots[SlotIdx];
          if (CalleeLayout.ArraySizes[SlotIdx] >= 0) {
            S.IsArray = true;
            S.Elems.assign(
                static_cast<size_t>(CalleeLayout.ArraySizes[SlotIdx]),
                Value::makeInt(0));
          } else {
            S.Scalar = Value::makeInt(0);
          }
        }
        for (size_t A = 0, AE = Node.Args.size(); A != AE; ++A) {
          Value V = eval(P, Node.Args[A].get());
          if (PendingError)
            break;
          NewFrame.Slots[A].Scalar = V;
        }
        if (PendingError)
          break;
        P.Frames.push_back(std::move(NewFrame));
        break;
      }
      default:
        assert(false && "visible builtins handled above");
      }
      break;
    }
    }
  }

  if (PendingError) {
    Result.Error = PendingError;
    PendingError = RunError();
    haltProcess(P);
  }
  return Result;
}

//===----------------------------------------------------------------------===//
// Visible operations
//===----------------------------------------------------------------------===//

int System::currentVisibleObject(int P) const {
  const ProcessRT &Proc = Processes[P];
  if (Proc.Status != ProcStatus::AtVisible)
    return -1;
  if (!builtinInfo(currentNode(Proc).Builtin).TakesObject)
    return -1;
  return commOf(Proc);
}

BuiltinKind System::currentVisibleOp(int P) const {
  const ProcessRT &Proc = Processes[P];
  if (Proc.Status != ProcStatus::AtVisible)
    return BuiltinKind::None;
  return currentNode(Proc).Builtin;
}

bool System::processEnabled(int P) const {
  const ProcessRT &Proc = Processes[P];
  if (Proc.Status != ProcStatus::AtVisible)
    return false;
  const CfgNode &Node = currentNode(Proc);
  switch (Node.Builtin) {
  case BuiltinKind::Send: {
    int Obj = commOf(Proc);
    return static_cast<int64_t>(Comms[Obj].Items.size()) <
           Mod.Comms[Obj].Param;
  }
  case BuiltinKind::Recv: {
    int Obj = commOf(Proc);
    return !Comms[Obj].Items.empty();
  }
  case BuiltinKind::SemWait: {
    int Obj = commOf(Proc);
    return Comms[Obj].Count > 0;
  }
  case BuiltinKind::SemSignal:
  case BuiltinKind::SharedWrite:
  case BuiltinKind::SharedRead:
  case BuiltinKind::VsAssert:
    return true;
  case BuiltinKind::Halt:
    return false;
  default:
    assert(false && "process stopped at a non-visible operation");
    return false;
  }
}

std::vector<int> System::enabledProcesses() const {
  std::vector<int> Result;
  enabledProcessesInto(Result);
  return Result;
}

void System::enabledProcessesInto(std::vector<int> &Out) const {
  Out.clear();
  for (int P = 0, E = processCount(); P != E; ++P)
    if (processEnabled(P))
      Out.push_back(P);
}

GlobalStateKind System::classify() const {
  bool AnyWaiting = false;
  for (int P = 0, E = processCount(); P != E; ++P) {
    if (processEnabled(P))
      return GlobalStateKind::HasEnabled;
    const ProcessRT &Proc = Processes[P];
    // A process parked at halt() or finished counts as terminated; one
    // blocked on a communication operation makes the state a deadlock.
    if (Proc.Status == ProcStatus::AtVisible &&
        currentNode(Proc).Builtin != BuiltinKind::Halt)
      AnyWaiting = true;
  }
  return AnyWaiting ? GlobalStateKind::Deadlock : GlobalStateKind::Termination;
}

void System::execVisible(int PIdx, ChoiceProvider &, ExecResult &Result) {
  ProcessRT &P = Processes[PIdx];
  const CfgNode &Node = currentNode(P);

  VisibleEvent Event;
  Event.ProcessIndex = PIdx;
  Event.Op = Node.Builtin;
  if (builtinInfo(Node.Builtin).TakesObject)
    Event.Object = Node.Args[0]->Name;

  switch (Node.Builtin) {
  case BuiltinKind::Send: {
    int Obj = commOf(P);
    Value V = eval(P, Node.Args[1].get());
    if (PendingError)
      break;
    Comms[Obj].Items.push_back(V);
    Event.Payload = V;
    Event.HasPayload = true;
    break;
  }
  case BuiltinKind::Recv: {
    int Obj = commOf(P);
    assert(!Comms[Obj].Items.empty() && "recv on empty channel");
    Value V = Comms[Obj].Items.front();
    Comms[Obj].Items.pop_front();
    if (Node.Target)
      store(P, Node.Target.get(), V);
    Event.Payload = V;
    Event.HasPayload = true;
    break;
  }
  case BuiltinKind::SemWait: {
    int Obj = commOf(P);
    assert(Comms[Obj].Count > 0 && "wait on zero semaphore");
    --Comms[Obj].Count;
    break;
  }
  case BuiltinKind::SemSignal: {
    int Obj = commOf(P);
    ++Comms[Obj].Count;
    break;
  }
  case BuiltinKind::SharedWrite: {
    int Obj = commOf(P);
    Value V = eval(P, Node.Args[1].get());
    if (PendingError)
      break;
    Comms[Obj].Shared = V;
    Event.Payload = V;
    Event.HasPayload = true;
    break;
  }
  case BuiltinKind::SharedRead: {
    int Obj = commOf(P);
    Value V = Comms[Obj].Shared;
    if (Node.Target)
      store(P, Node.Target.get(), V);
    Event.Payload = V;
    Event.HasPayload = true;
    break;
  }
  case BuiltinKind::VsAssert: {
    Value V = eval(P, Node.Args[0].get());
    if (PendingError)
      break;
    // An unknown assertion argument means the assertion was not preserved
    // by the transformation (Theorem 7); it never fires.
    if (V.isInt() && V.asInt() == 0)
      Result.Violations.push_back({PIdx, Node.Loc});
    Event.Payload = V;
    Event.HasPayload = true;
    break;
  }
  default:
    assert(false && "not a visible operation");
  }

  if (!PendingError)
    EventTrace.push_back(std::move(Event));
}

ExecResult System::executeTransition(int PIdx, ChoiceProvider &Provider) {
  if (Engine)
    return Engine->executeTransition(*this, PIdx, Provider);
  return interpTransition(PIdx, Provider);
}

ExecResult System::interpPrefix(int PIdx, ChoiceProvider &Provider) {
  return runInvisible(PIdx, Provider);
}

ExecResult System::interpTransition(int PIdx, ChoiceProvider &Provider) {
  assert(processEnabled(PIdx) && "executing a disabled transition");
  ExecResult Result;
  CurrentProcess = PIdx;
  ProcessRT &P = Processes[PIdx];

  execVisible(PIdx, Provider, Result);
  if (PendingError) {
    Result.Error = PendingError;
    PendingError = RunError();
    haltProcess(P);
    return Result;
  }
  advanceAlways(P);
  ++NumTransitions;

  ExecResult Tail = runInvisible(PIdx, Provider);
  Result.Violations.insert(Result.Violations.end(), Tail.Violations.begin(),
                           Tail.Violations.end());
  if (!Tail.ok())
    Result.Error = Tail.Error;
  return Result;
}

//===----------------------------------------------------------------------===//
// Introspection
//===----------------------------------------------------------------------===//

std::vector<std::pair<int, NodeId>> System::frameStack(int P) const {
  std::vector<std::pair<int, NodeId>> Out;
  frameStackInto(P, Out);
  return Out;
}

void System::frameStackInto(int P,
                            std::vector<std::pair<int, NodeId>> &Out) const {
  Out.clear();
  for (const Frame &F : Processes[P].Frames)
    Out.push_back({F.ProcIdx, F.PC});
}

namespace {

/// The state hash, one 64-bit word per step: for a fixed state H the step
/// is a bijection of the word (odd multiplier), for a fixed word a
/// bijection of H (xor, rotate, odd multiplier), and the rotate-multiply
/// makes the result depend on word order. StateCache::key() finalizes it.
struct StateHasher {
  uint64_t H = 0x9e3779b97f4a7c15ull;
  void mix(uint64_t W) {
    H ^= W * 0x87c37b91114253d5ull;
    H = std::rotl(H, 27) * 0x4cf5ad432745937full;
  }
  void mixValue(const Value &V) {
    mix(static_cast<uint64_t>(V.kind()));
    switch (V.kind()) {
    case Value::Kind::Int:
      mix(static_cast<uint64_t>(V.asInt()));
      break;
    case Value::Kind::Unknown:
      break;
    case Value::Kind::Pointer: {
      const Address &A = V.asPointer();
      mix(static_cast<uint64_t>(A.Sp));
      mix(A.FrameIndex);
      mix(A.SlotIndex);
      mix(static_cast<uint64_t>(static_cast<int64_t>(A.ElemIndex)));
      break;
    }
    }
  }
};

} // namespace

uint64_t System::fingerprint() const {
  StateHasher H;
  auto MixSlots = [&H](const std::vector<Slot> &Slots) {
    for (const Slot &S : Slots) {
      if (S.IsArray)
        for (const Value &V : S.Elems)
          H.mixValue(V);
      else
        H.mixValue(S.Scalar);
    }
  };
  for (const ProcessRT &P : Processes) {
    H.mix(static_cast<uint64_t>(P.Status));
    MixSlots(P.Globals);
    for (const Frame &F : P.Frames) {
      H.mix(static_cast<uint64_t>(F.ProcIdx));
      H.mix(F.PC);
      MixSlots(F.Slots);
    }
  }
  for (const CommState &C : Comms) {
    H.mix(static_cast<uint64_t>(C.Kind));
    H.mix(static_cast<uint64_t>(C.Count));
    H.mixValue(C.Shared);
    H.mix(C.Items.size());
    for (const Value &V : C.Items)
      H.mixValue(V);
  }
  return H.H;
}
