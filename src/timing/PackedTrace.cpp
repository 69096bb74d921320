//===- timing/PackedTrace.cpp - SoA-packed dynamic trace ------------------===//

#include "timing/PackedTrace.h"

#include "sir/Opcode.h"

#include <cassert>

using namespace fpint;
using namespace fpint::timing;
using sir::ExecClass;
using sir::Instruction;
using sir::Opcode;
using sir::RegClass;

std::vector<vm::TraceEntry> PackedTrace::entries() const {
  std::vector<vm::TraceEntry> Out;
  Out.reserve(size());
  for (size_t I = 0; I < size(); ++I)
    Out.push_back(entry(I));
  return Out;
}

namespace {

/// Decodes the static instruction of \p TE against \p Alloc's
/// architectural register map (every operand must have an ArchIndex
/// mapping). The reference simulator's per-instruction decode mirrors
/// this field for field; the two must stay in lockstep (the fuzz
/// oracle's fast-vs-reference differential would catch a drift).
PackedOp decodeOp(const vm::TraceEntry &TE,
                  const regalloc::ModuleAlloc &Alloc) {
  const Instruction &I = *TE.I;
  const sir::Function *F = I.parent()->parent();
  PackedOp Op;
  Op.I = &I;
  Op.Pc = TE.Pc;
  ExecClass Class = sir::execClass(I.op());
  Op.Class = static_cast<uint8_t>(Class);
  Op.Latency = static_cast<uint8_t>(sir::execLatency(Class));
  if (sir::isFpOpcode(I.op()) || I.inFpa())
    Op.Flags |= PackedOp::FpSubsystem;
  if (I.isLoad())
    Op.Flags |= PackedOp::IsLoad;
  if (I.isStore())
    Op.Flags |= PackedOp::IsStore;
  if (I.isCondBranch())
    Op.Flags |= PackedOp::IsCondBranch;
  if (Class == ExecClass::IntDiv || Class == ExecClass::FpDiv)
    Op.Flags |= PackedOp::Unpipelined;
  if (I.op() == Opcode::Jump || I.op() == Opcode::Call ||
      I.op() == Opcode::Ret)
    Op.Flags |= PackedOp::UncondTransfer;
  if (I.inFpa())
    Op.Flags |= PackedOp::InFpa;
  if (I.def().isValid()) {
    Op.Flags |= PackedOp::HasDef;
    bool Fp = F->regClass(I.def()) == RegClass::Fp;
    unsigned Arch = Alloc.archIndexOf(F, I.def());
    assert(Arch < regalloc::ArchLayout::FileSize);
    Op.Def = static_cast<uint8_t>((Fp ? PackedOp::FileBit : 0) | Arch);
  }
  I.forEachUse([&](sir::Reg R, sir::UseKind) {
    assert(Op.NumUses < 4 && "too many operands");
    bool Fp = F->regClass(R) == RegClass::Fp;
    unsigned Arch = Alloc.archIndexOf(F, R);
    assert(Arch < regalloc::ArchLayout::FileSize);
    Op.Uses[Op.NumUses++] =
        static_cast<uint8_t>((Fp ? PackedOp::FileBit : 0) | Arch);
  });
  return Op;
}

} // namespace

PackedTrace PackedTrace::build(const std::vector<vm::TraceEntry> &Trace,
                               const regalloc::ModuleAlloc &Alloc) {
  PackedTraceBuilder Builder(Alloc, Trace.size());
  Builder.consume(Trace.data(), Trace.size());
  return Builder.take();
}

PackedTraceBuilder::PackedTraceBuilder(const regalloc::ModuleAlloc &Alloc,
                                       size_t ExpectedSize)
    : Alloc(Alloc) {
  PT.OpIdx.reserve(ExpectedSize);
  PT.MemAddr.reserve(ExpectedSize);
  PT.Taken.reserve(ExpectedSize);
}

void PackedTraceBuilder::consume(const vm::TraceEntry *Entries,
                                 size_t Count) {
  for (size_t K = 0; K < Count; ++K) {
    const vm::TraceEntry &TE = Entries[K];
    const uint32_t Slot = vm::VM::codeSlot(TE.Pc);
    if (Slot >= OpOfSlot.size())
      OpOfSlot.resize(Slot + 1, Unseen);
    uint32_t &Idx = OpOfSlot[Slot];
    if (Idx == Unseen) {
      PackedOp Op = decodeOp(TE, Alloc);
      if (Op.is(PackedOp::InFpa))
        PT.HasFpa = true;
      Idx = static_cast<uint32_t>(PT.Ops.size());
      PT.Ops.push_back(Op);
    }
    assert(PT.Ops[Idx].I == TE.I && "two instructions share a code slot");
    PT.OpIdx.push_back(Idx);
    PT.MemAddr.push_back(TE.MemAddr);
    PT.Taken.push_back(TE.Taken ? 1 : 0);
  }
}

PackedTrace PackedTraceBuilder::take() {
  PackedTrace Out = std::move(PT);
  PT = PackedTrace();
  OpOfSlot.clear();
  return Out;
}
