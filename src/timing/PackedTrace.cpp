//===- timing/PackedTrace.cpp - SoA-packed dynamic trace ------------------===//

#include "timing/PackedTrace.h"

#include "sir/Opcode.h"

#include <cassert>
#include <unordered_map>

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

PackedOp timing::decodeOp(const vm::TraceEntry &TE,
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

PackedTrace PackedTrace::build(const std::vector<vm::TraceEntry> &Trace,
                               const regalloc::ModuleAlloc &Alloc) {
  PackedTrace PT;
  PT.OpIdx.reserve(Trace.size());
  PT.MemAddr.reserve(Trace.size());
  PT.Taken.reserve(Trace.size());

  std::unordered_map<const Instruction *, uint32_t> Index;
  Index.reserve(1024);

  for (const vm::TraceEntry &TE : Trace) {
    auto It = Index.find(TE.I);
    uint32_t Idx;
    if (It != Index.end()) {
      Idx = It->second;
    } else {
      PackedOp Op = decodeOp(TE, Alloc);
      if (Op.is(PackedOp::InFpa))
        PT.HasFpa = true;
      Idx = static_cast<uint32_t>(PT.Ops.size());
      PT.Ops.push_back(Op);
      Index.emplace(TE.I, Idx);
    }
    PT.OpIdx.push_back(Idx);
    PT.MemAddr.push_back(TE.MemAddr);
    PT.Taken.push_back(TE.Taken ? 1 : 0);
  }
  return PT;
}
