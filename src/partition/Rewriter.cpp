//===- partition/Rewriter.cpp - Apply an assignment to the code -----------===//

#include "partition/Rewriter.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace fpint;
using namespace fpint::partition;
using analysis::NodeKind;
using analysis::RDG;
using sir::Instruction;
using sir::Opcode;
using sir::Reg;
using sir::RegClass;

namespace {

/// How each integer register is migrated to the FP file.
enum class RegMode : uint8_t {
  Untouched, ///< Never consumed by FPa code.
  Retype,    ///< Every def is FPa: the register itself becomes FP-class.
  Shadow,    ///< Mixed defs: a fresh FP register shadows the INT one.
};

struct RegPlan {
  RegMode Mode = RegMode::Untouched;
  Reg FpReg;  ///< Shadow register (Shadow mode only).
  Reg IntReg; ///< Integer copy-back target when the reg was retyped.
};

class RewriterImpl {
public:
  RewriterImpl(sir::Function &F, const Assignment &A)
      : F(F), A(A), G(*A.G) {}

  RewriteReport run();

private:
  void planRegisters();
  Reg fpVersionOf(Reg R);
  Reg intVersionOf(Reg R, unsigned Consumer);
  void rewriteInstruction(Instruction &I);
  void planInsertAfter(const Instruction &I,
                       std::unique_ptr<Instruction> New);
  void applyInsertions();

  sir::Function &F;
  const Assignment &A;
  const RDG &G;
  RewriteReport Report;

  std::unordered_map<uint32_t, RegPlan> Plans;
  // Insertions: (block, position, sequence) -> instruction, applied in
  // descending position so earlier indices stay valid.
  struct Insertion {
    sir::BasicBlock *BB;
    size_t Pos;
    size_t Seq;
    std::unique_ptr<Instruction> I;
  };
  std::vector<Insertion> Insertions;
  std::vector<Reg> RetypeList;
};

void RewriterImpl::planRegisters() {
  // Collect definition nodes per integer register.
  std::unordered_map<uint32_t, std::vector<unsigned>> DefNodes;
  for (unsigned N = 0; N < G.numNodes(); ++N) {
    Reg D = G.node(N).Def;
    if (D.isValid() && F.regClass(D) == RegClass::Int)
      DefNodes[D.id()].push_back(N);
  }

  for (const auto &[RegId, Nodes] : DefNodes) {
    bool AnyFpa = false, AnyIntOrComm = false, AnyCopyBack = false;
    bool AnyComm = false;
    for (unsigned N : Nodes) {
      if (A.isFpa(N)) {
        AnyFpa = true;
        AnyCopyBack |= A.CopyBack[N];
      } else {
        AnyIntOrComm = true;
        AnyComm |= A.Copy[N] || A.Dup[N];
      }
    }
    if (!AnyFpa && !AnyComm)
      continue; // No FP-file presence needed.

    RegPlan &Plan = Plans[RegId];
    if (AnyFpa && !AnyIntOrComm) {
      Plan.Mode = RegMode::Retype;
      RetypeList.push_back(Reg(RegId));
      if (AnyCopyBack)
        Plan.IntReg = F.newReg(RegClass::Int);
    } else {
      Plan.Mode = RegMode::Shadow;
      Plan.FpReg = F.newReg(RegClass::Fp);
      // Copy-backs in shadow mode restore the original register, which
      // remains INT-class.
      Plan.IntReg = Reg(RegId);
    }
  }
}

Reg RewriterImpl::fpVersionOf(Reg R) {
  auto It = Plans.find(R.id());
  if (It == Plans.end()) {
    // Never-defined register consumed by FPa code: give it a zero
    // shadow (both files read as zero).
    RegPlan &Plan = Plans[R.id()];
    Plan.Mode = RegMode::Shadow;
    Plan.FpReg = F.newReg(RegClass::Fp);
    Plan.IntReg = R;
    return Plan.FpReg;
  }
  const RegPlan &Plan = It->second;
  assert(Plan.Mode != RegMode::Untouched && "FPa use of untouched register");
  return Plan.Mode == RegMode::Retype ? R : Plan.FpReg;
}

/// The integer register RDG node \p Consumer reads for \p R.
Reg RewriterImpl::intVersionOf(Reg R, unsigned Consumer) {
  auto It = Plans.find(R.id());
  if (It == Plans.end() || It->second.Mode == RegMode::Untouched ||
      It->second.Mode == RegMode::Shadow)
    return R;
  RegPlan &Plan = It->second;
  if (!Plan.IntReg.isValid()) {
    // No definition of R reaches this integer use (it sits in a block
    // no definition reaches, e.g. an unreachable one), so the use reads
    // R's initial zero. R now lives in the FP file; a fresh integer
    // register that is never written reads the same zero.
    assert(std::none_of(G.node(Consumer).Preds.begin(),
                        G.node(Consumer).Preds.end(),
                        [&](unsigned P) { return G.node(P).Def == R; }) &&
           "retyped register consumed as integer without a copy-back");
    (void)Consumer;
    Plan.IntReg = F.newReg(RegClass::Int);
  }
  return Plan.IntReg;
}

void RewriterImpl::planInsertAfter(const Instruction &I,
                                   std::unique_ptr<Instruction> New) {
  sir::BasicBlock *BB = I.parent();
  Insertions.push_back(
      Insertion{BB, BB->positionOf(&I) + 1, Insertions.size(),
                std::move(New)});
}

void RewriterImpl::rewriteInstruction(Instruction &I) {
  const Opcode Op = I.op();

  // Native FP instructions are untouched by integer partitioning.
  if (sir::isFpOpcode(Op))
    return;

  auto MakeCopyToFp = [&](Reg FpDst, Reg IntSrc) {
    auto C = std::make_unique<Instruction>(Opcode::CpToFp);
    C->setDef(FpDst);
    C->uses() = {IntSrc};
    return C;
  };
  auto MakeCopyToInt = [&](Reg IntDst, Reg FpSrc) {
    auto C = std::make_unique<Instruction>(Opcode::CpToInt);
    C->setDef(IntDst);
    C->uses() = {FpSrc};
    return C;
  };

  if (I.isLoad()) {
    unsigned Val = G.valueNode(I);
    Reg D = I.def();
    // Native FP loads (l.s in the source) need no rewriting.
    if (F.regClass(D) == RegClass::Fp)
      return;
    if (A.isFpa(Val)) {
      // Loads directly into the FP file (the l.s form).
      if (Plans[D.id()].Mode == RegMode::Shadow)
        I.setDef(Plans[D.id()].FpReg);
      if (A.CopyBack[Val]) {
        auto C = MakeCopyToInt(intVersionOf(D, Val), fpVersionOf(D));
        Report.CopyBackInstrs.push_back(C.get());
        planInsertAfter(I, std::move(C));
      }
    } else if (A.Copy[Val]) {
      auto C = MakeCopyToFp(fpVersionOf(D), D);
      Report.CopyInstrs.push_back(C.get());
      planInsertAfter(I, std::move(C));
    }
    return; // Address side (base register) always stays INT.
  }

  if (I.isStore()) {
    unsigned Val = G.valueNode(I);
    if (A.isFpa(Val) && !I.uses().empty() &&
        F.regClass(I.uses()[0]) != RegClass::Fp)
      I.uses()[0] = fpVersionOf(I.uses()[0]); // s.s form.
    return;
  }

  if (Op == Opcode::Call) {
    unsigned N = G.primaryNode(I);
    // Arguments stay in integer registers; producers that moved to FPa
    // already planted copy-backs next to their definitions.
    for (Reg &U : I.uses())
      U = intVersionOf(U, N);
    if (I.def().isValid() && A.Copy[N]) {
      auto C = MakeCopyToFp(fpVersionOf(I.def()), I.def());
      Report.CopyInstrs.push_back(C.get());
      planInsertAfter(I, std::move(C));
    }
    return;
  }

  if (Op == Opcode::Ret) {
    for (Reg &U : I.uses())
      U = intVersionOf(U, G.primaryNode(I));
    return;
  }

  if (Op == Opcode::Out) {
    unsigned N = G.primaryNode(I);
    if (A.isFpa(N)) {
      I.setInFpa(true);
      for (Reg &U : I.uses())
        U = fpVersionOf(U);
    }
    return;
  }

  if (Op == Opcode::Jump)
    return;

  // Plain nodes: ALU operations, conditional branches, copies.
  unsigned N = G.primaryNode(I);
  if (N == ~0u)
    return;

  if (A.isFpa(N)) {
    I.setInFpa(true);
    for (Reg &U : I.uses())
      U = fpVersionOf(U);
    if (I.def().isValid()) {
      Reg D = I.def();
      if (Plans[D.id()].Mode == RegMode::Shadow)
        I.setDef(Plans[D.id()].FpReg);
      if (A.CopyBack[N]) {
        auto C = MakeCopyToInt(intVersionOf(D, N), fpVersionOf(D));
        Report.CopyBackInstrs.push_back(C.get());
        planInsertAfter(I, std::move(C));
      }
    }
    return;
  }

  // INT-side plain node: insert communication if flagged.
  if (A.Dup[N]) {
    Reg D = I.def();
    auto Clone = std::make_unique<Instruction>(I.op());
    Clone->setInFpa(true);
    Clone->setImm(I.imm());
    Clone->setDef(fpVersionOf(D));
    for (Reg U : I.uses())
      Clone->uses().push_back(fpVersionOf(U));
    Report.DupInstrs.push_back(Clone.get());
    planInsertAfter(I, std::move(Clone));
  } else if (A.Copy[N]) {
    Reg D = I.def();
    auto C = MakeCopyToFp(fpVersionOf(D), D);
    Report.CopyInstrs.push_back(C.get());
    planInsertAfter(I, std::move(C));
  }
}

void RewriterImpl::applyInsertions() {
  // Descending position within each block keeps earlier indices stable;
  // equal positions apply in reverse sequence order so the final layout
  // preserves creation order.
  std::stable_sort(Insertions.begin(), Insertions.end(),
                   [](const Insertion &L, const Insertion &R) {
                     if (L.BB != R.BB)
                       return L.BB < R.BB;
                     if (L.Pos != R.Pos)
                       return L.Pos > R.Pos;
                     return L.Seq > R.Seq;
                   });
  for (auto &Ins : Insertions)
    Ins.BB->insertAt(Ins.Pos, std::move(Ins.I));
}

RewriteReport RewriterImpl::run() {
  planRegisters();

  // Formal-parameter copies enter at the top of the entry block.
  for (unsigned FI = 0; FI < F.formals().size(); ++FI) {
    unsigned N = G.formalNode(FI);
    if (!A.Copy[N])
      continue;
    Reg Formal = F.formals()[FI];
    auto C = std::make_unique<Instruction>(Opcode::CpToFp);
    C->setDef(fpVersionOf(Formal));
    C->uses() = {Formal};
    Report.CopyInstrs.push_back(C.get());
    Insertions.push_back(
        Insertion{F.entry(), 0, Insertions.size(), std::move(C)});
  }

  // Field rewrites first (they read RDG node ids, which insertion would
  // not invalidate, but keeping phases separate is simpler to reason
  // about), then the planned insertions, then register retyping.
  for (const auto &BB : F.blocks())
    for (const auto &I : BB->instructions())
      rewriteInstruction(*I);

  applyInsertions();

  for (Reg R : RetypeList)
    F.setRegClass(R, RegClass::Fp);

  F.renumber();
  return std::move(Report);
}

} // namespace

RewriteReport partition::applyAssignment(sir::Function &F,
                                         const Assignment &A) {
  return RewriterImpl(F, A).run();
}
