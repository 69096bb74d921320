//===- opt/Passes.cpp - Machine-independent optimizations -----------------===//

#include "opt/Passes.h"

#include <algorithm>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace fpint;
using namespace fpint::opt;
using sir::BasicBlock;
using sir::Function;
using sir::Instruction;
using sir::Opcode;
using sir::Reg;

namespace {

/// True for instructions with no side effects whose only product is
/// their destination register. Loads are excluded: removing one could
/// suppress an out-of-bounds fault.
bool isPure(const Instruction &I) {
  switch (I.op()) {
  case Opcode::Call:
  case Opcode::Ret:
  case Opcode::Jump:
  case Opcode::Out:
    return false;
  default:
    break;
  }
  if (I.isCondBranch() || I.isStore() || I.isLoad())
    return false;
  return I.def().isValid();
}

/// Evaluates a foldable integer operation. Mirrors VM semantics.
bool evalConst(Opcode Op, int32_t A, int32_t B, int64_t Imm, int32_t &Out) {
  auto U = [](int32_t V) { return static_cast<uint32_t>(V); };
  switch (Op) {
  case Opcode::Add:
    Out = static_cast<int32_t>(U(A) + U(B));
    return true;
  case Opcode::Sub:
    Out = static_cast<int32_t>(U(A) - U(B));
    return true;
  case Opcode::AddI:
    Out = static_cast<int32_t>(U(A) + U(static_cast<int32_t>(Imm)));
    return true;
  case Opcode::And:
    Out = A & B;
    return true;
  case Opcode::AndI:
    Out = A & static_cast<int32_t>(Imm);
    return true;
  case Opcode::Or:
    Out = A | B;
    return true;
  case Opcode::OrI:
    Out = A | static_cast<int32_t>(Imm);
    return true;
  case Opcode::Xor:
    Out = A ^ B;
    return true;
  case Opcode::XorI:
    Out = A ^ static_cast<int32_t>(Imm);
    return true;
  case Opcode::Nor:
    Out = ~(A | B);
    return true;
  case Opcode::Sll:
    Out = static_cast<int32_t>(U(A) << (Imm & 31));
    return true;
  case Opcode::Srl:
    Out = static_cast<int32_t>(U(A) >> (Imm & 31));
    return true;
  case Opcode::Sra:
    Out = A >> (Imm & 31);
    return true;
  case Opcode::SllV:
    Out = static_cast<int32_t>(U(A) << (B & 31));
    return true;
  case Opcode::SrlV:
    Out = static_cast<int32_t>(U(A) >> (B & 31));
    return true;
  case Opcode::SraV:
    Out = A >> (B & 31);
    return true;
  case Opcode::Slt:
    Out = A < B;
    return true;
  case Opcode::SltU:
    Out = U(A) < U(B);
    return true;
  case Opcode::SltI:
    Out = A < static_cast<int32_t>(Imm);
    return true;
  case Opcode::Mul:
    Out = static_cast<int32_t>(U(A) * U(B));
    return true;
  case Opcode::Div:
    if (B == 0 || (A == INT32_MIN && B == -1))
      Out = 0;
    else
      Out = A / B;
    return true;
  case Opcode::Rem:
    if (B == 0 || (A == INT32_MIN && B == -1))
      Out = A;
    else
      Out = A % B;
    return true;
  default:
    return false;
  }
}

/// Turns \p I into "move Def, Src" preserving class (FMove for FP).
void rewriteToMove(Function &F, Instruction &I, Reg Src) {
  bool Fp = F.regClass(I.def()) == sir::RegClass::Fp;
  I.setOp(Fp ? Opcode::FMove : Opcode::Move);
  I.uses() = {Src};
  I.setImm(0);
  // A retargeted instruction loses any FPa marking only if the move
  // cannot carry it; integer moves remain offloadable, so keep the bit.
  if (Fp && I.inFpa())
    I.setInFpa(false);
}

} // namespace

bool opt::isPureInstr(const Instruction &I) { return isPure(I); }

unsigned opt::propagateCopies(Function &F) {
  unsigned Changed = 0;
  for (const auto &BB : F.blocks()) {
    // Current copy source per register (resolving chains on record).
    std::unordered_map<uint32_t, Reg> Source;
    auto Invalidate = [&](Reg Def) {
      Source.erase(Def.id());
      for (auto It = Source.begin(); It != Source.end();)
        It = It->second == Def ? Source.erase(It) : std::next(It);
    };
    for (const auto &I : BB->instructions()) {
      // Rewrite uses first.
      for (Reg &U : I->uses()) {
        auto It = Source.find(U.id());
        if (It != Source.end() && It->second != U) {
          U = It->second;
          ++Changed;
        }
      }
      if (I->mem().Base.isValid()) {
        auto It = Source.find(I->mem().Base.id());
        if (It != Source.end() && It->second != I->mem().Base) {
          I->mem().Base = It->second;
          ++Changed;
        }
      }
      if (!I->def().isValid())
        continue;
      Invalidate(I->def());
      if ((I->op() == Opcode::Move || I->op() == Opcode::FMove) &&
          I->uses()[0] != I->def() &&
          F.regClass(I->uses()[0]) == F.regClass(I->def())) {
        Reg Src = I->uses()[0];
        auto It = Source.find(Src.id());
        Source[I->def().id()] = It != Source.end() ? It->second : Src;
      }
    }
  }
  return Changed;
}

unsigned opt::foldConstants(Function &F) {
  unsigned Changed = 0;
  for (const auto &BB : F.blocks()) {
    std::unordered_map<uint32_t, int32_t> Consts;
    for (const auto &I : BB->instructions()) {
      const Opcode Op = I->op();
      auto ConstOf = [&](Reg R, int32_t &V) {
        auto It = Consts.find(R.id());
        if (It == Consts.end())
          return false;
        V = It->second;
        return true;
      };

      bool Simplified = false;
      if (isPure(*I) && Op != Opcode::Move && Op != Opcode::FMove &&
          Op != Opcode::La && !sir::isFpOpcode(Op)) {
        int32_t A = 0, B = 0, Result = 0;
        const auto &Uses = I->uses();
        bool HaveA = !Uses.empty() && ConstOf(Uses[0], A);
        bool HaveB = Uses.size() > 1 ? ConstOf(Uses[1], B) : true;
        if ((Uses.empty() || (HaveA && HaveB)) &&
            evalConst(Op, A, B, I->imm(), Result)) {
          bool Fpa = I->inFpa();
          I->setOp(Opcode::Li);
          I->uses().clear();
          I->setImm(Result);
          I->setInFpa(Fpa);
          Simplified = true;
          ++Changed;
        } else if (Uses.size() == 1) {
          // Algebraic identities on register-immediate forms.
          int64_t Imm = I->imm();
          bool Identity =
              (Op == Opcode::AddI && Imm == 0) ||
              (Op == Opcode::OrI && Imm == 0) ||
              (Op == Opcode::XorI && Imm == 0) ||
              ((Op == Opcode::Sll || Op == Opcode::Srl ||
                Op == Opcode::Sra) &&
               (Imm & 31) == 0) ||
              (Op == Opcode::AndI && Imm == -1);
          if (Identity) {
            Reg Src = I->uses()[0];
            bool Fpa = I->inFpa();
            rewriteToMove(F, *I, Src);
            I->setInFpa(Fpa && !sir::isFpOpcode(I->op()));
            Simplified = true;
            ++Changed;
          }
        }
      }

      if (!I->def().isValid())
        continue;
      Consts.erase(I->def().id());
      if (I->op() == Opcode::Li)
        Consts[I->def().id()] = static_cast<int32_t>(I->imm());
      (void)Simplified;
    }
  }
  return Changed;
}

unsigned opt::eliminateCommonSubexpressions(Function &F) {
  unsigned Changed = 0;
  for (const auto &BB : F.blocks()) {
    // Available pure expressions: key -> defining register.
    struct Expr {
      Opcode Op;
      int64_t Imm;
      uint32_t U0, U1;
      bool operator<(const Expr &O) const {
        return std::tie(Op, Imm, U0, U1) < std::tie(O.Op, O.Imm, O.U0, O.U1);
      }
    };
    std::map<Expr, Reg> Available;
    auto InvalidateReg = [&](Reg Def) {
      for (auto It = Available.begin(); It != Available.end();) {
        bool Kill = It->second == Def || It->first.U0 == Def.id() ||
                    It->first.U1 == Def.id();
        It = Kill ? Available.erase(It) : std::next(It);
      }
    };
    for (const auto &I : BB->instructions()) {
      const bool Candidate =
          isPure(*I) && I->op() != Opcode::Move && I->op() != Opcode::FMove &&
          I->op() != Opcode::CpToFp && I->op() != Opcode::CpToInt &&
          I->op() != Opcode::Li && I->op() != Opcode::FLi &&
          I->op() != Opcode::La && !I->inFpa();
      if (Candidate) {
        Expr Key{I->op(), I->imm(),
                 I->uses().size() > 0 ? I->uses()[0].id() : 0,
                 I->uses().size() > 1 ? I->uses()[1].id() : 0};
        auto It = Available.find(Key);
        if (It != Available.end() &&
            F.regClass(It->second) == F.regClass(I->def())) {
          rewriteToMove(F, *I, It->second);
          ++Changed;
          if (I->def().isValid())
            InvalidateReg(I->def());
          continue;
        }
        if (I->def().isValid()) {
          InvalidateReg(I->def());
          // An instruction that redefines one of its own operands
          // (add %a, %a, %b) computes an expression over the *old*
          // value; recording it would match later recomputations that
          // see the new value.
          bool DefIsOperand = false;
          for (Reg U : I->uses())
            DefIsOperand |= U == I->def();
          if (!DefIsOperand)
            Available.emplace(Key, I->def());
          continue;
        }
      }
      if (I->def().isValid())
        InvalidateReg(I->def());
    }
  }
  return Changed;
}

unsigned opt::eliminateDeadCode(Function &F) {
  unsigned Removed = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    // Global use census.
    std::unordered_set<uint32_t> Used;
    F.forEachInstr([&](const Instruction &I) {
      I.forEachUse([&](Reg R, sir::UseKind) { Used.insert(R.id()); });
    });
    for (Reg Formal : F.formals())
      Used.insert(Formal.id()); // Formals are externally visible.

    for (const auto &BB : F.blocks()) {
      auto &Instrs = BB->instructions();
      for (size_t Pos = 0; Pos < Instrs.size();) {
        Instruction &I = *Instrs[Pos];
        if (isPure(I) && !Used.count(I.def().id())) {
          Instrs.erase(Instrs.begin() + Pos);
          ++Removed;
          Changed = true;
          continue;
        }
        ++Pos;
      }
    }
  }
  return Removed;
}

OptReport opt::optimizeModule(sir::Module &M, const OptOptions &Opts) {
  OptReport Report;
  const unsigned Cap = std::max(1u, Opts.MaxRounds);
  for (const auto &F : M.functions()) {
    unsigned Rounds = 0;
    bool LastRoundChanged = false;
    for (unsigned Round = 0; Round < Cap; ++Round) {
      unsigned Before = Report.total();
      Report.CopiesPropagated += propagateCopies(*F);
      Report.ConstantsFolded += foldConstants(*F);
      Report.SubexpressionsEliminated +=
          eliminateCommonSubexpressions(*F);
      Report.DeadInstructionsRemoved += eliminateDeadCode(*F);
      ++Rounds;
      LastRoundChanged = Report.total() != Before;
      if (!LastRoundChanged)
        break;
    }
    Report.TotalRounds += Rounds;
    Report.MaxFunctionRounds = std::max(Report.MaxFunctionRounds, Rounds);
    if (LastRoundChanged)
      ++Report.FunctionsHitCap; // Cut off before a proven fixpoint.
  }
  M.renumber();
  return Report;
}
