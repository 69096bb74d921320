//===- partition/FpArgPassing.cpp - Section 6.6 interprocedural extension -===//

#include "partition/FpArgPassing.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>

using namespace fpint;
using namespace fpint::partition;
using sir::Function;
using sir::Instruction;
using sir::Opcode;
using sir::Reg;
using sir::RegClass;

namespace {

/// Per-function def/use census for one register.
struct RegUsage {
  std::vector<Instruction *> Defs;
  std::vector<Instruction *> Uses; ///< Including memory bases.
};

std::unordered_map<uint32_t, RegUsage> censusOf(Function &F) {
  std::unordered_map<uint32_t, RegUsage> Census;
  for (const auto &BB : F.blocks()) {
    for (const auto &I : BB->instructions()) {
      if (I->def().isValid())
        Census[I->def().id()].Defs.push_back(I.get());
      I->forEachUse([&](Reg R, sir::UseKind) {
        Census[R.id()].Uses.push_back(I.get());
      });
    }
  }
  return Census;
}

} // namespace

FpArgReport partition::passArgsInFpRegisters(sir::Module &M,
                                             ModuleRewrite &RW) {
  FpArgReport Report;

  // Index the partitioner's inserted copies for membership checks.
  std::unordered_set<const Instruction *> EntryCopies, CopyBacks;
  for (const auto &[F, FR] : RW.Reports) {
    (void)F;
    EntryCopies.insert(FR.CopyInstrs.begin(), FR.CopyInstrs.end());
    CopyBacks.insert(FR.CopyBackInstrs.begin(), FR.CopyBackInstrs.end());
  }

  // Call sites per callee name.
  struct Site {
    Function *Caller;
    Instruction *Call;
  };
  std::unordered_map<std::string, std::vector<Site>> Sites;
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->instructions())
        if (I->op() == Opcode::Call)
          Sites[I->callee()].push_back(Site{F.get(), I.get()});

  for (const auto &CalleePtr : M.functions()) {
    Function &Callee = *CalleePtr;
    if (Callee.formals().empty())
      continue;
    auto SitesIt = Sites.find(Callee.name());
    if (SitesIt == Sites.end() || SitesIt->second.empty())
      continue; // Never called (e.g. main): nothing to gain.

    auto CalleeCensus = censusOf(Callee);

    for (size_t K = 0; K < Callee.formals().size(); ++K) {
      Reg Formal = Callee.formals()[K];
      if (Callee.regClass(Formal) != RegClass::Int)
        continue; // Already converted.

      // Callee condition: the formal's one and only consumer is the
      // entry cp_to_fp the advanced scheme inserted, and nothing
      // redefines it.
      const RegUsage &FU = CalleeCensus[Formal.id()];
      if (!FU.Defs.empty() || FU.Uses.size() != 1)
        continue;
      Instruction *EntryCopy = FU.Uses[0];
      if (EntryCopy->op() != Opcode::CpToFp || !EntryCopies.count(EntryCopy))
        continue;
      if (EntryCopy->parent() != Callee.entry())
        continue;
      Reg Shadow = EntryCopy->def();

      // Caller condition at every site: the argument register's single
      // definition is a copy-back of an FPa-resident value with a
      // single (static) definition of its own.
      struct Plan {
        Instruction *CopyBack;
        Reg FpSrc;
        Function *Caller;
      };
      std::vector<Plan> Plans;
      bool AllConvertible = true;
      for (const Site &S : SitesIt->second) {
        Reg ArgReg = S.Call->uses()[K];
        auto CallerCensus = censusOf(*S.Caller);
        const RegUsage &AU = CallerCensus[ArgReg.id()];
        if (AU.Defs.size() != 1 ||
            AU.Defs[0]->op() != Opcode::CpToInt ||
            !CopyBacks.count(AU.Defs[0])) {
          AllConvertible = false;
          break;
        }
        Reg FpSrc = AU.Defs[0]->uses()[0];
        if (CallerCensus[FpSrc.id()].Defs.size() != 1) {
          AllConvertible = false;
          break;
        }
        Plans.push_back(Plan{AU.Defs[0], FpSrc, S.Caller});
      }
      if (!AllConvertible || Plans.size() != SitesIt->second.size())
        continue;

      // Convert the slot.
      for (size_t SI = 0; SI < SitesIt->second.size(); ++SI) {
        const Site &S = SitesIt->second[SI];
        S.Call->uses()[K] = Plans[SI].FpSrc;
      }

      // Callee: the FP shadow becomes the formal; the entry copy dies.
      std::vector<Reg> NewFormals = Callee.formals();
      NewFormals[K] = Shadow;
      Callee.setFormals(NewFormals);
      Callee.entry()->erase(EntryCopy);
      auto &CalleeReport = RW.Reports[&Callee];
      CalleeReport.CopyInstrs.erase(
          std::remove(CalleeReport.CopyInstrs.begin(),
                      CalleeReport.CopyInstrs.end(), EntryCopy),
          CalleeReport.CopyInstrs.end());
      EntryCopies.erase(EntryCopy);
      ++Report.EntryCopiesRemoved;

      // Callers: drop copy-backs whose integer value now has no
      // consumers. Sites that pass the same argument register share
      // one copy-back, which an earlier Plan may already have erased.
      for (const Plan &P : Plans) {
        if (!CopyBacks.count(P.CopyBack))
          continue;
        auto Census = censusOf(*P.Caller); // Recompute after rewiring.
        Reg IntDef = P.CopyBack->def();
        if (!Census[IntDef.id()].Uses.empty())
          continue; // Still feeding another integer consumer.
        P.CopyBack->parent()->erase(P.CopyBack);
        auto &CallerReport = RW.Reports[P.Caller];
        CallerReport.CopyBackInstrs.erase(
            std::remove(CallerReport.CopyBackInstrs.begin(),
                        CallerReport.CopyBackInstrs.end(), P.CopyBack),
            CallerReport.CopyBackInstrs.end());
        CopyBacks.erase(P.CopyBack);
        ++Report.CopyBacksRemoved;
      }
      ++Report.ArgsConverted;

      // The census indexed instruction pointers we just deleted;
      // rebuild for the next formal slot.
      CalleeCensus = censusOf(Callee);
    }
  }

  M.renumber();
  return Report;
}
