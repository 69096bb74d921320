//===- partition/Partitioner.cpp - Whole-module partitioning driver -------===//

#include "partition/Partitioner.h"

#include "analysis/CFG.h"
#include "analysis/RDG.h"
#include "partition/AdvancedPartitioner.h"
#include "partition/BasicPartitioner.h"

#include <unordered_set>

using namespace fpint;
using namespace fpint::partition;

const char *partition::schemeName(Scheme S) {
  switch (S) {
  case Scheme::None:
    return "conventional";
  case Scheme::Basic:
    return "basic";
  case Scheme::Advanced:
    return "advanced";
  }
  return "<bad>";
}

ModuleRewrite partition::partitionModule(sir::Module &M, Scheme S,
                                         const vm::Profile *ProfileWeights,
                                         CostParams Params) {
  ModuleRewrite Result;
  if (S == Scheme::None)
    return Result;
  if (S == Scheme::Advanced) {
    std::string Error = costParamsError(Params);
    if (!Error.empty()) {
      Result.Errors.push_back(std::move(Error));
      return Result;
    }
  }

  const analysis::BlockWeights Weights(M, ProfileWeights);
  for (const auto &F : M.functions()) {
    F->renumber();
    const analysis::CFG Cfg(*F);
    const analysis::RDG G(*F, Cfg);

    Assignment A = S == Scheme::Basic
                       ? partitionBasic(G)
                       : partitionAdvanced(G, Weights, Params);

    std::vector<std::string> Errs = validateAssignment(A);
    if (S == Scheme::Basic && !satisfiesBasicConditions(A))
      Errs.push_back(F->name() +
                     ": basic partition violates Section 5.1 conditions");
    for (std::string &E : Errs)
      Result.Errors.push_back(F->name() + ": " + E);
    if (!Errs.empty())
      continue; // Leave this function unpartitioned.

    RewriteReport Report = applyAssignment(*F, A);
    Result.StaticCopies += static_cast<unsigned>(Report.CopyInstrs.size());
    Result.StaticDups += static_cast<unsigned>(Report.DupInstrs.size());
    Result.StaticCopyBacks +=
        static_cast<unsigned>(Report.CopyBackInstrs.size());
    Result.Reports.emplace(F.get(), std::move(Report));
  }
  return Result;
}

DynStats partition::computeDynStats(const sir::Module &M,
                                    const vm::Profile &MeasureProfile,
                                    const ModuleRewrite *Rewrite) {
  // Gather the inserted-instruction sets for classification.
  std::unordered_set<const sir::Instruction *> CopySet, DupSet, CopyBackSet;
  if (Rewrite) {
    for (const auto &[F, Report] : Rewrite->Reports) {
      (void)F;
      CopySet.insert(Report.CopyInstrs.begin(), Report.CopyInstrs.end());
      DupSet.insert(Report.DupInstrs.begin(), Report.DupInstrs.end());
      CopyBackSet.insert(Report.CopyBackInstrs.begin(),
                         Report.CopyBackInstrs.end());
    }
  }

  DynStats Stats;
  for (const auto &F : M.functions()) {
    for (const auto &BB : F->blocks()) {
      uint64_t Count = MeasureProfile.countOf(BB.get());
      if (Count == 0)
        continue;
      for (const auto &I : BB->instructions()) {
        Stats.Total += Count;
        if (I->inFpa())
          Stats.Fpa += Count;
        if (sir::isFpOpcode(I->op()))
          Stats.NativeFp += Count;
        if (I->isLoad())
          Stats.Loads += Count;
        if (I->isStore())
          Stats.Stores += Count;
        if (CopySet.count(I.get()))
          Stats.Copies += Count;
        if (DupSet.count(I.get()))
          Stats.Dups += Count;
        if (CopyBackSet.count(I.get()))
          Stats.CopyBacks += Count;
      }
    }
  }
  return Stats;
}
