//===- transform/LICM.cpp - Loop-invariant code motion --------------------===//

#include "transform/Transforms.h"

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "analysis/LoopInfo.h"
#include "opt/Passes.h"
#include "regalloc/Liveness.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace fpint;
using sir::Instruction;
using sir::Reg;

namespace {

/// One scan over every loop with fresh analyses. Returns instructions
/// hoisted. Conditions are stated in Transforms.h; HoistedRegs keeps
/// this scan honest against its own (now stale) liveness: any
/// candidate touching a register whose definition moved this scan
/// waits for the next scan.
unsigned hoistOnce(sir::Function &F) {
  const analysis::CFG Cfg(F);
  const analysis::DominatorTree DT(F, Cfg);
  const analysis::LoopInfo LI(F, Cfg, DT);
  const regalloc::Liveness Live(F, Cfg);

  unsigned Hoisted = 0;
  std::unordered_set<uint32_t> HoistedRegs;

  // Innermost first (loops() is outermost-first), so invariants leave
  // the innermost loop now and can leave the enclosing loop next scan.
  const auto &Loops = LI.loops();
  for (size_t LoopIdx = Loops.size(); LoopIdx-- > 0;) {
    const analysis::Loop &L = Loops[LoopIdx];
    if (L.Preheader == analysis::Loop::NoBlock)
      continue;
    sir::BasicBlock &Pre = *F.blocks()[L.Preheader];

    // Definition census inside the loop, kept current as hoists move
    // definitions out (users of a freed operand still wait for the
    // next scan's fresh liveness -- see the Stale guard below).
    std::unordered_map<uint32_t, unsigned> DefsInLoop;
    for (unsigned B : L.Blocks)
      for (const auto &I : F.blocks()[B]->instructions())
        if (I->def().isValid())
          ++DefsInLoop[I->def().id()];

    std::vector<std::pair<unsigned, Instruction *>> Candidates;
    for (unsigned B : L.Blocks)
      for (const auto &I : F.blocks()[B]->instructions())
        if (opt::isPureInstr(*I) && !I->inFpa())
          Candidates.push_back({B, I.get()});

    for (auto &[B, I] : Candidates) {
      Reg Def = I->def();
      if (DefsInLoop[Def.id()] != 1)
        continue; // (b) sole definition in the loop (self-reads too).
      if (Live.liveIn(L.Header, Def))
        continue; // (c) an early value could be observed.
      bool Invariant = true;
      for (Reg U : I->uses())
        Invariant &= DefsInLoop.count(U.id())
                         ? DefsInLoop[U.id()] == 0
                         : true;
      if (!Invariant)
        continue; // (a) operand defined inside the loop.
      bool DominatesExits = true;
      for (unsigned E : L.Exiting)
        DominatesExits &= DT.dominates(B, E);
      if (!DominatesExits)
        continue; // (d) might not have executed on some trips.
      bool Stale = HoistedRegs.count(Def.id()) != 0;
      for (Reg U : I->uses())
        Stale |= HoistedRegs.count(U.id()) != 0;
      if (Stale)
        continue; // Liveness no longer describes these registers.

      // Move into the preheader, ahead of its terminator when present.
      sir::BasicBlock &Src = *F.blocks()[B];
      auto &SrcInstrs = Src.instructions();
      size_t Pos = Src.positionOf(I);
      std::unique_ptr<Instruction> Taken = std::move(SrcInstrs[Pos]);
      SrcInstrs.erase(SrcInstrs.begin() + Pos);
      auto &PreInstrs = Pre.instructions();
      size_t At = PreInstrs.size();
      if (At && PreInstrs.back()->isTerminator())
        --At;
      Pre.insertAt(At, std::move(Taken));
      --DefsInLoop[Def.id()];
      HoistedRegs.insert(Def.id());
      ++Hoisted;
    }
  }
  return Hoisted;
}

} // namespace

unsigned transform::runLICM(sir::Function &F) {
  if (F.blocks().empty())
    return 0;
  unsigned Total = 0;
  // Instructions only ever leave loops, so this terminates; the cap is
  // a backstop for pathological inputs.
  for (unsigned Round = 0; Round < 8; ++Round) {
    unsigned Hoisted = hoistOnce(F);
    if (!Hoisted)
      break;
    Total += Hoisted;
    F.renumber();
  }
  return Total;
}
