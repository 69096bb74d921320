//===- regalloc/LiveIntervals.cpp - Per-register live intervals -----------===//

#include "regalloc/LiveIntervals.h"

#include <algorithm>

using namespace fpint;
using namespace fpint::regalloc;
using sir::Instruction;
using sir::Opcode;
using sir::Reg;

LiveIntervals::LiveIntervals(const sir::Function &F,
                             const analysis::CFG &Cfg,
                             const Liveness &Live) {
  // Linear positions (2 apart so "before" and "after" slots exist),
  // assigned in CFG block order -- the same numbering every allocator
  // historically computed inline.
  BlockStarts.resize(Cfg.numBlocks());
  BlockEnds.resize(Cfg.numBlocks());
  InstrPos.resize(F.numInstrIds());
  unsigned Pos = 0;
  for (unsigned B = 0; B < Cfg.numBlocks(); ++B) {
    BlockStarts[B] = Pos;
    for (const auto &I : F.blocks()[B]->instructions()) {
      InstrPos[I->id()] = Pos;
      if (I->op() == Opcode::Call)
        CallPositions.push_back(Pos);
      Pos += 2;
    }
    BlockEnds[B] = Pos;
  }

  Ranges.assign(F.numRegs(), Range());
  F.forEachInstr([&](const Instruction &I) {
    if (I.def().isValid())
      Ranges[I.def().id()].Defined = true;
    I.forEachUse([&](Reg R, sir::UseKind) { Ranges[R.id()].Used = true; });
  });

  auto Extend = [&](Reg R, unsigned At) {
    Range &Rg = Ranges[R.id()];
    if (Rg.Start == ~0u) {
      Rg.Start = Rg.End = At;
      return;
    }
    Rg.Start = std::min(Rg.Start, At);
    Rg.End = std::max(Rg.End, At);
  };

  for (unsigned B = 0; B < Cfg.numBlocks(); ++B) {
    // Extend keeps a hull, so the order of these calls does not matter.
    Live.forEachLiveIn(B, [&](Reg R) { Extend(R, BlockStarts[B]); });
    Live.forEachLiveOut(B, [&](Reg R) { Extend(R, BlockEnds[B]); });
    for (const auto &I : F.blocks()[B]->instructions()) {
      unsigned P = InstrPos[I->id()];
      I->forEachUse([&](Reg R, sir::UseKind) { Extend(R, P); });
      if (I->def().isValid())
        Extend(I->def(), P);
    }
  }

  // CallPositions is ascending by construction, so "a call strictly
  // inside (Start, End)" is one binary search per register.
  for (unsigned R = 1; R < F.numRegs(); ++R) {
    Range &Rg = Ranges[R];
    if (Rg.Start == ~0u)
      continue;
    auto It = std::lower_bound(CallPositions.begin(), CallPositions.end(),
                               Rg.Start + 1);
    Rg.CrossesCall = It != CallPositions.end() && *It < Rg.End;
  }
}
