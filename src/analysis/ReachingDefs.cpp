//===- analysis/ReachingDefs.cpp - Reaching-definitions dataflow ----------===//

#include "analysis/ReachingDefs.h"

#include <algorithm>
#include <cassert>
#include <cstdint>

using namespace fpint;
using namespace fpint::analysis;
using sir::Instruction;
using sir::Reg;

ReachingDefs::ReachingDefs(const sir::Function &F, const CFG &Cfg) {
  // Enumerate def sites: formals first (entry definitions), then every
  // instruction def in layout order.
  const unsigned NumRegs = F.numRegs();
  std::vector<unsigned> DefIdxOf(F.numInstrIds(), ~0u);
  for (Reg Formal : F.formals())
    Defs.push_back(DefSite{nullptr, Formal});
  F.forEachInstr([&](const Instruction &I) {
    if (!I.def().isValid())
      return;
    assert(I.id() < DefIdxOf.size() && "function not renumbered");
    DefIdxOf[I.id()] = static_cast<unsigned>(Defs.size());
    Defs.push_back(DefSite{&I, I.def()});
  });
  const unsigned NumDefs = static_cast<unsigned>(Defs.size());

  // Def sites of each register, ascending, as one flat list indexed by
  // register id: register R's sites are
  // RegDefs[RegBegin[R] .. RegBegin[R + 1]).
  std::vector<unsigned> RegBegin(NumRegs + 1, 0);
  for (const DefSite &D : Defs)
    ++RegBegin[D.R.id() + 1];
  for (unsigned R = 0; R < NumRegs; ++R)
    RegBegin[R + 1] += RegBegin[R];
  std::vector<unsigned> RegDefs(NumDefs);
  {
    std::vector<unsigned> Fill(RegBegin.begin(), RegBegin.end() - 1);
    for (unsigned D = 0; D < NumDefs; ++D)
      RegDefs[Fill[Defs[D].R.id()]++] = D;
  }

  // Dataflow sets: NumBlocks x Words 64-bit words each, bit D for def
  // site D.
  const unsigned NumBlocks = Cfg.numBlocks();
  const unsigned Words = (NumDefs + 63) / 64;
  const size_t Total = size_t(NumBlocks) * Words;
  auto Set = [](uint64_t *S, unsigned D) { S[D / 64] |= 1ULL << (D % 64); };

  // GEN/KILL per block: the last definition of each register in the
  // block is generated and kills the register's other definitions.
  // Walking the block backwards, a register's first def seen is its
  // last; DefBlock stamps the registers already seen in this block.
  std::vector<uint64_t> Gen(Total, 0), Kill(Total, 0);
  std::vector<unsigned> DefBlock(NumRegs, ~0u);
  for (unsigned B = 0; B < NumBlocks; ++B) {
    uint64_t *G = Gen.data() + size_t(B) * Words;
    uint64_t *K = Kill.data() + size_t(B) * Words;
    const auto &Instrs = F.blocks()[B]->instructions();
    for (auto It = Instrs.rbegin(); It != Instrs.rend(); ++It) {
      const Instruction &I = **It;
      if (!I.def().isValid() || DefBlock[I.def().id()] == B)
        continue;
      const uint32_t R = I.def().id();
      DefBlock[R] = B;
      const unsigned DefIdx = DefIdxOf[I.id()];
      Set(G, DefIdx);
      for (unsigned P = RegBegin[R]; P < RegBegin[R + 1]; ++P)
        if (RegDefs[P] != DefIdx)
          Set(K, RegDefs[P]);
    }
  }

  // Entry IN: formal-parameter definitions. In and Out grow from empty
  // to the least fixpoint, which no visiting order changes.
  std::vector<uint64_t> In(Total, 0), Out(Total, 0);
  std::vector<uint64_t> EntryIn(Words, 0);
  for (unsigned D = 0; D < F.formals().size(); ++D)
    Set(EntryIn.data(), D);

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned B : Cfg.reversePostOrder()) {
      const size_t Base = size_t(B) * Words;
      const std::vector<unsigned> &Preds = Cfg.predecessors(B);
      for (unsigned W = 0; W < Words; ++W) {
        uint64_t NewIn = B == 0 ? EntryIn[W] : 0;
        for (unsigned P : Preds)
          NewIn |= Out[size_t(P) * Words + W];
        const uint64_t NewOut = (NewIn & ~Kill[Base + W]) | Gen[Base + W];
        Changed |= NewIn != In[Base + W] || NewOut != Out[Base + W];
        In[Base + W] = NewIn;
        Out[Base + W] = NewOut;
      }
    }
  }

  // Walk each block, tracking the current reaching set precisely, and
  // record def -> use edges (a register's reaching defs in ascending
  // def-site order).
  std::vector<uint64_t> Cur(Words);
  for (unsigned B = 0; B < NumBlocks; ++B) {
    std::copy_n(In.begin() + size_t(B) * Words, Words, Cur.begin());
    for (const auto &I : F.blocks()[B]->instructions()) {
      I->forEachUse([&](Reg R, sir::UseKind Kind) {
        const unsigned UseIdx = static_cast<unsigned>(Uses.size());
        Uses.push_back(UseSite{I.get(), R, Kind});
        const uint32_t Id = R.id();
        for (unsigned P = RegBegin[Id]; P < RegBegin[Id + 1]; ++P) {
          const unsigned D = RegDefs[P];
          if ((Cur[D / 64] >> (D % 64)) & 1)
            Edges.emplace_back(D, UseIdx);
        }
      });
      if (I->def().isValid()) {
        const uint32_t Id = I->def().id();
        for (unsigned P = RegBegin[Id]; P < RegBegin[Id + 1]; ++P)
          Cur[RegDefs[P] / 64] &= ~(1ULL << (RegDefs[P] % 64));
        Set(Cur.data(), DefIdxOf[I->id()]);
      }
    }
  }
}

std::vector<unsigned> ReachingDefs::reachingDefsOf(unsigned UseIdx) const {
  std::vector<unsigned> Result;
  for (const auto &[D, U] : Edges)
    if (U == UseIdx)
      Result.push_back(D);
  return Result;
}
