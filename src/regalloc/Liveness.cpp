//===- regalloc/Liveness.cpp - Live-variable analysis ---------------------===//

#include "regalloc/Liveness.h"

using namespace fpint;
using namespace fpint::regalloc;
using sir::Reg;

Liveness::Liveness(const sir::Function &F, const analysis::CFG &Cfg) {
  const unsigned NumBlocks = Cfg.numBlocks();
  Words = (F.numRegs() + 63) / 64;
  const size_t Total = size_t(NumBlocks) * Words;
  In.assign(Total, 0);
  Out.assign(Total, 0);

  // Per-block USE (upward exposed) and DEF sets, in the same layout.
  std::vector<uint64_t> Use(Total, 0), Def(Total, 0);
  for (unsigned B = 0; B < NumBlocks; ++B) {
    uint64_t *U = Use.data() + size_t(B) * Words;
    uint64_t *D = Def.data() + size_t(B) * Words;
    for (const auto &I : F.blocks()[B]->instructions()) {
      I->forEachUse([&](Reg R, sir::UseKind) {
        const uint32_t Id = R.id();
        const uint64_t Bit = 1ULL << (Id % 64);
        if (!(D[Id / 64] & Bit))
          U[Id / 64] |= Bit;
      });
      if (I->def().isValid()) {
        const uint32_t Id = I->def().id();
        D[Id / 64] |= 1ULL << (Id % 64);
      }
    }
  }

  // Round-robin to the fixpoint, in post order (reverse RPO, which
  // also covers unreachable blocks). The sets only grow from empty, so
  // this is the least fixpoint, whatever the visiting order:
  //   Out[B] = union of In[S] over successors S;
  //   In[B] = Use | (Out & ~Def).
  // Each word is computed and stored in place.
  const std::vector<unsigned> &Rpo = Cfg.reversePostOrder();
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (auto It = Rpo.rbegin(); It != Rpo.rend(); ++It) {
      const unsigned B = *It;
      const size_t Base = size_t(B) * Words;
      const std::vector<unsigned> &Succs = Cfg.successors(B);
      for (unsigned W = 0; W < Words; ++W) {
        uint64_t NewOut = 0;
        for (unsigned S : Succs)
          NewOut |= In[size_t(S) * Words + W];
        const uint64_t NewIn = Use[Base + W] | (NewOut & ~Def[Base + W]);
        Changed |= NewIn != In[Base + W] || NewOut != Out[Base + W];
        Out[Base + W] = NewOut;
        In[Base + W] = NewIn;
      }
    }
  }
}
