//===- analysis/LoopInfo.cpp - Natural-loop discovery ---------------------===//

#include "analysis/LoopInfo.h"

#include <algorithm>
#include <map>

using namespace fpint;
using namespace fpint::analysis;

bool Loop::contains(unsigned Block) const {
  return std::binary_search(Blocks.begin(), Blocks.end(), Block);
}

LoopInfo::LoopInfo(const sir::Function &F, const CFG &Cfg,
                   const DominatorTree &DT) {
  (void)F;
  const unsigned N = Cfg.numBlocks();
  Innermost.assign(N, Loop::NoLoop);

  // Natural-loop back edges: T -> H where H dominates T. Edges into a
  // non-dominating target (the irreducible-looking shape) form no
  // natural loop. Latches targeting the same header merge.
  std::map<unsigned, std::vector<unsigned>> LatchesByHeader;
  for (unsigned T = 0; T < N; ++T) {
    if (!DT.isReachable(T))
      continue;
    for (unsigned H : Cfg.successors(T))
      if (DT.dominates(H, T))
        LatchesByHeader[H].push_back(T);
  }

  for (auto &[Header, Latches] : LatchesByHeader) {
    Loop L;
    L.Header = Header;
    std::sort(Latches.begin(), Latches.end());
    Latches.erase(std::unique(Latches.begin(), Latches.end()), Latches.end());
    L.Latches = Latches;

    // Body: backward reachability from the latches without crossing
    // the header. Every block on such a path is dominated by the
    // header (back-edge definition), so membership is well defined.
    std::vector<bool> InLoop(N, false);
    InLoop[Header] = true;
    std::vector<unsigned> Work;
    for (unsigned T : Latches)
      if (!InLoop[T]) {
        InLoop[T] = true;
        Work.push_back(T);
      }
    while (!Work.empty()) {
      unsigned B = Work.back();
      Work.pop_back();
      for (unsigned P : Cfg.predecessors(B))
        if (DT.isReachable(P) && !InLoop[P]) {
          InLoop[P] = true;
          Work.push_back(P);
        }
    }
    for (unsigned B = 0; B < N; ++B)
      if (InLoop[B])
        L.Blocks.push_back(B);

    // Exiting / exit blocks.
    for (unsigned B : L.Blocks)
      for (unsigned S : Cfg.successors(B))
        if (!InLoop[S]) {
          if (L.Exiting.empty() || L.Exiting.back() != B)
            L.Exiting.push_back(B);
          L.Exits.push_back(S);
        }
    std::sort(L.Exits.begin(), L.Exits.end());
    L.Exits.erase(std::unique(L.Exits.begin(), L.Exits.end()), L.Exits.end());

    // Preheader: unique outside predecessor of the header whose only
    // successor is the header (so hoisted code runs iff the loop is
    // entered, and only once per entry).
    unsigned Outside = Loop::NoBlock;
    bool Unique = true;
    for (unsigned P : Cfg.predecessors(Header)) {
      if (!DT.isReachable(P) || InLoop[P])
        continue;
      if (Outside == Loop::NoBlock)
        Outside = P;
      else
        Unique = false;
    }
    if (Unique && Outside != Loop::NoBlock &&
        Cfg.successors(Outside).size() == 1)
      L.Preheader = Outside;

    Loops.push_back(std::move(L));
  }

  // Nesting: smaller loops nest inside larger ones sharing blocks.
  // Sort outermost (largest) first so a parent precedes its children
  // and Innermost can be filled by simple overwrite in order.
  std::sort(Loops.begin(), Loops.end(), [](const Loop &A, const Loop &B) {
    if (A.Blocks.size() != B.Blocks.size())
      return A.Blocks.size() > B.Blocks.size();
    return A.Header < B.Header;
  });
  for (size_t I = 0; I < Loops.size(); ++I) {
    // Parent = smallest strictly-larger loop containing our header.
    // Scanning earlier (larger) loops backward finds it first.
    for (size_t J = I; J-- > 0;) {
      if (Loops[J].Blocks.size() > Loops[I].Blocks.size() &&
          Loops[J].contains(Loops[I].Header)) {
        Loops[I].Parent = static_cast<int>(J);
        Loops[I].Depth = Loops[J].Depth + 1;
        break;
      }
    }
    for (unsigned B : Loops[I].Blocks)
      Innermost[B] = static_cast<int>(I);
  }
}
