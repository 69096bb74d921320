//===- analysis/Dominators.h - Dominator tree and frontiers ---------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dominator tree of a function, with dominance frontiers, built on
/// top of the CFG's Cooper-Harvey-Kennedy immediate dominators. Where
/// analysis::CFG answers point queries (idom, dominates), this analysis
/// materializes the tree itself -- children lists, a DFS pre-order with
/// entry/exit stamps for O(1) dominance queries, and per-block
/// dominance frontiers. LICM's exit-domination check and LoopInfo's
/// back-edge discovery consume it.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_ANALYSIS_DOMINATORS_H
#define FPINT_ANALYSIS_DOMINATORS_H

#include "analysis/CFG.h"
#include "sir/IR.h"

#include <vector>

namespace fpint {
namespace analysis {

/// The dominator tree of one renumbered function. Block identity is the
/// layout index, like CFG. Unreachable blocks are not part of the tree:
/// they have no children, appear in no frontier, and are dominated only
/// by themselves.
class DominatorTree {
public:
  DominatorTree(const sir::Function &F, const CFG &Cfg);

  unsigned numBlocks() const { return static_cast<unsigned>(Kids.size()); }

  /// Immediate dominator (entry maps to itself; unreachable blocks map
  /// to themselves too, keeping them out of every other block's chain).
  unsigned idom(unsigned Block) const { return Idom[Block]; }

  /// Tree children of \p Block, in ascending layout order.
  const std::vector<unsigned> &children(unsigned Block) const {
    return Kids[Block];
  }

  /// True if \p A dominates \p B (reflexive), via DFS interval stamps:
  /// O(1). False whenever either block is unreachable (unless A == B).
  bool dominates(unsigned A, unsigned B) const {
    if (A == B)
      return true;
    if (!Reach[A] || !Reach[B])
      return false;
    return In[A] <= In[B] && Out[B] <= Out[A];
  }

  bool properlyDominates(unsigned A, unsigned B) const {
    return A != B && dominates(A, B);
  }

  /// Dominance frontier of \p Block: the blocks where \p Block's
  /// dominance stops (Cooper-Harvey-Kennedy walk). Sorted ascending.
  const std::vector<unsigned> &frontier(unsigned Block) const {
    return Frontier[Block];
  }

  /// Reachable blocks in dominator-tree DFS pre-order (entry first).
  /// Children are visited in ascending layout order, so the order is
  /// deterministic.
  const std::vector<unsigned> &preorder() const { return Pre; }

  bool isReachable(unsigned Block) const { return Reach[Block]; }

private:
  std::vector<unsigned> Idom;
  std::vector<std::vector<unsigned>> Kids;
  std::vector<std::vector<unsigned>> Frontier;
  std::vector<unsigned> In, Out; ///< DFS interval stamps.
  std::vector<unsigned> Pre;
  std::vector<bool> Reach;
};

} // namespace analysis
} // namespace fpint

#endif // FPINT_ANALYSIS_DOMINATORS_H
