//===- analysis/LoopInfo.h - Natural-loop discovery -----------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Natural loops of a function, discovered from dominator-identified
/// back edges. For every loop we record the header, the member blocks,
/// the latches (back-edge sources), the nesting (parent loop and
/// depth), the preheader when one exists, and the exiting/exit block
/// sets -- the structure LICM consumes (hoist target + exit
/// domination).
///
/// Back edges whose source is not dominated by the target (the
/// irreducible-looking case) do not form a natural loop and are
/// ignored; multiple back edges into one header merge into a single
/// loop with several latches.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_ANALYSIS_LOOPINFO_H
#define FPINT_ANALYSIS_LOOPINFO_H

#include "analysis/CFG.h"
#include "analysis/Dominators.h"
#include "sir/IR.h"

#include <vector>

namespace fpint {
namespace analysis {

/// One natural loop. Block identity is the layout index.
struct Loop {
  static constexpr unsigned NoBlock = ~0u;
  static constexpr int NoLoop = -1;

  unsigned Header = 0;
  /// All member blocks (header included), sorted ascending.
  std::vector<unsigned> Blocks;
  /// Back-edge sources, sorted ascending.
  std::vector<unsigned> Latches;
  /// Index of the innermost enclosing loop in LoopInfo::loops(), or
  /// NoLoop for a top-level loop.
  int Parent = NoLoop;
  /// Nesting depth: 1 for a top-level loop, 2 for its children, ...
  unsigned Depth = 1;
  /// The unique predecessor of the header from outside the loop, when
  /// it exists AND has the header as its only successor; NoBlock
  /// otherwise. This is the only block a hoisted instruction may land
  /// in without executing on paths that bypass the loop.
  unsigned Preheader = NoBlock;
  /// Member blocks with at least one successor outside the loop.
  std::vector<unsigned> Exiting;
  /// Non-member successor blocks of Exiting blocks, sorted ascending.
  std::vector<unsigned> Exits;

  bool contains(unsigned Block) const;
};

/// All natural loops of one renumbered function, ordered outermost
/// first (a parent always precedes its children in loops()).
class LoopInfo {
public:
  LoopInfo(const sir::Function &F, const CFG &Cfg, const DominatorTree &DT);

  const std::vector<Loop> &loops() const { return Loops; }

  /// Index into loops() of the innermost loop containing \p Block, or
  /// Loop::NoLoop if the block is in no loop.
  int innermostLoop(unsigned Block) const { return Innermost[Block]; }

  /// Loop-nesting depth of \p Block (0 = not in any loop).
  unsigned depth(unsigned Block) const {
    int L = Innermost[Block];
    return L == Loop::NoLoop ? 0 : Loops[static_cast<size_t>(L)].Depth;
  }

private:
  std::vector<Loop> Loops;
  std::vector<int> Innermost; ///< Per block: innermost loop or NoLoop.
};

} // namespace analysis
} // namespace fpint

#endif // FPINT_ANALYSIS_LOOPINFO_H
