//===- regalloc/LiveIntervals.h - Per-register live intervals -------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Linearized live intervals in the Poletto & Sarkar sense: every
/// instruction gets a position (2 apart so "before" and "after" slots
/// exist), and every register gets the [Start, End] hull of the
/// positions where it is used, defined, or live across a block
/// boundary (live-in at the block's start position, live-out at its
/// end position). Call sites are recorded so allocators can classify
/// intervals that are live across a call.
///
/// This is the register allocator's input (see docs/REGALLOC.md),
/// fetched through the AnalysisManager ("live-intervals",
/// dependency-linked to "cfg" and "liveness") or built locally when no
/// manager is available.
///
/// The analysis is allocator-neutral: it covers *every* register id,
/// including ones an allocator will treat as precolored or
/// never-defined -- filtering those is an allocation policy, not an
/// analysis fact. A register with no events at all keeps the
/// Start == ~0u sentinel.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_REGALLOC_LIVEINTERVALS_H
#define FPINT_REGALLOC_LIVEINTERVALS_H

#include "analysis/AnalysisManager.h"
#include "regalloc/Liveness.h"
#include "sir/IR.h"

#include <memory>
#include <vector>

namespace fpint {
namespace regalloc {

/// Per-register linearized live ranges over one function.
class LiveIntervals {
public:
  /// The [Start, End] hull of one register's events. Start stays ~0u
  /// for a register that is never referenced and never live.
  struct Range {
    unsigned Start = ~0u;
    unsigned End = 0;
    /// Some call position lies strictly inside (Start, End).
    bool CrossesCall = false;
    bool Defined = false; ///< Appears as some instruction's def.
    bool Used = false;    ///< Appears as some instruction's use.
  };

  LiveIntervals(const sir::Function &F, const analysis::CFG &Cfg,
                const Liveness &Live);

  const Range &range(sir::Reg R) const { return Ranges[R.id()]; }
  /// Indexed by register id (size == numRegs at construction).
  const std::vector<Range> &ranges() const { return Ranges; }

  /// Linear position of the instruction with id \p InstrId.
  unsigned instrPos(unsigned InstrId) const { return InstrPos[InstrId]; }
  unsigned blockStart(unsigned Block) const { return BlockStarts[Block]; }
  unsigned blockEnd(unsigned Block) const { return BlockEnds[Block]; }
  /// Call-site positions in ascending order.
  const std::vector<unsigned> &callPositions() const { return CallPositions; }

private:
  std::vector<Range> Ranges;
  std::vector<unsigned> InstrPos;
  std::vector<unsigned> BlockStarts;
  std::vector<unsigned> BlockEnds;
  std::vector<unsigned> CallPositions;
};

/// AnalysisManager adapter for LiveIntervals (consults CFGAnalysis and
/// LivenessAnalysis, so invalidating either transitively drops the
/// intervals). Lives in regalloc/ for the same layering reason as
/// LivenessAnalysis: the analysis library must not depend upward.
struct LiveIntervalsAnalysis {
  using Result = LiveIntervals;
  static const analysis::AnalysisKey *id();
  static const char *name() { return "live-intervals"; }
  static std::unique_ptr<Result> run(const sir::Function &F,
                                     analysis::AnalysisManager &AM);
};

} // namespace regalloc
} // namespace fpint

#endif // FPINT_REGALLOC_LIVEINTERVALS_H
