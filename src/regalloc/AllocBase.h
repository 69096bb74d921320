//===- regalloc/AllocBase.h - Per-function register allocator -------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-function allocator, one pass through:
///
///   lowerCallingConvention -> buildIntervals -> scan (Int, Fp)
///     -> rewrite -> insertCalleeSaves -> finish
///
/// scan() walks the interval list (sorted by start) for one register
/// class and either assigns Interval::ArchIdx or spills; it is the
/// linear-scan policy and lives in RegAlloc.cpp. The steps around it
/// -- the position numbering (from a LiveIntervals built over the
/// lowered IR), the spill-everywhere rewrite through scratch
/// registers, and the callee-save prologue/epilogue -- live in
/// AllocBase.cpp.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_REGALLOC_ALLOCBASE_H
#define FPINT_REGALLOC_ALLOCBASE_H

#include "regalloc/LiveIntervals.h"
#include "regalloc/RegAlloc.h"

#include <map>
#include <string>
#include <vector>

namespace fpint {
namespace regalloc {

/// Architectural zero (reads as 0); never-defined registers map here.
constexpr unsigned ZeroRegIndex = 31;

/// One allocatable register's lifetime, as scan() sees it:
/// the LiveIntervals range of a non-precolored, non-never-defined
/// register, plus the scan's assignment outcome.
struct Interval {
  sir::Reg R;
  sir::RegClass RC;
  unsigned Start = ~0u;
  unsigned End = 0;
  bool CrossesCall = false;
  unsigned ArchIdx = ~0u; ///< Assigned architectural index.
  bool Spilled = false;
};

/// Allocates one function. Single-use: construct, run(), discard.
class FuncAllocator {
public:
  FuncAllocator(sir::Function &F, ModuleAlloc &Out) : F(F), Out(Out) {}

  /// Runs every step; false + \p Error on contract violations.
  bool run(std::string &Error);

private:
  /// Linear scan: assigns ArchIdx or spills every interval of class
  /// \p RC, in interval order. An interval with CrossesCall set may
  /// only take a callee-saved index (or spill), and every callee-saved
  /// index taken is marked in CalleeUsed (markCalleeUsed).
  void scan(sir::RegClass RC);

  /// Records that callee-saved index \p ArchIdx of class \p RC is in
  /// use (so it is saved/restored in the prologue/epilogue).
  void markCalleeUsed(sir::RegClass RC, unsigned ArchIdx) {
    CalleeUsed[RC == sir::RegClass::Fp][ArchIdx - ArchLayout::CalleeBase] =
        true;
  }

  /// Spills \p Iv to a (lazily assigned) frame slot.
  void spillInterval(Interval &Iv) {
    Iv.Spilled = true;
    ++Result.SpilledIntervals;
    if (SpillSlotOf[Iv.R.id()] == ~0u)
      SpillSlotOf[Iv.R.id()] = NextSlot++;
  }

  static bool isCalleeIdx(unsigned ArchIdx) {
    return ArchIdx >= ArchLayout::CalleeBase &&
           ArchIdx < ArchLayout::CalleeBase + ArchLayout::NumCallee;
  }

  /// The architectural vreg for (class, index), created lazily.
  sir::Reg archReg(sir::RegClass RC, unsigned Idx);

  void lowerCallingConvention();
  void buildIntervals();
  void rewrite();
  void insertCalleeSaves();
  void finish();

  sir::Function &F;
  ModuleAlloc &Out;
  FuncAlloc Result;

  std::vector<Interval> Intervals;  ///< Sorted by (Start, R).
  std::vector<unsigned> IntervalOf; ///< Reg id -> interval (~0u).

  // Architectural vregs, created lazily per (class, index).
  std::map<std::pair<sir::RegClass, unsigned>, sir::Reg> ArchRegs;

  std::vector<bool> IsPrecolored;    // Reg id -> fixed arch reg.
  std::vector<bool> NeverDefined;    // Reg id -> reads as zero.
  std::vector<unsigned> SpillSlotOf; // Reg id -> frame slot.
  unsigned NextSlot = 0;
  unsigned BaseSlots = 0;
  std::vector<bool> CalleeUsed[2]; // Per class, per callee idx.
};

} // namespace regalloc
} // namespace fpint

#endif // FPINT_REGALLOC_ALLOCBASE_H
