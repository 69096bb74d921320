//===- regalloc/AllocBase.h - Shared per-function allocator machinery -----===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The per-function allocation skeleton:
///
///   lowerCallingConvention -> buildIntervals -> scan (POLICY)
///     -> rewrite -> insertCalleeSaves -> finish
///
/// The allocator in RegAlloc.cpp subclasses FuncAllocBase and
/// implements only scan(): walk the interval list (sorted by start)
/// for one register class and either assign Interval::ArchIdx or
/// spill. Everything around the scan -- the position numbering (via
/// the shared LiveIntervals analysis), the spill-everywhere rewrite
/// through scratch registers, and the callee-save prologue/epilogue --
/// lives here, keeping the scan policy separate from the contract in
/// regalloc/RegAlloc.h.
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

/// One allocatable register's lifetime, as the scan policies see it:
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

/// Drives one function through the shared allocation skeleton.
/// Single-use: construct, run(), discard.
class FuncAllocBase {
public:
  FuncAllocBase(sir::Function &F, ModuleAlloc &Out,
                analysis::AnalysisManager *AM)
      : F(F), Out(Out), AM(AM) {}
  virtual ~FuncAllocBase() = default;

  /// Runs the full skeleton; false + \p Error on contract violations.
  bool run(std::string &Error);

protected:
  /// Scan policy: assign ArchIdx or spill every interval of class
  /// \p RC, in interval order. Must honor the contract: an interval
  /// with CrossesCall set may only take a callee-saved index (or
  /// spill), and every callee-saved index taken must be marked in
  /// CalleeUsed (markCalleeUsed does both bookkeeping steps).
  virtual void scan(sir::RegClass RC) = 0;

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

  sir::Function &F;
  ModuleAlloc &Out;
  analysis::AnalysisManager *AM; ///< Optional shared analysis cache.
  FuncAlloc Result;

  std::vector<Interval> Intervals;  ///< Sorted by (Start, R).
  std::vector<unsigned> IntervalOf; ///< Reg id -> interval (~0u).

private:
  void lowerCallingConvention();
  void buildIntervals();
  void rewrite();
  void insertCalleeSaves();
  void finish();

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
