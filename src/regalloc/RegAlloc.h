//===- regalloc/RegAlloc.h - Linear-scan register allocation --------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Register allocation after code partitioning, as in the paper
/// ("Register allocation is performed after code partitioning. Operands
/// of instructions assigned to the FPa partition are allocated
/// floating-point registers"). The allocator:
///
///  * lowers the calling convention: arguments move through the integer
///    argument registers $a0-$a3 and results through $v0;
///  * runs Poletto-style linear scan independently over the integer and
///    floating-point files; each file has 12 caller-saved and 12
///    callee-saved allocatable registers plus 3 reserved scratch
///    registers for spill traffic;
///  * intervals live across a call must take callee-saved registers (or
///    spill); used callee-saved registers are saved/restored in the
///    prologue/epilogue -- the save/restore and spill loads/stores are
///    real instructions, so offloading visibly changes memory traffic
///    exactly as the paper discusses in Section 6.6;
///  * rewrites the function onto architectural registers and reports a
///    register -> (file, index) map for the timing simulator's renamer.
///
/// regalloc::FuncAllocator (AllocBase.h) allocates one function; its
/// scan policy lives in RegAlloc.cpp and every step around it
/// (lowering, live intervals, spill rewrite, callee saves) in
/// AllocBase.cpp. See docs/REGALLOC.md.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_REGALLOC_REGALLOC_H
#define FPINT_REGALLOC_REGALLOC_H

#include "sir/IR.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace fpint {
namespace regalloc {

/// Architectural register indices within one file (0..31).
struct ArchLayout {
  static constexpr unsigned NumArgRegs = 4;  ///< $a0..$a3 (INT file only).
  static constexpr unsigned RetReg = 4;      ///< $v0 (INT file only).
  static constexpr unsigned CallerBase = 5;  ///< $t0..$t11 / $ft0..$ft11.
  static constexpr unsigned NumCaller = 12;
  static constexpr unsigned CalleeBase = 17; ///< $s0..$s11 / $fs0..$fs11.
  static constexpr unsigned NumCallee = 12;
  static constexpr unsigned ScratchBase = 29; ///< $k0..$k2 / $fk0..$fk2.
  static constexpr unsigned NumScratch = 3;
  static constexpr unsigned FileSize = 32;
};

/// Result of allocating one function.
struct FuncAlloc {
  /// Register id -> architectural index within its file (~0u unmapped).
  std::vector<unsigned> ArchIndex;
  unsigned SpilledIntervals = 0;
  unsigned SpillSlots = 0;
  unsigned CalleeSavedUsedInt = 0;
  unsigned CalleeSavedUsedFp = 0;
  /// Spill/reload/save/restore instructions inserted.
  unsigned SpillCode = 0;
  /// The SpillCode split: reloads of spilled values, stores of spilled
  /// defs, and prologue/epilogue callee-save traffic. The four always
  /// sum to SpillCode.
  unsigned SpillLoads = 0;
  unsigned SpillStores = 0;
  unsigned CalleeSaveStores = 0;
  unsigned CalleeSaveRestores = 0;
  /// Wall-clock of this function's allocation (informational, like
  /// every wall_ms in the telemetry schema; never diffed as
  /// deterministic).
  double WallMs = 0.0;
};

/// Result of allocating a module.
struct ModuleAlloc {
  std::unordered_map<const sir::Function *, FuncAlloc> Funcs;
  std::vector<std::string> Errors;

  /// Architectural index of \p R in \p F's file; asserts it is mapped.
  unsigned archIndexOf(const sir::Function *F, sir::Reg R) const;

  unsigned totalSpilledIntervals() const;
  unsigned totalSpillSlots() const;
  unsigned totalSpillLoads() const;
  unsigned totalSpillStores() const;
  unsigned totalCalleeSaveStores() const;
  unsigned totalCalleeSaveRestores() const;
  double totalWallMs() const;
};

/// Allocates every function of \p M in place, recording each
/// function's allocation wall time in FuncAlloc::WallMs. The module
/// must verify cleanly; functions may have at most
/// ArchLayout::NumArgRegs formals (a violation is reported in
/// ModuleAlloc::Errors and leaves that function untouched).
ModuleAlloc allocateModule(sir::Module &M);

} // namespace regalloc
} // namespace fpint

#endif // FPINT_REGALLOC_REGALLOC_H
