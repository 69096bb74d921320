//===- opt/Passes.h - Machine-independent optimizations -------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Classic machine-independent optimizations. The paper performs code
/// partitioning "after all the initial machine-independent
/// optimizations are complete" (its benchmarks are compiled -O3: common
/// subexpression elimination, invariant removal, jump optimization);
/// this library provides the corresponding cleanup for sir programs so
/// the partitioner sees optimized code:
///
///  * local copy propagation (forwarding move sources into uses),
///  * local constant folding with algebraic identities,
///  * local common-subexpression elimination over pure operations,
///  * global dead-code elimination of unused pure definitions.
///
/// All passes preserve program outputs exactly (loads are never touched:
/// deleting one could suppress an out-of-bounds fault and change
/// behaviour). Each returns the number of changes; optimizeModule runs
/// them to a fixpoint.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_OPT_PASSES_H
#define FPINT_OPT_PASSES_H

#include "sir/IR.h"

namespace fpint {
namespace opt {

/// True for instructions with no side effects whose only product is
/// their destination register (loads excluded: removing one could
/// suppress an out-of-bounds fault). Shared with LICM so pass
/// libraries agree on purity.
bool isPureInstr(const sir::Instruction &I);

/// Rewrites uses of registers defined by Move/FMove with the move's
/// source, within each basic block. Returns uses rewritten.
unsigned propagateCopies(sir::Function &F);

/// Folds ALU operations whose operands are block-local constants into
/// Li, and applies algebraic identities (x+0, x^0, x<<0, x|0, x&~0
/// become moves). Returns instructions simplified.
unsigned foldConstants(sir::Function &F);

/// Local CSE: a pure operation identical to an earlier one in the same
/// block (same opcode/operands/immediate, operands not redefined in
/// between) becomes a move from the earlier result. Returns
/// instructions replaced.
unsigned eliminateCommonSubexpressions(sir::Function &F);

/// Removes pure instructions (ALU, moves, la, li, copies, FP
/// arithmetic) whose results are never used anywhere in the function.
/// Returns instructions deleted.
unsigned eliminateDeadCode(sir::Function &F);

/// Aggregate change counts and convergence telemetry from
/// optimizeModule.
struct OptReport {
  unsigned CopiesPropagated = 0;
  unsigned ConstantsFolded = 0;
  unsigned SubexpressionsEliminated = 0;
  unsigned DeadInstructionsRemoved = 0;

  /// Fixpoint-iteration telemetry: total rounds executed across all
  /// functions, the largest per-function round count (the module's
  /// iterations-to-convergence), and how many functions were cut off
  /// by the round cap before reaching a fixpoint.
  unsigned TotalRounds = 0;
  unsigned MaxFunctionRounds = 0;
  unsigned FunctionsHitCap = 0;

  bool converged() const { return FunctionsHitCap == 0; }

  unsigned total() const {
    return CopiesPropagated + ConstantsFolded + SubexpressionsEliminated +
           DeadInstructionsRemoved;
  }
};

/// Knobs for optimizeModule.
struct OptOptions {
  /// Hard cap on fixpoint rounds per function. A pathological module
  /// must terminate here instead of spinning; a cap hit is recorded in
  /// OptReport::FunctionsHitCap, never an error (the IR is correct
  /// after any prefix of rounds, just less optimized).
  unsigned MaxRounds = 4;
};

/// Runs all passes over every function to a fixpoint (capped at
/// Opts.MaxRounds rounds per function) and renumbers the module.
OptReport optimizeModule(sir::Module &M, const OptOptions &Opts = OptOptions());

} // namespace opt
} // namespace fpint

#endif // FPINT_OPT_PASSES_H
