//===- transform/Transforms.h - Mid-end optimization transforms -----------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mid-end: optimization transforms beyond the purely local
/// cleanup in opt/. The paper partitions "after all the initial
/// machine-independent optimizations are complete"; hoisting and
/// inlining reshape RDG connected components and load/store slices,
/// so these transforms are the lever for evaluating the partitioner
/// on optimized code instead of naive input.
///
///  * LICM     hoists loop-invariant pure instructions into loop
///             preheaders (dominator tree, loop info and liveness
///             rebuilt for each hoisting round).
///  * Inline   bottom-up inlining over the acyclic part of the call
///             graph, under caller/callee size budgets.
///
/// Every transform preserves VM-observable behaviour exactly (outputs,
/// traps, trip counts); the differential oracle checks each one
/// against the unpartitioned VM. The pipeline-facing passes ("licm",
/// "inline", and the "opt2" preset) are registered in
/// core/PassManager.cpp; this library stays independent of core so
/// tests can drive transforms directly.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_TRANSFORM_TRANSFORMS_H
#define FPINT_TRANSFORM_TRANSFORMS_H

#include "sir/IR.h"

namespace fpint {
namespace transform {

/// Loop-invariant code motion. Hoists a pure non-memory instruction
/// out of a natural loop into the loop's preheader when (a) every
/// operand has no definition inside the loop, (b) the instruction is
/// its destination's only definition inside the loop, (c) the
/// destination is not live into the loop header (so partially-executed
/// or bypassed iterations cannot observe the hoisted value early), and
/// (d) the defining block dominates every exiting block (the
/// instruction executed on every completed trip anyway). Loads and
/// stores are never moved. Returns instructions hoisted; renumbers the
/// function when it changes anything.
unsigned runLICM(sir::Function &F);

struct InlineOptions {
  /// Callees larger than this are never inlined.
  unsigned MaxCalleeInstrs = 48;
  /// A caller is not grown beyond this many instructions.
  unsigned MaxCallerInstrs = 512;
};

struct InlineResult {
  unsigned CallsInlined = 0;
  unsigned SkippedRecursive = 0;
  unsigned SkippedBudget = 0;
};

/// Bottom-up inlining: callees are processed before callers (so a
/// flattened callee body is what gets cloned), call sites are
/// collected before any mutation (newly exposed calls wait for the
/// next pipeline run -- guarantees termination), and any callee on a
/// call-graph cycle (including self-recursion) is refused. Callees
/// that touch their stack frame are skipped (frames are
/// per-activation). Renumbers the module when it changes anything.
InlineResult runInline(sir::Module &M,
                       const InlineOptions &Opts = InlineOptions());

/// Aggregate mid-end telemetry carried on the pipeline run, one field
/// per pass counter (see docs/TRANSFORMS.md).
struct MidEndReport {
  unsigned LicmHoisted = 0;
  unsigned CallsInlined = 0;
  unsigned InlineSkippedRecursive = 0;
  unsigned InlineSkippedBudget = 0;

  unsigned total() const { return LicmHoisted + CallsInlined; }
};

} // namespace transform
} // namespace fpint

#endif // FPINT_TRANSFORM_TRANSFORMS_H
