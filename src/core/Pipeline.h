//===- core/Pipeline.h - End-to-end offload pipeline ----------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point tying the whole reproduction together, in the
/// paper's methodology:
///
///   1. profile the original program on a training input (basic-block
///      execution counts);
///   2. partition it with the basic or advanced scheme (or leave it
///      conventional);
///   3. allocate registers (FPa operands get FP registers);
///   4. check the compiled program against the original on the
///      measurement input (the reproduction's correctness oracle);
///   5. measure partition statistics (Figure 8 / Section 7.2) and, on
///      demand, simulate cycle-level timing against a Table 1 machine
///      (Figures 9 and 10).
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_CORE_PIPELINE_H
#define FPINT_CORE_PIPELINE_H

#include "opt/Passes.h"
#include "partition/FpArgPassing.h"
#include "partition/Partitioner.h"
#include "regalloc/RegAlloc.h"
#include "sir/IR.h"
#include "timing/MachineConfig.h"
#include "timing/Simulator.h"
#include "transform/Transforms.h"
#include "vm/VM.h"

#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fpint {
namespace core {

struct PipelineConfig {
  partition::Scheme Scheme = partition::Scheme::Advanced;
  partition::CostParams Costs;
  std::vector<int32_t> TrainArgs; ///< main() args for the profiling run.
  std::vector<int32_t> RefArgs;   ///< main() args for measurement runs.
  /// Pipeline text naming the stages to run (see core/PassManager.h):
  /// e.g. "opt,profile,partition,fp-arg-passing,regalloc" adds the
  /// Section 6.6 extension, dropping "opt" skips the optimizer,
  /// dropping "regalloc" stops before allocation, and
  /// "regalloc-linear" picks that backend. Empty means: $FPINT_PASSES
  /// if set, else the default text. effectivePipelineText() resolves
  /// it; run ids, cache keys and reports all carry the resolved text.
  std::string Passes;
};

/// Per-pass boundary telemetry, one row per executed pass. Flows into
/// PipelineRun, stats::RunRecord, and the bench_out JSON "passes"
/// section; deterministic fields (Changes, cache counters) are diffed
/// by fpint-report, WallMs is informational.
struct PassStat {
  std::string Name;
  double WallMs = 0.0;
  unsigned Changes = 0;
  uint64_t AnalysisHits = 0;
  uint64_t AnalysisMisses = 0;
  uint64_t AnalysisInvalidations = 0;
};

/// Lazily captured dynamic trace of a compiled module on the ref
/// input. The trace is a pure function of (compiled module, ref args)
/// -- it does not depend on any timing::MachineConfig -- so one
/// capture can be replayed against any number of machine
/// configurations. Thread-safe: concurrent first requests race only
/// on the call_once.
struct TraceHandle {
  std::once_flag Once;
  std::vector<vm::TraceEntry> Entries;

  /// Number of VM executions performed to fill this handle (0 until
  /// the first refTrace() call, 1 after; never more).
  unsigned Captures = 0;

  /// Packed SoA decode of Entries for the simulator fast path, built
  /// at most once per module (like the entries themselves) and shared
  /// by every machine sweep. Same thread-safety story as Once.
  std::once_flag PackedOnce;
  std::shared_ptr<const timing::PackedTrace> Packed;
};

/// A compiled (partitioned + allocated) program with its measurements.
struct PipelineRun {
  /// Module identity for reports and cache keys (set by RunCache and
  /// the bench harness; empty for ad-hoc compileAndMeasure calls).
  std::string Name;
  std::unique_ptr<sir::Module> Compiled;
  regalloc::ModuleAlloc Alloc;
  partition::ModuleRewrite Rewrite;
  partition::FpArgReport FpArgs; ///< 6.6 extension results (if run).
  opt::OptReport Opt;            ///< Pre-partitioning cleanup results.
  transform::MidEndReport Transform; ///< Mid-end pass results (if run).
  partition::DynStats Stats;  ///< Dynamic accounting on the ref input.
  vm::VM::Result RefResult;   ///< Functional run on the ref input.
  bool OutputsMatchOriginal = false;
  /// A register-allocation pass ran, so the compiled code uses
  /// architectural registers. Timing simulation requires it.
  bool Allocated = false;
  std::vector<std::string> Errors;
  PipelineConfig Config;
  /// Per-pass telemetry from the compile pipeline, in execution order.
  std::vector<PassStat> PassStats;

  /// Cached ref-input trace (set by compileAndMeasure; shared so that
  /// moving the run keeps the handle stable). TraceEntry values point
  /// into *Compiled, so the trace is valid only while this run lives.
  std::shared_ptr<TraceHandle> Trace;

  bool ok() const { return Errors.empty() && OutputsMatchOriginal; }

  /// The ref-input dynamic trace, captured on first use and replayed
  /// thereafter. Requires ok() and register-allocated code.
  const std::vector<vm::TraceEntry> &refTrace() const;

  /// The packed SoA decode of refTrace() (machine-independent, like
  /// the trace itself), built on first use and reused across every
  /// MachineConfig. Requires ok() and register-allocated code.
  const timing::PackedTrace &packedTrace() const;
};

/// Compiles \p Original per \p Config and measures it functionally.
/// \p Original is not modified.
PipelineRun compileAndMeasure(const sir::Module &Original,
                              PipelineConfig Config);

/// Traces the compiled program on the ref input and simulates it on
/// \p Machine. Throws std::invalid_argument when \p Run was compiled
/// without a register-allocation pass. When stats::telemetryEnabled(),
/// a StallBreakdown sink is attached for the run and returned via
/// SimStats::Telemetry.
timing::SimStats simulate(const PipelineRun &Run,
                          const timing::MachineConfig &Machine);

/// Convenience for the benchmark harness: speedup of \p Partitioned over
/// \p Conventional (cycles ratio).
double speedup(const timing::SimStats &Conventional,
               const timing::SimStats &Partitioned);

} // namespace core
} // namespace fpint

#endif // FPINT_CORE_PIPELINE_H
