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
  /// Section 6.6 extension, dropping "opt" skips the optimizer, and
  /// dropping "regalloc" stops before allocation. Empty means:
  /// $FPINT_PASSES if set, else the default text.
  /// effectivePipelineText() resolves it; run ids, cache keys and
  /// reports all carry the resolved text.
  std::string Passes;
};

/// The PipelineConfig fields a content key can carry, as bits.
enum ConfigField : unsigned {
  FieldScheme = 1u << 0,
  FieldCosts = 1u << 1,
  FieldTrainArgs = 1u << 2,
  FieldRefArgs = 1u << 3,
  AllConfigFields = FieldScheme | FieldCosts | FieldTrainArgs | FieldRefArgs,
};

/// Appends the \p Fields of \p Config to \p Key, each after a '|', in
/// the order Scheme, Costs, TrainArgs, RefArgs. Costs print as three
/// hex floats, which are exact, and args as "[a,b,]". The one spelling
/// of config fields in a key: RunCache::runKey and
/// PassManager::prefixKeys both use it.
void appendConfigFields(std::string &Key, const PipelineConfig &Config,
                        unsigned Fields);

/// Per-pass boundary telemetry, one row per executed pass. Flows into
/// PipelineRun, stats::RunRecord, and the bench_out JSON "passes"
/// section; Changes is diffed by fpint-report, WallMs is
/// informational.
struct PassStat {
  std::string Name;
  double WallMs = 0.0;
  unsigned Changes = 0;
  /// Always 0: passes build the analyses they read and cache nothing.
  /// Kept only because perfbench/driver.cpp still sums them into its
  /// pass.analysis_hit_ratio metric.
  uint64_t AnalysisHits = 0;
  uint64_t AnalysisMisses = 0;
};

/// Lazily captured dynamic trace of a compiled module on the ref
/// input, packed (timing::PackedTrace) by the VM run that produces it;
/// no entry vector is kept. The trace is a pure function of (compiled
/// module, ref args) -- it does not depend on any
/// timing::MachineConfig -- so one capture can be replayed against any
/// number of machine configurations. Thread-safe: concurrent first
/// requests race only on the call_once.
struct TraceHandle {
  std::once_flag Once;
  timing::PackedTrace Packed;

  /// Number of VM executions performed to fill this handle (0 until
  /// the first packedTrace() call, 1 after; never more).
  unsigned Captures = 0;
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
  /// moving the run keeps the handle stable). PackedOp::I points into
  /// *Compiled, so the trace is valid only while this run lives.
  std::shared_ptr<TraceHandle> Trace;

  bool ok() const { return Errors.empty() && OutputsMatchOriginal; }

  /// The ref-input dynamic trace (machine-independent), packed while
  /// one VM run produces it on first use and reused across every
  /// MachineConfig. A trapping run's trace is the prefix up to the
  /// trap. Requires ok() and register-allocated code.
  const timing::PackedTrace &packedTrace() const;

  /// Alias of packedTrace(), kept for callers that only need the trace
  /// length. It never rebuilds an entry vector; packedTrace().entries()
  /// does, for callers that need entries.
  const timing::PackedTrace &refTrace() const { return packedTrace(); }
};

class CompileMemo;

/// Compiles \p Original per \p Config and measures it functionally.
/// \p Original is not modified. With a \p Memo (built for
/// \p Original), the compile resumes from the deepest pipeline prefix
/// it shares with an earlier compile of the memo's plan, and reuses
/// the original module's run on Config.RefArgs; the result is the same
/// as without one (see CompileMemo).
PipelineRun compileAndMeasure(const sir::Module &Original,
                              PipelineConfig Config,
                              CompileMemo *Memo = nullptr);

/// Shares the work of a planned series of compiles of one module, for
/// a caller that compiles it under several configs in a known order
/// (the fuzz oracle's variant battery). Owned by that caller and
/// dropped with the module: there is no process-wide cache, and a
/// compile without a memo does all of its own work.
///
///  * A compile's state after each pass (module + PassState) is keyed
///    by PassManager::prefixKeys(): the resolved pass tokens so far
///    and the config fields those passes read (TrainArgs for profile,
///    Scheme and Costs for partition).
///  * After a pass whose key a later planned compile will resume from,
///    the state is deep-cloned into the memo. That compile takes the
///    clone -- by a further clone while another planned compile still
///    resumes there, by move for the last one -- so no two runs share
///    IR. A resumed run's PassStats repeat its prefix's rows.
///  * The original module's run on the ref input happens once per
///    RefArgs.
///
/// Compiles must follow the plan's order; an unplanned one (its keys
/// differ from the next planned entry's) shares nothing.
class CompileMemo {
public:
  CompileMemo(const sir::Module &Original,
              const std::vector<PipelineConfig> &Plan);
  ~CompileMemo();
  CompileMemo(const CompileMemo &) = delete;
  CompileMemo &operator=(const CompileMemo &) = delete;

  /// Records \p Result as the original module's run on \p Args, for a
  /// caller that has run it already. It must be exactly what
  /// vm::runModule(Original, Args) returns: a run with default options
  /// apart from a step budget, that completed or stopped at a
  /// deterministic trap within both that budget and the default one.
  void seedOriginalRun(const std::vector<int32_t> &Args,
                       const vm::VM::Result &Result);

private:
  friend PipelineRun compileAndMeasure(const sir::Module &, PipelineConfig,
                                       CompileMemo *);
  struct Impl;
  std::unique_ptr<Impl> P;
};

/// Simulates the compiled program's ref-input trace on \p Machine: the
/// cached packedTrace() on the fast path; with the fast path off
/// (FPINT_SIM_FAST=0) the reference loop reads the entries of a fresh
/// VM run instead, so a reference-vs-fast comparison also checks the
/// packer against the VM's own stream. Throws std::invalid_argument
/// when \p Run was compiled without a register-allocation pass. When stats::telemetryEnabled(),
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
