//===- stats/Report.h - Structured JSON results and diffing ---------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serialization layer of the telemetry subsystem: turns one
/// simulated (workload, scheme, machine) point -- MachineConfig,
/// PipelineConfig, SimStats, and the cycle-level StallBreakdown -- into
/// a canonical JSON record, and diffs two such report trees for the
/// fpint-report regression gate.
///
/// Schema (see docs/OBSERVABILITY.md for the field-by-field version):
///
///   {
///     "schema": "fpint-bench-report-v1",
///     "binary": "<bench binary name>",
///     "runs": [ { "id": "<workload>/<scheme>/<machine>#<fnv64/8>",
///                 "workload": ..., "scheme": ..., "machine": {...},
///                 "pipeline": {...}, "stats": {..., "telemetry": {...}} } ]
///   }
///
/// Run ids embed a stable FNV-1a hash of the full pipeline + machine
/// canonical keys so that visually identical points (e.g. the 4-way
/// machine with and without FPa, or two cost-sweep settings) never
/// collide; diffing matches runs by id.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_STATS_REPORT_H
#define FPINT_STATS_REPORT_H

#include "core/Pipeline.h"
#include "support/Json.h"

#include <string>
#include <vector>

namespace fpint {
namespace stats {

/// Schema tag emitted in (and required of) every report document.
extern const char *const ReportSchema;

json::Value machineToJson(const timing::MachineConfig &M);
json::Value pipelineConfigToJson(const core::PipelineConfig &C);
/// Includes a "telemetry" sub-object iff \p S carries a breakdown.
json::Value simStatsToJson(const timing::SimStats &S);
json::Value breakdownToJson(const StallBreakdown &B);
/// The per-pass compile telemetry table ("passes" array of a run):
/// name, wall ms and change count per pass.
json::Value passStatsToJson(const std::vector<core::PassStat> &Passes);

/// Register-allocation telemetry of one run (the "regalloc" object):
/// its spill/reload/save-restore footprint.
/// Every field except WallMs is deterministic for a fixed pipeline
/// and is gated by diffReports; WallMs is informational like
/// sim_wall_ms.
struct RegAllocSummary {
  bool Allocated = false; ///< A regalloc pass ran.
  unsigned Functions = 0;
  unsigned SpilledIntervals = 0;
  unsigned SpillSlots = 0;
  unsigned SpillLoads = 0;
  unsigned SpillStores = 0;
  unsigned CalleeSaveStores = 0;
  unsigned CalleeSaveRestores = 0;
  double WallMs = 0.0;

  /// Aggregates \p Run's allocation; a run that never reached
  /// regalloc yields an invalid summary that is simply not emitted.
  static RegAllocSummary of(const core::PipelineRun &Run);
  bool valid() const { return Allocated; }
};

json::Value regAllocSummaryToJson(const RegAllocSummary &S);

/// The stable run identity used as the diff key:
///   <workload>/<scheme>/<machine-name>#<first 8 hex of fnv1a64(keys)>.
std::string runId(const std::string &Workload,
                  const core::PipelineConfig &Pipeline,
                  const timing::MachineConfig &Machine);

/// Writes \p Doc (canonical dump, newline-terminated) to
/// <OutDir>/<Name>.json, creating OutDir. Shared by StatsRegistry and
/// the serving load generator so every report lands on disk the same
/// way. Returns false with \p Err set on I/O failure.
bool writeReportDoc(const std::string &OutDir, const std::string &Name,
                    const json::Value &Doc, std::string *Err);

//===----------------------------------------------------------------------===//
// Report diffing (the regression gate's engine).
//===----------------------------------------------------------------------===//

struct DiffOptions {
  /// Relative tolerance, in percent, before a cycles increase or an
  /// IPC decrease counts as a regression.
  double TolerancePct = 0.1;
};

/// One compared metric of one run.
struct MetricDelta {
  std::string RunId;
  std::string Metric; ///< "cycles", "ipc", "instructions", "sim_wall_ms".
  double Base = 0, Current = 0;
  double DeltaPct = 0; ///< (Current - Base) / Base * 100.
  bool Regression = false;
  /// Informational metrics (simulator wall time) are surfaced for
  /// trend-watching but can never regress, whatever the delta.
  bool Informational = false;
};

struct DiffResult {
  std::vector<MetricDelta> Deltas; ///< Base-report run order.
  /// Structural findings: runs missing from the current tree, schema
  /// mismatches, unparseable stats. Problems fail a --check run.
  std::vector<std::string> Problems;
  unsigned Regressions = 0;

  bool clean() const { return Regressions == 0 && Problems.empty(); }
};

/// Diffs two single-report documents (both must carry ReportSchema).
/// Every run of \p Base is matched by id in \p Current; cycles and IPC
/// are gated against the tolerance, instruction-count changes are
/// reported as problems (a changed dynamic instruction count means the
/// compiler changed, not just the machine). Runs only in \p Current
/// are ignored (new coverage is not a regression). Top-level objects
/// other than "runs" (such as the counter objects of older reports)
/// are ignored.
DiffResult diffReports(const json::Value &Base, const json::Value &Current,
                       const DiffOptions &Opts);

} // namespace stats
} // namespace fpint

#endif // FPINT_STATS_REPORT_H
