//===- campaign/Explore.h - Machine design-space explorer -----------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The first consumer of the durable campaign runtime (ROADMAP open
/// item 3): the paper evaluates exactly two machine points (Table 1's
/// 4-way and 8-way); production means knowing the whole frontier.
/// fpint-explore sweeps MachineConfigs -- issue widths, window/ROB
/// sizes, INT/FP functional-unit mixes, predictor and D-cache sizes,
/// generalizing bench/ablation_machine -- crossed with workloads, one
/// campaign cell per (machine, workload) point.
///
/// Each cell compiles the workload conventionally (Scheme::None, FPa
/// disabled) and with the advanced partitioner (FPa enabled), then
/// simulates both on the swept machine; the report aggregates per-
/// machine geomean speedups against an integer resource-cost score and
/// marks the Pareto frontier (no other point is at least as fast for
/// at most the cost). Sweep axes and the cost model are documented in
/// docs/CAMPAIGNS.md.
///
/// Everything in the final report is a pure function of the grid, the
/// workloads, and the (deterministic) simulator -- no wall-clock, no
/// campaign counters -- so a SIGKILLed-and-resumed campaign publishes
/// a report byte-identical to an uninterrupted run (CI asserts this).
/// The run-varying campaign counters go into a separate informational
/// report (see runExplore).
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_CAMPAIGN_EXPLORE_H
#define FPINT_CAMPAIGN_EXPLORE_H

#include "campaign/Campaign.h"
#include "timing/MachineConfig.h"

#include <string>
#include <vector>

namespace fpint {
namespace campaign {

/// Schema tag of the explore report document.
extern const char *const ExploreSchema;

/// One swept machine point with its stable display label (the label
/// encodes the axis values, e.g. "w4_fu2+2_win16_gs_d32k").
struct MachinePoint {
  std::string Label;
  timing::MachineConfig M;
};

struct ExploreOptions {
  std::string Grid = "small";      ///< "smoke", "small", or "full".
  std::vector<std::string> Workloads; ///< Empty: grid-dependent default.
  std::string OutPath = "bench_out/explore.json";
  std::string StateDir;            ///< Empty: campaign default.
  int Jobs = 0;                    ///< Forwarded to Runner::Options.
  bool Strict = false;             ///< Nonzero exit on ERR cells.
};

/// The swept machine grid, in deterministic order with unique labels:
///   smoke  a handful of points (CI's kill/resume job)
///   small  a few dozen points (local sanity sweeps)
///   full   hundreds of points (the real frontier campaign)
/// Unknown names return an empty grid.
std::vector<MachinePoint> exploreGrid(const std::string &Grid);

/// Integer resource-cost score of \p M: a weighted sum of functional
/// units, load/store ports, issue/window/ROB capacity, physical
/// registers, pipe widths, cache bytes, and predictor state. Unitless
/// but monotone in every axis, so Pareto comparisons are meaningful.
uint64_t resourceCost(const timing::MachineConfig &M);

/// Marks the Pareto-optimal points of (cost, value) pairs: Out[i] is
/// true iff no j has Cost[j] <= Cost[i] and Value[j] >= Value[i] with
/// at least one strict inequality. Exposed for tests.
std::vector<bool> paretoFrontier(const std::vector<uint64_t> &Cost,
                                 const std::vector<double> &Value);

/// Child-side evaluation of one cell: compiles \p WorkloadName
/// conventionally and advanced-partitioned, simulates both on \p M
/// (conventional run on the FPa-disabled twin), and returns the cell
/// document (integer cycle/instruction counts only -- deterministic by
/// construction). Throws on pipeline failure. Self-contained: safe in
/// a forked sandbox child.
json::Value evaluateExploreCell(const std::string &WorkloadName,
                                const timing::MachineConfig &M);

/// Pipeline identity of \p WorkloadName's cells: the conventional and
/// advanced RunCache keys (every PipelineConfig field, with the
/// resolved pipeline text), so a compiler change re-runs every affected
/// cell. Exposed for tests.
std::string explorePipelineKey(const std::string &WorkloadName);

/// Runs the explore campaign end to end: builds the grid and cell
/// list, runs them through a durable campaign::Runner (resuming from
/// the state directory), publishes the deterministic frontier report
/// at Opts.OutPath and the informational campaign-counters report next
/// to it (<stem>_campaign.json, rendered by fpint-report's "campaign"
/// object). Returns the process exit code: 0, or 1 when Opts.Strict
/// and some cell degraded to ERR. Fills \p OutSummary when non-null.
int runExplore(const ExploreOptions &Opts, Summary *OutSummary);

} // namespace campaign
} // namespace fpint

#endif // FPINT_CAMPAIGN_EXPLORE_H
