//===- campaign/Explore.cpp - Machine design-space explorer ---------------===//

#include "campaign/Explore.h"

#include "core/Pipeline.h"
#include "core/RunCache.h"
#include "stats/Report.h"
#include "support/Hash.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <set>

using namespace fpint;
using namespace fpint::campaign;

const char *const campaign::ExploreSchema = "fpint-explore-report-v1";

namespace {

/// One functional-unit mix axis point.
struct FuMix {
  unsigned IntUnits, FpUnits;
};

/// Scales a Table 1 machine to the swept axis values. The derived
/// fields follow the fourWay() proportions: window 4x the width,
/// in-flight 2x the window, the 32-entry architectural file plus one
/// rename register per window slot per side (win16 -> 48, exactly the
/// 4-way machine), one load/store port per two INT units.
timing::MachineConfig makeMachine(unsigned Width, const FuMix &Fu,
                                  unsigned Window,
                                  timing::PredictorKind Pred,
                                  unsigned DCacheKb) {
  timing::MachineConfig M = timing::MachineConfig::fourWay();
  M.Name = "explore";
  M.FetchWidth = M.DecodeWidth = M.RetireWidth = Width;
  M.IntWindow = M.FpWindow = Window;
  M.MaxInFlight = 2 * Window;
  M.IntUnits = Fu.IntUnits;
  M.FpUnits = Fu.FpUnits;
  M.LoadStorePorts = std::max(1u, Fu.IntUnits / 2);
  M.IntPhysRegs = M.FpPhysRegs = 32 + Window;
  M.DCache.SizeBytes = DCacheKb * 1024;
  M.Predictor = Pred;
  return M;
}

const char *predTag(timing::PredictorKind K) {
  switch (K) {
  case timing::PredictorKind::Gshare:
    return "gs";
  case timing::PredictorKind::McFarling:
    return "mcf";
  case timing::PredictorKind::StaticNotTaken:
    return "st";
  }
  return "?";
}

std::string pointLabel(unsigned Width, const FuMix &Fu, unsigned Window,
                       timing::PredictorKind Pred, unsigned DCacheKb) {
  return "w" + std::to_string(Width) + "_fu" + std::to_string(Fu.IntUnits) +
         "+" + std::to_string(Fu.FpUnits) + "_win" + std::to_string(Window) +
         "_" + predTag(Pred) + "_d" + std::to_string(DCacheKb) + "k";
}

/// Cross product of the per-grid axis lists, filtered to feasible
/// machines (no more INT units than issue width, no more FP than INT
/// units -- the paper's machines are INT-led).
std::vector<MachinePoint>
crossGrid(const std::vector<unsigned> &Widths, const std::vector<FuMix> &Fus,
          const std::vector<timing::PredictorKind> &Preds,
          const std::vector<unsigned> &DCacheKbs) {
  std::vector<MachinePoint> Grid;
  for (unsigned W : Widths)
    for (const FuMix &Fu : Fus) {
      if (Fu.IntUnits > W || Fu.FpUnits > Fu.IntUnits)
        continue;
      unsigned Window = 4 * W;
      for (timing::PredictorKind P : Preds)
        for (unsigned Kb : DCacheKbs)
          Grid.push_back({pointLabel(W, Fu, Window, P, Kb),
                          makeMachine(W, Fu, Window, P, Kb)});
    }
  return Grid;
}

/// The pipeline of one side of a cell: conventional (Scheme::None) or
/// advanced-partitioned, on the workload's own inputs.
core::PipelineConfig cellConfig(const workloads::Workload &W,
                                partition::Scheme S) {
  core::PipelineConfig Cfg;
  Cfg.Scheme = S;
  Cfg.TrainArgs = W.TrainArgs;
  Cfg.RefArgs = W.RefArgs;
  return Cfg;
}

} // namespace

std::vector<MachinePoint> campaign::exploreGrid(const std::string &Grid) {
  using PK = timing::PredictorKind;
  if (Grid == "smoke")
    return crossGrid({2, 4}, {{1, 1}, {2, 2}}, {PK::Gshare}, {32});
  if (Grid == "small")
    return crossGrid({2, 4, 8}, {{1, 1}, {2, 1}, {2, 2}, {4, 2}, {4, 4}},
                     {PK::Gshare, PK::McFarling, PK::StaticNotTaken}, {32});
  if (Grid == "full")
    return crossGrid({2, 4, 8}, {{1, 1}, {2, 1}, {2, 2}, {4, 2}, {4, 4}},
                     {PK::Gshare, PK::McFarling, PK::StaticNotTaken},
                     {16, 32, 64});
  return {};
}

uint64_t campaign::resourceCost(const timing::MachineConfig &M) {
  uint64_t Cost = 0;
  // Execution resources dominate: functional units and memory ports.
  Cost += 6ull * (M.IntUnits + M.FpUnits);
  Cost += 8ull * M.LoadStorePorts;
  // Pipe widths and out-of-order capacity.
  Cost += 4ull * (M.FetchWidth + M.DecodeWidth + M.RetireWidth);
  Cost += 2ull * (M.IntWindow + M.FpWindow);
  Cost += M.MaxInFlight;
  Cost += M.IntPhysRegs + M.FpPhysRegs;
  // SRAM: caches by the kilobyte, predictor state by the 512 bits.
  Cost += (M.ICache.SizeBytes + M.DCache.SizeBytes) / 1024;
  uint64_t PredBits = 0;
  switch (M.Predictor) {
  case timing::PredictorKind::Gshare:
    PredBits = 2ull << M.PredictorTableBits;
    break;
  case timing::PredictorKind::McFarling:
    PredBits = 3ull * (2ull << M.PredictorTableBits);
    break;
  case timing::PredictorKind::StaticNotTaken:
    break;
  }
  Cost += PredBits / 512;
  return Cost;
}

std::vector<bool> campaign::paretoFrontier(const std::vector<uint64_t> &Cost,
                                           const std::vector<double> &Value) {
  std::vector<bool> OnFrontier(Cost.size(), true);
  for (size_t I = 0; I < Cost.size(); ++I)
    for (size_t J = 0; J < Cost.size(); ++J) {
      if (I == J)
        continue;
      bool NoWorse = Cost[J] <= Cost[I] && Value[J] >= Value[I];
      bool Better = Cost[J] < Cost[I] || Value[J] > Value[I];
      if (NoWorse && Better) {
        OnFrontier[I] = false;
        break;
      }
    }
  return OnFrontier;
}

json::Value campaign::evaluateExploreCell(const std::string &WorkloadName,
                                          const timing::MachineConfig &M) {
  workloads::Workload W = workloads::workloadByName(WorkloadName);

  const core::PipelineConfig Conv = cellConfig(W, partition::Scheme::None);
  const core::PipelineConfig Aug = cellConfig(W, partition::Scheme::Advanced);

  // Deliberately core::compileAndMeasure, not RunCache::global(): cells
  // run in forked sandbox children and must not touch shared parent
  // state (see Campaign.h's fork contract).
  core::PipelineRun ConvRun = core::compileAndMeasure(*W.M, Conv);
  if (!ConvRun.ok())
    throw std::runtime_error(
        "conventional pipeline failed for " + WorkloadName + ": " +
        (ConvRun.Errors.empty() ? "output mismatch" : ConvRun.Errors[0]));
  core::PipelineRun AugRun = core::compileAndMeasure(*W.M, Aug);
  if (!AugRun.ok())
    throw std::runtime_error(
        "advanced pipeline failed for " + WorkloadName + ": " +
        (AugRun.Errors.empty() ? "output mismatch" : AugRun.Errors[0]));

  // The conventional baseline runs on the FPa-disabled twin of the
  // swept machine (a conventional machine cannot run ",a" code; the
  // augmented binary needs FPa on).
  timing::MachineConfig ConvM = M;
  ConvM.FpaEnabled = false;
  timing::MachineConfig AugM = M;
  AugM.FpaEnabled = true;
  timing::SimStats ConvS = core::simulate(ConvRun, ConvM);
  timing::SimStats AugS = core::simulate(AugRun, AugM);

  // Integer counters only: the cell document must be a deterministic
  // function of (workload, machine) so journal replay is byte-exact.
  json::Value Doc = json::Value::object();
  Doc.set("workload", WorkloadName);
  Doc.set("conv_cycles", ConvS.Cycles);
  Doc.set("aug_cycles", AugS.Cycles);
  Doc.set("conv_instructions", ConvS.Instructions);
  Doc.set("aug_instructions", AugS.Instructions);
  Doc.set("aug_fp_issued", AugS.FpIssued);
  return Doc;
}

std::string campaign::explorePipelineKey(const std::string &WorkloadName) {
  workloads::Workload W = workloads::workloadByName(WorkloadName);
  return core::RunCache::runKey(WorkloadName,
                                cellConfig(W, partition::Scheme::None)) +
         "|" +
         core::RunCache::runKey(WorkloadName,
                                cellConfig(W, partition::Scheme::Advanced));
}

int campaign::runExplore(const ExploreOptions &Opts, Summary *OutSummary) {
  const std::vector<MachinePoint> Grid = exploreGrid(Opts.Grid);
  if (Grid.empty()) {
    std::fprintf(stderr, "fpint-explore: unknown grid '%s'\n",
                 Opts.Grid.c_str());
    return 2;
  }

  std::vector<std::string> Workloads = Opts.Workloads;
  if (Workloads.empty()) {
    if (Opts.Grid == "smoke")
      Workloads = {"compress", "perl"};
    else if (Opts.Grid == "small")
      Workloads = {"compress", "go", "perl"};
    else
      for (const workloads::Workload &W : workloads::intWorkloads())
        Workloads.push_back(W.Name);
  }
  {
    const std::vector<std::string> Known = workloads::allWorkloadNames();
    for (const std::string &Name : Workloads)
      if (std::find(Known.begin(), Known.end(), Name) == Known.end()) {
        std::fprintf(stderr, "fpint-explore: unknown workload '%s'\n",
                     Name.c_str());
        return 2;
      }
  }

  std::map<std::string, std::string> PipelineKeys;
  for (const std::string &Name : Workloads)
    PipelineKeys[Name] = explorePipelineKey(Name);

  // Cells in deterministic (machine-major) order; the campaign key
  // folds every cell key so any change of grid, workload set, compiler
  // identity, or schema starts a fresh campaign instead of resuming a
  // stale one.
  struct CellTarget {
    std::string Workload;
    const timing::MachineConfig *M;
    size_t MachineIdx;
  };
  std::vector<Cell> Cells;
  std::map<std::string, CellTarget> Targets;
  support::ChainedKey CampaignKey(ExploreSchema);
  CampaignKey.add(Opts.Grid);
  for (size_t MI = 0; MI < Grid.size(); ++MI) {
    const MachinePoint &P = Grid[MI];
    const std::string MachineKey = P.M.canonicalKey();
    for (const std::string &Name : Workloads) {
      Cell C;
      C.Key = cellKey(Name, PipelineKeys[Name], MachineKey);
      C.Label = Name + "@" + P.Label;
      CampaignKey.add(C.Key);
      Targets[C.Key] = {Name, &P.M, MI};
      Cells.push_back(std::move(C));
    }
  }

  Options RunnerOpts;
  RunnerOpts.Dir = Opts.StateDir;
  RunnerOpts.CampaignKey = CampaignKey.hex();
  RunnerOpts.Jobs = Opts.Jobs;

  Runner R(RunnerOpts);
  std::vector<CellOutcome> Outcomes;
  try {
    Outcomes = R.run(Cells, [&Targets](const Cell &C) {
      const CellTarget &T = Targets.at(C.Key);
      return evaluateExploreCell(T.Workload, *T.M);
    });
  } catch (const std::exception &E) {
    std::fprintf(stderr, "fpint-explore: %s\n", E.what());
    return 2;
  }
  const Summary &Sum = R.summary();
  if (OutSummary)
    *OutSummary = Sum;

  // Aggregate per machine point, in grid order. A machine with any ERR
  // cell is reported (with its error count) but keeps no geomean and
  // never reaches the frontier -- a partial geomean would not be
  // comparable across points.
  json::Value Machines = json::Value::array();
  std::vector<size_t> CompleteIdx;
  std::vector<uint64_t> CompleteCost;
  std::vector<double> CompleteGeomean;
  std::vector<json::Value> MachineDocs(Grid.size());
  for (size_t MI = 0; MI < Grid.size(); ++MI) {
    const MachinePoint &P = Grid[MI];
    json::Value MDoc = json::Value::object();
    MDoc.set("label", P.Label);
    MDoc.set("machine_key", P.M.canonicalKey());
    MDoc.set("cost", resourceCost(P.M));
    json::Value CellsDoc = json::Value::array();
    unsigned Errors = 0;
    double LogSum = 0.0;
    unsigned OkCells = 0;
    for (size_t CI = 0; CI < Cells.size(); ++CI) {
      if (Targets.at(Cells[CI].Key).MachineIdx != MI)
        continue;
      const CellOutcome &Out = Outcomes[CI];
      json::Value CellDoc = json::Value::object();
      CellDoc.set("workload", Targets.at(Cells[CI].Key).Workload);
      CellDoc.set("key", Cells[CI].Key);
      if (Out.ok()) {
        const double ConvCycles = Out.Result.numberOr("conv_cycles", 0);
        const double AugCycles = Out.Result.numberOr("aug_cycles", 0);
        CellDoc.set("conv_cycles",
                    static_cast<uint64_t>(ConvCycles));
        CellDoc.set("aug_cycles", static_cast<uint64_t>(AugCycles));
        const double Speedup =
            AugCycles > 0 ? ConvCycles / AugCycles : 0.0;
        CellDoc.set("speedup", Speedup);
        if (Speedup > 0) {
          LogSum += std::log(Speedup);
          ++OkCells;
        }
      } else {
        CellDoc.set("error_kind", Out.ErrorKind);
        CellDoc.set("error", Out.Error);
        ++Errors;
      }
      CellsDoc.push(std::move(CellDoc));
    }
    MDoc.set("cells", std::move(CellsDoc));
    if (Errors == 0 && OkCells > 0) {
      const double Geomean = std::exp(LogSum / OkCells);
      MDoc.set("geomean_speedup", Geomean);
      CompleteIdx.push_back(MI);
      CompleteCost.push_back(resourceCost(P.M));
      CompleteGeomean.push_back(Geomean);
    } else {
      MDoc.set("errors", Errors);
    }
    MachineDocs[MI] = std::move(MDoc);
  }

  const std::vector<bool> OnFrontier =
      paretoFrontier(CompleteCost, CompleteGeomean);
  json::Value Frontier = json::Value::array();
  for (size_t K = 0; K < CompleteIdx.size(); ++K)
    MachineDocs[CompleteIdx[K]].set("pareto", static_cast<bool>(OnFrontier[K]));
  for (size_t K = 0; K < CompleteIdx.size(); ++K)
    if (OnFrontier[K])
      Frontier.push(Grid[CompleteIdx[K]].Label);
  for (json::Value &MDoc : MachineDocs)
    Machines.push(std::move(MDoc));

  // The deterministic frontier report: a pure function of grid,
  // workloads, and simulator. CI byte-diffs a resumed campaign's copy
  // against an uninterrupted run's.
  json::Value Doc = json::Value::object();
  Doc.set("schema", ExploreSchema);
  Doc.set("grid", Opts.Grid);
  {
    json::Value WDoc = json::Value::array();
    for (const std::string &Name : Workloads)
      WDoc.push(Name);
    Doc.set("workloads", std::move(WDoc));
  }
  const size_t FrontierSize = Frontier.size();
  Doc.set("machines", std::move(Machines));
  Doc.set("frontier", std::move(Frontier));

  std::string Err;
  if (!publishReport(Opts.OutPath, Doc, &Err)) {
    std::fprintf(stderr, "fpint-explore: %s\n", Err.c_str());
    return 2;
  }

  // Run-varying campaign accounting goes in a sidecar report (never in
  // the deterministic document above): a ReportSchema doc whose
  // "campaign" object fpint-report renders informationally.
  json::Value SideDoc = json::Value::object();
  SideDoc.set("schema", stats::ReportSchema);
  SideDoc.set("binary", "fpint-explore");
  SideDoc.set("runs", json::Value::array());
  SideDoc.set("campaign", summaryToJson(Sum));
  std::string SidePath = Opts.OutPath;
  const std::string Suffix = ".json";
  if (SidePath.size() > Suffix.size() &&
      SidePath.compare(SidePath.size() - Suffix.size(), Suffix.size(),
                       Suffix) == 0)
    SidePath = SidePath.substr(0, SidePath.size() - Suffix.size());
  SidePath += "_campaign.json";
  if (!publishReport(SidePath, SideDoc, &Err)) {
    std::fprintf(stderr, "fpint-explore: %s\n", Err.c_str());
    return 2;
  }

  std::printf("explore: %llu cells (%llu resumed, %llu executed, %llu "
              "retried, %llu errors), %zu/%zu machines complete, %zu on "
              "the frontier\n",
              static_cast<unsigned long long>(Sum.Cells),
              static_cast<unsigned long long>(Sum.Resumed),
              static_cast<unsigned long long>(Sum.Executed),
              static_cast<unsigned long long>(Sum.Retried),
              static_cast<unsigned long long>(Sum.Errors),
              CompleteIdx.size(), Grid.size(), FrontierSize);
  std::printf("explore: report %s\n", Opts.OutPath.c_str());

  return (Opts.Strict && Sum.Errors > 0) ? 1 : 0;
}
