//===- stats/Report.cpp - Structured JSON results and diffing -------------===//

#include "stats/Report.h"

#include "core/PassManager.h"
#include "support/Hash.h"

#include <cinttypes>
#include <cstdio>
#include <filesystem>

using namespace fpint;
using namespace fpint::stats;
using json::Value;

const char *const stats::ReportSchema = "fpint-bench-report-v1";

static Value cacheToJson(const timing::CacheConfig &C) {
  Value V = Value::object();
  V.set("size_bytes", C.SizeBytes);
  V.set("assoc", C.Assoc);
  V.set("line_bytes", C.LineBytes);
  V.set("hit_latency", C.HitLatency);
  V.set("miss_penalty", C.MissPenalty);
  return V;
}

static const char *predictorName(timing::PredictorKind K) {
  switch (K) {
  case timing::PredictorKind::Gshare:
    return "gshare";
  case timing::PredictorKind::McFarling:
    return "mcfarling";
  case timing::PredictorKind::StaticNotTaken:
    return "static_not_taken";
  }
  return "?";
}

Value stats::machineToJson(const timing::MachineConfig &M) {
  Value V = Value::object();
  V.set("name", M.Name);
  V.set("fetch_width", M.FetchWidth);
  V.set("decode_width", M.DecodeWidth);
  V.set("retire_width", M.RetireWidth);
  V.set("int_window", M.IntWindow);
  V.set("fp_window", M.FpWindow);
  V.set("max_in_flight", M.MaxInFlight);
  V.set("int_units", M.IntUnits);
  V.set("fp_units", M.FpUnits);
  V.set("load_store_ports", M.LoadStorePorts);
  V.set("int_phys_regs", M.IntPhysRegs);
  V.set("fp_phys_regs", M.FpPhysRegs);
  V.set("icache", cacheToJson(M.ICache));
  V.set("dcache", cacheToJson(M.DCache));
  Value P = Value::object();
  P.set("kind", predictorName(M.Predictor));
  P.set("table_bits", M.PredictorTableBits);
  P.set("history_bits", M.PredictorHistoryBits);
  V.set("predictor", std::move(P));
  V.set("mispredict_redirect", M.MispredictRedirect);
  V.set("fetch_breaks_on_taken", M.FetchBreaksOnTaken);
  V.set("fpa_enabled", M.FpaEnabled);
  return V;
}

static Value argsToJson(const std::vector<int32_t> &Args) {
  Value V = Value::array();
  for (int32_t A : Args)
    V.push(static_cast<int64_t>(A));
  return V;
}

Value stats::pipelineConfigToJson(const core::PipelineConfig &C) {
  Value V = Value::object();
  V.set("scheme", partition::schemeName(C.Scheme));
  Value Costs = Value::object();
  Costs.set("copy_overhead", C.Costs.CopyOverhead);
  Costs.set("dup_overhead", C.Costs.DupOverhead);
  Costs.set("fpa_share_cap", C.Costs.FpaShareCap);
  V.set("costs", std::move(Costs));
  V.set("train_args", argsToJson(C.TrainArgs));
  V.set("ref_args", argsToJson(C.RefArgs));
  V.set("passes", core::effectivePipelineText(C));
  return V;
}

RegAllocSummary RegAllocSummary::of(const core::PipelineRun &Run) {
  RegAllocSummary S;
  S.Allocated = Run.Allocated;
  for (const auto &KV : Run.Alloc.Funcs) {
    ++S.Functions;
    S.SpilledIntervals += KV.second.SpilledIntervals;
    S.SpillSlots += KV.second.SpillSlots;
    S.SpillLoads += KV.second.SpillLoads;
    S.SpillStores += KV.second.SpillStores;
    S.CalleeSaveStores += KV.second.CalleeSaveStores;
    S.CalleeSaveRestores += KV.second.CalleeSaveRestores;
    S.WallMs += KV.second.WallMs;
  }
  return S;
}

Value stats::regAllocSummaryToJson(const RegAllocSummary &S) {
  Value V = Value::object();
  V.set("functions", S.Functions);
  V.set("spilled_intervals", S.SpilledIntervals);
  V.set("spill_slots", S.SpillSlots);
  V.set("spill_loads", S.SpillLoads);
  V.set("spill_stores", S.SpillStores);
  V.set("callee_save_stores", S.CalleeSaveStores);
  V.set("callee_save_restores", S.CalleeSaveRestores);
  // Informational, like every wall_ms in the schema.
  V.set("wall_ms", S.WallMs);
  return V;
}

Value stats::passStatsToJson(const std::vector<core::PassStat> &Passes) {
  Value V = Value::array();
  for (const core::PassStat &P : Passes) {
    Value Row = Value::object();
    Row.set("name", P.Name);
    Row.set("wall_ms", P.WallMs);
    Row.set("changes", P.Changes);
    V.push(std::move(Row));
  }
  return V;
}

static Value histToJson(const std::vector<uint64_t> &H) {
  Value V = Value::array();
  for (uint64_t N : H)
    V.push(N);
  return V;
}

Value stats::breakdownToJson(const StallBreakdown &B) {
  Value V = Value::object();
  V.set("cycles", B.Cycles);
  V.set("non_issuing_cycles", B.NonIssuingCycles);
  Value Stalls = Value::object();
  for (unsigned R = 1; R < NumStallReasons; ++R)
    Stalls.set(stallReasonName(static_cast<StallReason>(R)),
               B.StallCycles[R]);
  V.set("stalls", std::move(Stalls));
  V.set("int_issue_hist", histToJson(B.IntIssueHist));
  V.set("fp_issue_hist", histToJson(B.FpIssueHist));
  V.set("int_window_full_cycles", B.IntWindowFullCycles);
  V.set("fp_window_full_cycles", B.FpWindowFullCycles);
  double Cyc = B.Cycles ? static_cast<double>(B.Cycles) : 1.0;
  V.set("int_window_occupancy_avg",
        static_cast<double>(B.IntWindowOccupancySum) / Cyc);
  V.set("fp_window_occupancy_avg",
        static_cast<double>(B.FpWindowOccupancySum) / Cyc);
  V.set("partition_holds", B.partitionHolds());
  return V;
}

Value stats::simStatsToJson(const timing::SimStats &S) {
  Value V = Value::object();
  V.set("cycles", S.Cycles);
  V.set("instructions", S.Instructions);
  V.set("ipc", S.ipc());
  V.set("int_issued", S.IntIssued);
  V.set("fp_issued", S.FpIssued);
  V.set("cond_branches", S.CondBranches);
  V.set("mispredicts", S.Mispredicts);
  V.set("branch_accuracy", S.branchAccuracy());
  V.set("loads", S.Loads);
  V.set("stores", S.Stores);
  V.set("dcache_misses", S.DCacheMisses);
  V.set("icache_misses", S.ICacheMisses);
  V.set("store_forwards", S.StoreForwards);
  V.set("fp_busy_cycles", S.FpBusyCycles);
  V.set("int_idle_fp_busy_cycles", S.IntIdleFpBusyCycles);
  V.set("int_idle_while_fp_busy", S.intIdleWhileFpBusy());
  // Informational throughput figures: never gated by diffReports or
  // fpint-report (wall time is machine/load dependent).
  V.set("sim_wall_ms", S.SimWallMs);
  V.set("sim_cycles_per_sec", S.cyclesPerSecond());
  if (S.Telemetry)
    V.set("telemetry", breakdownToJson(*S.Telemetry));
  return V;
}

std::string stats::runId(const std::string &Workload,
                         const core::PipelineConfig &Pipeline,
                         const timing::MachineConfig &Machine) {
  // support::fnv1a64 is platform-stable (std::hash is not), and ids
  // are committed in golden baselines.
  uint64_t H =
      support::fnv1a64(core::runKey(Workload, Pipeline) + "|" +
                       Machine.canonicalKey());
  char Tag[12];
  std::snprintf(Tag, sizeof(Tag), "%08" PRIx64,
                static_cast<uint64_t>((H & 0xffffffffULL) ^ (H >> 32)));
  return Workload + "/" + partition::schemeName(Pipeline.Scheme) + "/" +
         Machine.Name + "#" + Tag;
}

bool stats::writeReportDoc(const std::string &OutDir, const std::string &Name,
                           const json::Value &Doc, std::string *Err) {
  std::error_code EC;
  std::filesystem::create_directories(OutDir, EC);
  if (EC) {
    if (Err)
      *Err = "cannot create " + OutDir + ": " + EC.message();
    return false;
  }
  const std::string Path = OutDir + "/" + Name + ".json";
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    if (Err)
      *Err = "cannot open " + Path;
    return false;
  }
  const std::string Text = Doc.dump() + "\n";
  size_t Written = std::fwrite(Text.data(), 1, Text.size(), F);
  bool Ok = Written == Text.size() && std::fclose(F) == 0;
  if (!Ok && Err)
    *Err = "short write to " + Path;
  return Ok;
}

//===----------------------------------------------------------------------===//
// Diffing.
//===----------------------------------------------------------------------===//

DiffResult stats::diffReports(const Value &Base, const Value &Current,
                              const DiffOptions &Opts) {
  DiffResult R;
  auto checkSchema = [&](const Value &Doc, const char *Which) {
    if (Doc.strOr("schema", "") != ReportSchema)
      R.Problems.push_back(std::string(Which) +
                           " report has wrong or missing schema tag");
  };
  checkSchema(Base, "baseline");
  checkSchema(Current, "current");

  const Value *CurRuns = Current.find("runs");
  const Value *BaseRuns = Base.find("runs");
  if (!BaseRuns || !BaseRuns->isArray() || !CurRuns || !CurRuns->isArray()) {
    R.Problems.push_back("missing runs array");
    return R;
  }

  auto findRun = [&](const std::string &Id) -> const Value * {
    for (const Value &Run : CurRuns->items())
      if (Run.strOr("id", "") == Id)
        return &Run;
    return nullptr;
  };

  for (const Value &BaseRun : BaseRuns->items()) {
    const std::string Id = BaseRun.strOr("id", "");
    const Value *CurRun = findRun(Id);
    if (!CurRun) {
      R.Problems.push_back("run missing from current tree: " + Id);
      continue;
    }
    const Value *BS = BaseRun.find("stats");
    const Value *CS = CurRun->find("stats");
    if (!BS || !BS->isObject() || !CS || !CS->isObject()) {
      R.Problems.push_back("run has no stats object: " + Id);
      continue;
    }

    auto addDelta = [&](const char *Metric, double B, double C,
                        bool Regressed) {
      MetricDelta D;
      D.RunId = Id;
      D.Metric = Metric;
      D.Base = B;
      D.Current = C;
      D.DeltaPct = B != 0 ? (C - B) / B * 100.0 : 0.0;
      D.Regression = Regressed;
      if (Regressed)
        ++R.Regressions;
      R.Deltas.push_back(std::move(D));
    };

    const double Tol = Opts.TolerancePct / 100.0;
    double BCyc = BS->numberOr("cycles", 0);
    double CCyc = CS->numberOr("cycles", 0);
    addDelta("cycles", BCyc, CCyc, CCyc > BCyc * (1.0 + Tol));
    double BIpc = BS->numberOr("ipc", 0);
    double CIpc = CS->numberOr("ipc", 0);
    addDelta("ipc", BIpc, CIpc, CIpc < BIpc * (1.0 - Tol));

    // Simulator wall time: informational trend only. Baselines
    // predating the field (or runs too fast to time) are skipped; a
    // slower simulator is never a report regression.
    double BWall = BS->numberOr("sim_wall_ms", 0);
    double CWall = CS->numberOr("sim_wall_ms", 0);
    if (BWall > 0 && CWall > 0) {
      addDelta("sim_wall_ms", BWall, CWall, false);
      R.Deltas.back().Informational = true;
    }

    double BIns = BS->numberOr("instructions", 0);
    double CIns = CS->numberOr("instructions", 0);
    if (BIns != CIns) {
      addDelta("instructions", BIns, CIns, false);
      R.Problems.push_back("dynamic instruction count changed for " + Id +
                           " (compiler behaviour change)");
    }

    // Per-pass compile telemetry: for a fixed pipeline the change
    // counts are deterministic, so any drift is a compile-side
    // behaviour change. Baselines predating the "passes" array are
    // skipped; wall_ms is informational and never compared, and keys
    // this report no longer emits (the analysis cache counters) are
    // ignored.
    const Value *BP = BaseRun.find("passes");
    const Value *CP = CurRun->find("passes");
    if (BP && BP->isArray() && CP && CP->isArray()) {
      if (BP->items().size() != CP->items().size()) {
        R.Problems.push_back("pass pipeline shape changed for " + Id);
      } else {
        for (size_t I = 0; I < BP->items().size(); ++I) {
          const Value &BRow = BP->items()[I];
          const Value &CRow = CP->items()[I];
          const std::string BName = BRow.strOr("name", "");
          if (BName != CRow.strOr("name", "")) {
            R.Problems.push_back("pass order changed for " + Id + ": '" +
                                 BName + "' vs '" + CRow.strOr("name", "") +
                                 "'");
            continue;
          }
          double BV = BRow.numberOr("changes", 0);
          double CV = CRow.numberOr("changes", 0);
          if (BV != CV)
            R.Problems.push_back(
                "pass '" + BName + "' changes changed for " + Id + " (" +
                std::to_string(static_cast<long long>(BV)) + " -> " +
                std::to_string(static_cast<long long>(CV)) + ")");
        }
      }
    }

    // Register-allocation telemetry: the spill footprint is
    // deterministic for a fixed pipeline, so drift is a compile-side
    // behaviour change. Baselines predating the "regalloc" object are
    // skipped; wall_ms is informational like sim_wall_ms.
    const Value *BA = BaseRun.find("regalloc");
    const Value *CA = CurRun->find("regalloc");
    if (BA && BA->isObject() && CA && CA->isObject()) {
      for (const char *Metric :
           {"functions", "spilled_intervals", "spill_slots", "spill_loads",
            "spill_stores", "callee_save_stores", "callee_save_restores"}) {
        double BV = BA->numberOr(Metric, 0);
        double CV = CA->numberOr(Metric, 0);
        if (BV != CV)
          R.Problems.push_back(
              "regalloc " + std::string(Metric) + " changed for " + Id +
              " (" + std::to_string(static_cast<long long>(BV)) + " -> " +
              std::to_string(static_cast<long long>(CV)) + ")");
      }
      double BWallA = BA->numberOr("wall_ms", 0);
      double CWallA = CA->numberOr("wall_ms", 0);
      if (BWallA > 0 && CWallA > 0) {
        MetricDelta D;
        D.RunId = Id;
        D.Metric = "regalloc_wall_ms";
        D.Base = BWallA;
        D.Current = CWallA;
        D.DeltaPct = BWallA != 0 ? (CWallA - BWallA) / BWallA * 100.0 : 0.0;
        D.Informational = true;
        R.Deltas.push_back(std::move(D));
      }
    }
  }
  return R;
}
