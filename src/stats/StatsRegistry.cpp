//===- stats/StatsRegistry.cpp - Process-wide run-record registry ---------===//

#include "stats/StatsRegistry.h"

using namespace fpint;
using namespace fpint::stats;

void StatsRegistry::record(const std::string &Workload,
                           const core::PipelineConfig &Pipeline,
                           const timing::MachineConfig &Machine,
                           const timing::SimStats &Stats,
                           vm::TrapKind Trap,
                           std::vector<core::PassStat> Passes,
                           RegAllocSummary RegAlloc) {
  RunRecord R;
  R.Id = runId(Workload, Pipeline, Machine);
  R.Workload = Workload;
  R.Pipeline = Pipeline;
  R.Machine = Machine;
  R.Stats = Stats;
  R.Trap = Trap;
  R.Passes = std::move(Passes);
  R.RegAlloc = std::move(RegAlloc);
  std::lock_guard<std::mutex> Lock(Mu);
  Records.emplace(R.Id, std::move(R)); // First record per id wins.
}

size_t StatsRegistry::numRecords() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Records.size();
}

json::Value StatsRegistry::reportJson(const std::string &BinaryName) const {
  json::Value Doc = json::Value::object();
  Doc.set("schema", ReportSchema);
  Doc.set("binary", BinaryName);
  json::Value Runs = json::Value::array();
  std::lock_guard<std::mutex> Lock(Mu);
  for (const auto &KV : Records) {
    const RunRecord &R = KV.second;
    json::Value Run = json::Value::object();
    Run.set("id", R.Id);
    Run.set("workload", R.Workload);
    Run.set("scheme", partition::schemeName(R.Pipeline.Scheme));
    Run.set("trap", vm::trapKindName(R.Trap));
    Run.set("machine", machineToJson(R.Machine));
    Run.set("pipeline", pipelineConfigToJson(R.Pipeline));
    Run.set("stats", simStatsToJson(R.Stats));
    if (!R.Passes.empty())
      Run.set("passes", passStatsToJson(R.Passes));
    if (R.RegAlloc.valid())
      Run.set("regalloc", regAllocSummaryToJson(R.RegAlloc));
    Runs.push(std::move(Run));
  }
  Doc.set("runs", std::move(Runs));
  return Doc;
}

bool StatsRegistry::writeReport(const std::string &OutDir,
                                const std::string &BinaryName,
                                std::string *Err) const {
  return writeReportDoc(OutDir, BinaryName, reportJson(BinaryName), Err);
}

void StatsRegistry::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Records.clear();
}

StatsRegistry &StatsRegistry::global() {
  static StatsRegistry Registry;
  return Registry;
}
