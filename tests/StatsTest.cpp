//===- tests/StatsTest.cpp - Telemetry subsystem tests --------------------===//
//
// Covers the stall-attribution partition invariant, the issue-slot
// histograms, the telemetry-off = seed-identical contract, canonical
// JSON round-trips, and the report differ the regression gate uses.

#include "core/Pipeline.h"
#include "sir/Parser.h"
#include "stats/Events.h"
#include "stats/Report.h"
#include "stats/StatsRegistry.h"
#include "support/Json.h"
#include "support/Table.h"
#include "timing/Simulator.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <fstream>
#include <sstream>

using namespace fpint;
using namespace fpint::core;
using namespace fpint::timing;

namespace {

PipelineRun compileSrc(const std::string &Src, partition::Scheme S) {
  sir::ParseResult PR = sir::parseModule(Src);
  EXPECT_TRUE(PR.ok()) << PR.Error;
  PipelineConfig Cfg;
  Cfg.Scheme = S;
  // Hand-shaped dependence kernels; the optimizer would fold them.
  Cfg.Passes = "profile,partition,regalloc";
  PipelineRun Run = compileAndMeasure(*PR.M, Cfg);
  EXPECT_TRUE(Run.ok()) << (Run.Errors.empty() ? "?" : Run.Errors[0]);
  return Run;
}

/// Wide independent integer work: 16 parallel accumulator chains.
std::string wideKernel() {
  std::string Src = "func main() {\nentry:\n";
  for (int C = 0; C < 16; ++C)
    Src += "  li %a" + std::to_string(C) + ", " + std::to_string(C) + "\n";
  Src += "  li %i, 0\nloop:\n";
  for (int C = 0; C < 16; ++C)
    Src += "  addi %a" + std::to_string(C) + ", %a" + std::to_string(C) +
           ", 3\n";
  Src += "  addi %i, %i, 1\n  slti %t, %i, 200\n  bne %t, %zero, loop\n";
  for (int C = 0; C < 16; ++C)
    Src += "  out %a" + std::to_string(C) + "\n";
  Src += "  ret\n}\n";
  return Src;
}

/// One long serially dependent multiply chain (6-cycle latency).
std::string mulChainKernel() {
  std::string Src = "func main() {\nentry:\n  li %a, 3\n  li %b, 7\n";
  for (int I = 0; I < 200; ++I)
    Src += "  mul %a, %a, %b\n";
  Src += "  out %a\n  ret\n}\n";
  return Src;
}

/// Many independent divides (unpipelined, 12-cycle units).
std::string divKernel() {
  std::string Src = "func main() {\nentry:\n  li %a, 1000000\n  li %b, 3\n";
  for (int I = 0; I < 100; ++I)
    Src += "  div %q" + std::to_string(I) + ", %a, %b\n";
  Src += "  out %q99\n  ret\n}\n";
  return Src;
}

/// Simulates \p Run on \p M with a StallBreakdown sink attached.
stats::StallBreakdown simulateWithSink(const PipelineRun &Run,
                                       const MachineConfig &M) {
  stats::StallBreakdown B;
  Simulator Sim(M, Run.Alloc);
  Sim.setEventSink(&B);
  SimStats S = Sim.run(Run.packedTrace());
  EXPECT_EQ(B.Cycles, S.Cycles);
  return B;
}

uint64_t histSum(const std::vector<uint64_t> &H) {
  uint64_t Sum = 0;
  for (uint64_t N : H)
    Sum += N;
  return Sum;
}

uint64_t histWeightedSum(const std::vector<uint64_t> &H) {
  uint64_t Sum = 0;
  for (size_t K = 0; K < H.size(); ++K)
    Sum += K * H[K];
  return Sum;
}

void expectInvariants(const stats::StallBreakdown &B, const SimStats &S) {
  EXPECT_TRUE(B.partitionHolds());
  EXPECT_EQ(B.attributedStallCycles(), B.NonIssuingCycles);
  EXPECT_EQ(B.stalls(stats::StallReason::None), 0u);
  EXPECT_EQ(histSum(B.IntIssueHist), S.Cycles);
  EXPECT_EQ(histSum(B.FpIssueHist), S.Cycles);
  EXPECT_EQ(histWeightedSum(B.IntIssueHist), S.IntIssued);
  EXPECT_EQ(histWeightedSum(B.FpIssueHist), S.FpIssued);
}

} // namespace

//===----------------------------------------------------------------------===//
// Stall attribution.
//===----------------------------------------------------------------------===//

TEST(Stats, PartitionInvariantOnHandBuiltKernels) {
  for (const std::string &Src :
       {wideKernel(), mulChainKernel(), divKernel()}) {
    PipelineRun Run = compileSrc(Src, partition::Scheme::None);
    for (MachineConfig M :
         {MachineConfig::fourWay(), MachineConfig::eightWay()}) {
      M.FpaEnabled = false;
      Simulator Sim(M, Run.Alloc);
      stats::StallBreakdown B;
      Sim.setEventSink(&B);
      SimStats S = Sim.run(Run.packedTrace());
      expectInvariants(B, S);
      EXPECT_GT(B.NonIssuingCycles, 0u);
    }
  }
}

TEST(Stats, DependentMulChainStallsOnOperandsOrWindow) {
  PipelineRun Run = compileSrc(mulChainKernel(), partition::Scheme::None);
  MachineConfig M = MachineConfig::fourWay();
  M.FpaEnabled = false;
  stats::StallBreakdown B = simulateWithSink(Run, M);
  // A serial 6-cycle multiply chain spends most cycles waiting for the
  // previous multiply (attributed to operands or, once dispatch backs
  // up, to the full INT window).
  EXPECT_GT(B.stalls(stats::StallReason::OperandWait) +
                B.stalls(stats::StallReason::WindowFullInt),
            Run.RefResult.Output.size() + 500);
}

TEST(Stats, TinyWindowAttributesWindowFullInt) {
  PipelineRun Run = compileSrc(mulChainKernel(), partition::Scheme::None);
  MachineConfig M = MachineConfig::fourWay();
  M.FpaEnabled = false;
  M.IntWindow = 2;
  stats::StallBreakdown B = simulateWithSink(Run, M);
  EXPECT_GT(B.stalls(stats::StallReason::WindowFullInt), 100u);
  EXPECT_GT(B.IntWindowFullCycles, 100u);
}

TEST(Stats, IndependentDividesAttributeUnitBusy) {
  PipelineRun Run = compileSrc(divKernel(), partition::Scheme::None);
  MachineConfig M = MachineConfig::fourWay();
  M.FpaEnabled = false;
  stats::StallBreakdown B = simulateWithSink(Run, M);
  // 100 ready divides sharing 2 unpipelined units: many cycles have
  // ready instructions but no free unit.
  EXPECT_GT(B.stalls(stats::StallReason::UnitBusy) +
                B.stalls(stats::StallReason::WindowFullInt) +
                B.stalls(stats::StallReason::RobFull),
            200u);
  EXPECT_GT(B.stalls(stats::StallReason::UnitBusy), 0u);
}

TEST(Stats, WorkloadBreakdownSeesMispredictsAndDCacheMisses) {
  workloads::Workload W = workloads::workloadByName("compress");
  PipelineConfig Cfg;
  Cfg.Scheme = partition::Scheme::Advanced;
  Cfg.TrainArgs = W.TrainArgs;
  Cfg.RefArgs = W.RefArgs;
  PipelineRun Run = compileAndMeasure(*W.M, Cfg);
  ASSERT_TRUE(Run.ok());
  stats::StallBreakdown B =
      simulateWithSink(Run, MachineConfig::fourWay());
  EXPECT_TRUE(B.partitionHolds());
  EXPECT_GT(B.stalls(stats::StallReason::FetchMispredict), 0u);
  EXPECT_GT(B.stalls(stats::StallReason::DCacheMissWait), 0u);
}

//===----------------------------------------------------------------------===//
// Telemetry-off is bit-identical to the seed simulator.
//===----------------------------------------------------------------------===//

TEST(Stats, TelemetryOffMatchesTelemetryOnStats) {
  PipelineRun Run = compileSrc(wideKernel(), partition::Scheme::None);
  MachineConfig M = MachineConfig::fourWay();
  M.FpaEnabled = false;

  Simulator Plain(M, Run.Alloc);
  SimStats Off = Plain.run(Run.packedTrace());

  stats::StallBreakdown B;
  Simulator Instrumented(M, Run.Alloc);
  Instrumented.setEventSink(&B);
  SimStats On = Instrumented.run(Run.packedTrace());

  EXPECT_EQ(Off.Cycles, On.Cycles);
  EXPECT_EQ(Off.Instructions, On.Instructions);
  EXPECT_EQ(Off.IntIssued, On.IntIssued);
  EXPECT_EQ(Off.FpIssued, On.FpIssued);
  EXPECT_EQ(Off.Mispredicts, On.Mispredicts);
  EXPECT_EQ(Off.DCacheMisses, On.DCacheMisses);
  EXPECT_EQ(Off.ICacheMisses, On.ICacheMisses);
  EXPECT_EQ(Off.StoreForwards, On.StoreForwards);
  EXPECT_EQ(Off.FpBusyCycles, On.FpBusyCycles);
  EXPECT_EQ(Off.IntIdleFpBusyCycles, On.IntIdleFpBusyCycles);

  // The bench tables are derived from these fields only, so equal
  // fields mean byte-identical tables; check one formatted row too.
  Table TOff({"cycles", "ipc"});
  TOff.addRow({Table::num(Off.Cycles), Table::fmt(Off.ipc())});
  Table TOn({"cycles", "ipc"});
  TOn.addRow({Table::num(On.Cycles), Table::fmt(On.ipc())});
  EXPECT_EQ(TOff.toString(), TOn.toString());
}

TEST(Stats, SimulatePropagatesTelemetryOnlyWhenEnabled) {
  PipelineRun Run = compileSrc(wideKernel(), partition::Scheme::None);
  MachineConfig M = MachineConfig::fourWay();
  M.FpaEnabled = false;

  stats::setTelemetryEnabled(false);
  SimStats Off = core::simulate(Run, M);
  EXPECT_EQ(Off.Telemetry, nullptr);

  stats::setTelemetryEnabled(true);
  SimStats On = core::simulate(Run, M);
  stats::setTelemetryEnabled(false);
  ASSERT_NE(On.Telemetry, nullptr);
  EXPECT_EQ(On.Cycles, Off.Cycles);
  expectInvariants(*On.Telemetry, On);
}

//===----------------------------------------------------------------------===//
// JSON.
//===----------------------------------------------------------------------===//

TEST(Json, EmitParseRoundTripsCanonically) {
  json::Value Doc = json::Value::object();
  Doc.set("string", "with \"quotes\", a \\ backslash,\n and a tab\t!");
  Doc.set("int", int64_t(-12345678901234));
  Doc.set("zero", 0);
  Doc.set("double", 0.30000000000000004);
  Doc.set("whole_double", 2.0);
  Doc.set("bool", true);
  Doc.set("null", json::Value());
  json::Value Arr = json::Value::array();
  for (int I = 0; I < 3; ++I)
    Arr.push(I * 1.5);
  Arr.push(json::Value::array());
  Arr.push(json::Value::object());
  Doc.set("arr", std::move(Arr));
  json::Value Nested = json::Value::object();
  Nested.set("k", "v");
  Doc.set("nested", std::move(Nested));

  std::string Once = Doc.dump();
  json::Value Parsed;
  std::string Err;
  ASSERT_TRUE(json::Value::parse(Once, Parsed, &Err)) << Err;
  EXPECT_EQ(Parsed.dump(), Once);

  // Kind preservation: whole doubles stay doubles, ints stay ints.
  EXPECT_EQ(Parsed.find("whole_double")->kind(), json::Value::Kind::Double);
  EXPECT_EQ(Parsed.find("int")->kind(), json::Value::Kind::Int);
  EXPECT_EQ(Parsed.find("int")->integer(), -12345678901234);
  EXPECT_EQ(Parsed.find("double")->number(), 0.30000000000000004);
  EXPECT_EQ(Parsed.find("string")->str(),
            "with \"quotes\", a \\ backslash,\n and a tab\t!");
}

TEST(Json, ParseRejectsMalformedInput) {
  json::Value V;
  std::string Err;
  EXPECT_FALSE(json::Value::parse("{\"a\": }", V, &Err));
  EXPECT_FALSE(json::Value::parse("[1, 2", V, &Err));
  EXPECT_FALSE(json::Value::parse("\"unterminated", V, &Err));
  EXPECT_FALSE(json::Value::parse("{} trailing", V, &Err));
  EXPECT_NE(Err.find("offset"), std::string::npos);
}

TEST(Json, DoubleFormattingIsShortestRoundTrip) {
  EXPECT_EQ(json::Value::formatDouble(2.0), "2.0");
  EXPECT_EQ(json::Value::formatDouble(0.5), "0.5");
  EXPECT_EQ(json::Value::formatDouble(1.0 / 3.0), "0.3333333333333333");
  double Tricky = 0.1 + 0.2;
  EXPECT_EQ(std::strtod(json::Value::formatDouble(Tricky).c_str(), nullptr),
            Tricky);
}

//===----------------------------------------------------------------------===//
// Registry and report.
//===----------------------------------------------------------------------===//

namespace {

/// A registry pre-filled with one simulated point per machine.
void fillRegistry(stats::StatsRegistry &Reg, const PipelineRun &Run,
                  const std::string &Name) {
  for (MachineConfig M :
       {MachineConfig::fourWay(), MachineConfig::eightWay()}) {
    M.FpaEnabled = false;
    stats::StallBreakdown B;
    Simulator Sim(M, Run.Alloc);
    Sim.setEventSink(&B);
    SimStats S = Sim.run(Run.packedTrace());
    S.Telemetry = std::make_shared<stats::StallBreakdown>(B);
    // Wall time is nondeterministic; pin it so report dumps (and the
    // derived cycles-per-second) compare byte-for-byte across calls,
    // while staying nonzero so diffReports still emits its
    // informational sim_wall_ms row.
    S.SimWallMs = 1.0;
    Reg.record(Name, Run.Config, M, S);
  }
}

} // namespace

TEST(Report, RegistryDedupsAndEmitsCanonicalJson) {
  PipelineRun Run = compileSrc(wideKernel(), partition::Scheme::None);
  stats::StatsRegistry Reg;
  fillRegistry(Reg, Run, "wide");
  EXPECT_EQ(Reg.numRecords(), 2u);
  fillRegistry(Reg, Run, "wide"); // Duplicates keep the first record.
  EXPECT_EQ(Reg.numRecords(), 2u);

  json::Value Doc = Reg.reportJson("stats_test");
  EXPECT_EQ(Doc.strOr("schema", ""), stats::ReportSchema);
  EXPECT_EQ(Doc.strOr("binary", ""), "stats_test");
  ASSERT_EQ(Doc.find("runs")->size(), 2u);

  // Emit -> parse -> emit is byte-identical (canonical serialization).
  std::string Once = Doc.dump();
  json::Value Parsed;
  std::string Err;
  ASSERT_TRUE(json::Value::parse(Once, Parsed, &Err)) << Err;
  EXPECT_EQ(Parsed.dump(), Once);

  // The telemetry payload made it through with the invariant intact.
  const json::Value &Run0 = (*Doc.find("runs"))[0];
  const json::Value *Tel = Run0.find("stats")->find("telemetry");
  ASSERT_NE(Tel, nullptr);
  EXPECT_TRUE(Tel->find("partition_holds")->boolean());
  double StallSum = 0;
  for (const auto &KV : Tel->find("stalls")->members())
    StallSum += KV.second.number();
  EXPECT_EQ(StallSum, Tel->numberOr("non_issuing_cycles", -1));
}

TEST(Report, WriteReportProducesParseableFile) {
  PipelineRun Run = compileSrc(wideKernel(), partition::Scheme::None);
  stats::StatsRegistry Reg;
  fillRegistry(Reg, Run, "wide");

  std::string Dir =
      (std::filesystem::temp_directory_path() / "fpint_stats_test").string();
  std::string Err;
  ASSERT_TRUE(Reg.writeReport(Dir, "unit", &Err)) << Err;
  std::ifstream In(Dir + "/unit.json");
  ASSERT_TRUE(In.good());
  std::stringstream SS;
  SS << In.rdbuf();
  json::Value Doc;
  ASSERT_TRUE(json::Value::parse(SS.str(), Doc, &Err)) << Err;
  EXPECT_EQ(Doc.dump() + "\n", SS.str());
  std::filesystem::remove_all(Dir);
}

TEST(Report, RunIdsDistinguishOtherwiseIdenticalLabels) {
  PipelineConfig Cfg;
  MachineConfig WithFpa = MachineConfig::fourWay();
  MachineConfig Conventional = WithFpa;
  Conventional.FpaEnabled = false; // Same display name "4-way".
  EXPECT_NE(stats::runId("w", Cfg, WithFpa),
            stats::runId("w", Cfg, Conventional));
  PipelineConfig OtherCosts = Cfg;
  OtherCosts.Costs.CopyOverhead = 6.0;
  EXPECT_NE(stats::runId("w", Cfg, WithFpa),
            stats::runId("w", OtherCosts, WithFpa));
  // Pinned: golden reports are keyed by run id.
  EXPECT_EQ(stats::runId("w", Cfg, WithFpa), "w/advanced/4-way#b54c2f65");
}

//===----------------------------------------------------------------------===//
// The regression differ.
//===----------------------------------------------------------------------===//

namespace {

json::Value makeReport(const PipelineRun &Run) {
  stats::StatsRegistry Reg;
  fillRegistry(Reg, Run, "wide");
  return Reg.reportJson("diff_test");
}

/// Scales the first run's cycle count by \p Factor (and IPC inversely).
void perturbCycles(json::Value &Doc, double Factor) {
  // Rebuild the runs array with a modified first element.
  const json::Value *Runs = Doc.find("runs");
  json::Value NewRuns = json::Value::array();
  for (size_t I = 0; I < Runs->size(); ++I) {
    json::Value Run = (*Runs)[I];
    if (I == 0) {
      json::Value *Stats = const_cast<json::Value *>(Run.find("stats"));
      double Cycles = Stats->numberOr("cycles", 0);
      double Ipc = Stats->numberOr("ipc", 0);
      Stats->set("cycles",
                 static_cast<int64_t>(Cycles * Factor));
      Stats->set("ipc", Ipc / Factor);
    }
    NewRuns.push(std::move(Run));
  }
  Doc.set("runs", std::move(NewRuns));
}

} // namespace

TEST(Report, DiffPassesOnIdenticalTrees) {
  PipelineRun Run = compileSrc(wideKernel(), partition::Scheme::None);
  json::Value A = makeReport(Run);
  json::Value B = makeReport(Run);
  EXPECT_EQ(A.dump(), B.dump()); // Reports themselves are deterministic.
  stats::DiffResult R = stats::diffReports(A, B, stats::DiffOptions());
  EXPECT_TRUE(R.clean());
  EXPECT_EQ(R.Regressions, 0u);
  // cycles + ipc + informational sim_wall_ms per run (2 runs), plus
  // the four informational run_cache counters.
  EXPECT_EQ(R.Deltas.size(), 10u);
  unsigned Informational = 0;
  for (const stats::MetricDelta &D : R.Deltas)
    if (D.Informational) {
      EXPECT_TRUE(D.Metric == "sim_wall_ms" || D.RunId == "run_cache")
          << D.RunId << "/" << D.Metric;
      EXPECT_FALSE(D.Regression); // Info metrics never gate.
      ++Informational;
    }
  EXPECT_EQ(Informational, 6u);
}

TEST(Report, DiffFlagsInjectedRegression) {
  PipelineRun Run = compileSrc(wideKernel(), partition::Scheme::None);
  json::Value Base = makeReport(Run);
  json::Value Cur = makeReport(Run);
  perturbCycles(Cur, 1.10); // 10% more cycles, 10% less IPC.
  stats::DiffOptions Opts;
  Opts.TolerancePct = 2.0;
  stats::DiffResult R = stats::diffReports(Base, Cur, Opts);
  EXPECT_EQ(R.Regressions, 2u); // cycles up AND ipc down on run 0.
  EXPECT_FALSE(R.clean());

  // An improvement of the same size is not a regression.
  json::Value Faster = makeReport(Run);
  perturbCycles(Faster, 0.90);
  stats::DiffResult R2 = stats::diffReports(Base, Faster, Opts);
  EXPECT_EQ(R2.Regressions, 0u);
  EXPECT_TRUE(R2.clean());
}

TEST(Report, DiffReportsMissingRunsAsProblems) {
  PipelineRun Run = compileSrc(wideKernel(), partition::Scheme::None);
  json::Value Base = makeReport(Run);
  json::Value Cur = makeReport(Run);
  json::Value Empty = json::Value::array();
  Cur.set("runs", std::move(Empty));
  stats::DiffResult R = stats::diffReports(Base, Cur, stats::DiffOptions());
  EXPECT_EQ(R.Problems.size(), 2u);
  EXPECT_FALSE(R.clean());
  EXPECT_EQ(R.Regressions, 0u);
}

namespace {

/// \p Doc with every run's "passes" rows and "regalloc" object rewritten
/// by \p EditRow and \p EditAlloc.
json::Value editRuns(const json::Value &Doc,
                     const std::function<void(json::Value &)> &EditRow,
                     const std::function<void(json::Value &)> &EditAlloc) {
  json::Value Out = Doc;
  json::Value NewRuns = json::Value::array();
  for (const json::Value &OldRun : Doc.find("runs")->items()) {
    json::Value Run = OldRun;
    json::Value Rows = json::Value::array();
    for (json::Value Row : OldRun.find("passes")->items()) {
      EditRow(Row);
      Rows.push(std::move(Row));
    }
    Run.set("passes", std::move(Rows));
    json::Value Alloc = *OldRun.find("regalloc");
    EditAlloc(Alloc);
    Run.set("regalloc", std::move(Alloc));
    NewRuns.push(std::move(Run));
  }
  Out.set("runs", std::move(NewRuns));
  return Out;
}

} // namespace

TEST(Report, DiffIgnoresRetiredPassAndAllocatorKeys) {
  PipelineRun Run = compileSrc(wideKernel(), partition::Scheme::Advanced);
  MachineConfig M = MachineConfig::fourWay();
  Simulator Sim(M, Run.Alloc);
  SimStats S = Sim.run(Run.packedTrace());
  S.SimWallMs = 1.0;
  stats::StatsRegistry Reg;
  Reg.record("wide", Run.Config, M, S, vm::TrapKind::None, Run.PassStats,
             stats::RegAllocSummary::of(Run));
  json::Value Cur = Reg.reportJson("diff_test");

  // The report no longer writes the analysis cache counters or the
  // constant allocator name.
  const json::Value &Run0 = (*Cur.find("runs"))[0];
  ASSERT_EQ(Run0.find("passes")->size(), 3u);
  for (const json::Value &Row : Run0.find("passes")->items()) {
    EXPECT_NE(Row.find("changes"), nullptr);
    for (const char *Key : {"analysis_hits", "analysis_misses",
                            "analysis_invalidations"})
      EXPECT_EQ(Row.find(Key), nullptr) << Key;
  }
  EXPECT_EQ(Run0.find("regalloc")->find("allocator"), nullptr);

  // A baseline written before that still carries them diffs clean.
  json::Value Old = editRuns(
      Cur,
      [](json::Value &Row) {
        Row.set("analysis_hits", int64_t(3));
        Row.set("analysis_misses", int64_t(5));
        Row.set("analysis_invalidations", int64_t(5));
      },
      [](json::Value &Alloc) { Alloc.set("allocator", "regalloc"); });
  stats::DiffResult R = stats::diffReports(Old, Cur, stats::DiffOptions());
  EXPECT_TRUE(R.Problems.empty()) << R.Problems.front();
  EXPECT_TRUE(R.clean());

  // So does one carrying the retired top-level "campaign" counter
  // object, even against a current tree that (wrongly) still has one:
  // no producer writes it, so it is neither a problem nor a delta row.
  json::Value Counters = json::Value::object();
  Counters.set("cells", int64_t(10));
  Counters.set("resumed", int64_t(3));
  json::Value OldCampaign = Old;
  OldCampaign.set("campaign", Counters);
  Counters.set("resumed", int64_t(0));
  json::Value CurCampaign = Cur;
  CurCampaign.set("campaign", Counters);
  for (const json::Value *C : {&Cur, &CurCampaign}) {
    stats::DiffResult RC =
        stats::diffReports(OldCampaign, *C, stats::DiffOptions());
    EXPECT_TRUE(RC.Problems.empty()) << RC.Problems.front();
    EXPECT_TRUE(RC.clean());
    for (const stats::MetricDelta &D : RC.Deltas)
      EXPECT_NE(D.RunId, "campaign") << D.Metric;
  }

  // Pass rows are still compared on their change counts.
  json::Value Moved = editRuns(
      Cur,
      [](json::Value &Row) {
        Row.set("changes", int64_t(Row.numberOr("changes", 0) + 1));
      },
      [](json::Value &) {});
  stats::DiffResult R2 = stats::diffReports(Moved, Cur, stats::DiffOptions());
  EXPECT_EQ(R2.Problems.size(), 3u);
  EXPECT_FALSE(R2.clean());
}
