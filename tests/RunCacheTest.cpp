//===- tests/RunCacheTest.cpp - core::RunCache + bench::runMatrix ---------===//

#include "bench/BenchCommon.h"
#include "core/RunCache.h"
#include "sir/Parser.h"
#include "timing/Simulator.h"

#include <gtest/gtest.h>

using namespace fpint;
using core::PipelineConfig;
using core::RunCache;

namespace {

const char *SmallKernel = R"(
global acc 1

func main(%n) {
entry:
  li %i, 0
loop:
  lw %a, acc
  xor %b, %a, %i
  sll %c, %b, 1
  add %d, %c, %a
  sw %d, acc
  addi %i, %i, 1
  slt %t, %i, %n
  bne %t, %zero, loop
  lw %r, acc
  out %r
  ret
}
)";

std::unique_ptr<sir::Module> parseOrDie(const char *Src) {
  sir::ParseResult PR = sir::parseModule(Src);
  EXPECT_TRUE(PR.ok()) << PR.Error;
  return std::move(PR.M);
}

PipelineConfig kernelConfig(partition::Scheme S) {
  PipelineConfig Cfg;
  Cfg.Scheme = S;
  Cfg.TrainArgs = {20};
  Cfg.RefArgs = {100};
  return Cfg;
}

} // namespace

TEST(RunCache, HitReturnsIdenticalRun) {
  auto M = parseOrDie(SmallKernel);
  RunCache Cache;
  auto Cfg = kernelConfig(partition::Scheme::Advanced);
  RunCache::RunPtr A = Cache.compile(*M, "kernel", Cfg);
  RunCache::RunPtr B = Cache.compile(*M, "kernel", Cfg);
  ASSERT_TRUE(A->ok());
  // A hit is the very same immutable run object, not a recompilation.
  EXPECT_EQ(A.get(), B.get());
  EXPECT_EQ(Cache.stats().CompileMisses, 1u);
  EXPECT_EQ(Cache.stats().CompileHits, 1u);
}

TEST(RunCache, DifferingCostParamsMiss) {
  auto M = parseOrDie(SmallKernel);
  RunCache Cache;
  auto Cfg = kernelConfig(partition::Scheme::Advanced);
  RunCache::RunPtr A = Cache.compile(*M, "kernel", Cfg);
  PipelineConfig Other = Cfg;
  Other.Costs.CopyOverhead = 5.5;
  RunCache::RunPtr B = Cache.compile(*M, "kernel", Other);
  EXPECT_NE(A.get(), B.get());
  EXPECT_EQ(Cache.stats().CompileMisses, 2u);
  EXPECT_NE(RunCache::runKey("kernel", Cfg),
            RunCache::runKey("kernel", Other));
  // The key covers every config field, not just costs.
  PipelineConfig Fp = Cfg;
  Fp.Passes = "opt,profile,partition,fp-arg-passing,regalloc";
  EXPECT_NE(RunCache::runKey("kernel", Cfg), RunCache::runKey("kernel", Fp));
}

TEST(RunCache, SimulateMemoizesPerMachine) {
  auto M = parseOrDie(SmallKernel);
  RunCache Cache;
  RunCache::RunPtr Run =
      Cache.compile(*M, "kernel", kernelConfig(partition::Scheme::Advanced));
  ASSERT_TRUE(Run->ok());
  timing::MachineConfig Four = timing::MachineConfig::fourWay();
  timing::SimStats S1 = Cache.simulate(Run, Four);
  timing::SimStats S2 = Cache.simulate(Run, Four);
  EXPECT_EQ(S1.Cycles, S2.Cycles);
  EXPECT_EQ(Cache.stats().SimMisses, 1u);
  EXPECT_EQ(Cache.stats().SimHits, 1u);
  // A different machine is a different cell...
  timing::SimStats S8 = Cache.simulate(Run, timing::MachineConfig::eightWay());
  EXPECT_EQ(Cache.stats().SimMisses, 2u);
  EXPECT_LE(S8.Cycles, S1.Cycles);
  // ...but the functional VM traced the module exactly once for all
  // three simulations (the trace-reuse invariant).
  EXPECT_EQ(Run->Trace->Captures, 1u);
}

TEST(RunCache, TraceReplayMatchesDirectSimulation) {
  auto M = parseOrDie(SmallKernel);
  PipelineConfig Cfg = kernelConfig(partition::Scheme::Advanced);
  core::PipelineRun Run = core::compileAndMeasure(*M, Cfg);
  ASSERT_TRUE(Run.ok());
  timing::MachineConfig Four = timing::MachineConfig::fourWay();
  // Reference: the pre-cache serial path (fresh VM trace every time).
  timing::SimStats Direct =
      timing::simulateModule(*Run.Compiled, Run.Alloc, Four, Cfg.RefArgs);
  timing::SimStats Replayed = core::simulate(Run, Four);
  EXPECT_EQ(Direct.Cycles, Replayed.Cycles);
  EXPECT_EQ(Direct.Instructions, Replayed.Instructions);
  EXPECT_EQ(Direct.Mispredicts, Replayed.Mispredicts);
  EXPECT_EQ(Direct.DCacheMisses, Replayed.DCacheMisses);
  EXPECT_EQ(Direct.ICacheMisses, Replayed.ICacheMisses);
  EXPECT_EQ(Direct.IntIssued, Replayed.IntIssued);
  EXPECT_EQ(Direct.FpIssued, Replayed.FpIssued);
}

TEST(RunMatrix, ParallelOutputEqualsSerialReference) {
  // Two workloads x three schemes through the parallel matrix runner
  // must render exactly the table a serial evaluation produces.
  std::vector<workloads::Workload> Ws;
  Ws.push_back(workloads::workloadByName("compress"));
  Ws.push_back(workloads::workloadByName("li"));
  const partition::Scheme Schemes[] = {partition::Scheme::None,
                                       partition::Scheme::Basic,
                                       partition::Scheme::Advanced};
  timing::MachineConfig Four = timing::MachineConfig::fourWay();

  // Serial reference, via the uncached, unpooled primitives.
  Table Serial({"benchmark", "scheme", "offload", "cycles"});
  for (const workloads::Workload &W : Ws) {
    for (partition::Scheme S : Schemes) {
      PipelineConfig Cfg;
      Cfg.Scheme = S;
      Cfg.TrainArgs = W.TrainArgs;
      Cfg.RefArgs = W.RefArgs;
      core::PipelineRun Run = core::compileAndMeasure(*W.M, Cfg);
      ASSERT_TRUE(Run.ok());
      timing::SimStats Stats =
          timing::simulateModule(*Run.Compiled, Run.Alloc, Four, W.RefArgs);
      Serial.addRow({W.Name, partition::schemeName(S),
                     Table::pct(Run.Stats.fpaFraction()),
                     Table::num(Stats.Cycles)});
    }
  }

  Table Parallel({"benchmark", "scheme", "offload", "cycles"});
  bench::runMatrix(Ws, Parallel, [&](const workloads::Workload &W) {
    bench::MatrixRows Rows;
    for (partition::Scheme S : Schemes) {
      bench::RunPtr Run = bench::compileWorkload(W, S);
      timing::SimStats Stats = bench::simulateRun(Run, Four);
      Rows.push_back({W.Name, partition::schemeName(S),
                      Table::pct(Run->Stats.fpaFraction()),
                      Table::num(Stats.Cycles)});
    }
    return Rows;
  });

  EXPECT_EQ(Parallel.numRows(), 6u);
  EXPECT_EQ(Parallel.toString(), Serial.toString());
}

TEST(RunMatrix, FailedCellDoesNotKillTheMatrix) {
  std::vector<std::string> Items = {"good", "bad", "also-good"};
  Table T({"item"});
  bench::runMatrix(Items, T, [](const std::string &I) {
    if (I == "bad")
      throw bench::CompileError("synthetic failure for " + I);
    return bench::MatrixRows{{I}};
  });
  // The bad cell is skipped with a report; the others still land, in
  // order.
  ASSERT_EQ(T.numRows(), 2u);
  std::string Rendered = T.toString();
  EXPECT_NE(Rendered.find("good"), std::string::npos);
  EXPECT_NE(Rendered.find("also-good"), std::string::npos);
}
