//===- bench/micro_algorithms.cpp - Compiler-pass microbenchmarks ---------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// google-benchmark microbenchmarks for the compiler machinery itself
/// (not a paper figure): RDG construction, the two partitioning schemes,
/// register allocation, and the cycle simulator's throughput. Useful for
/// keeping the passes fast as the repository evolves.
///
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "analysis/RDG.h"
#include "core/Pipeline.h"
#include "partition/BasicPartitioner.h"
#include "partition/Partitioner.h"
#include "regalloc/RegAlloc.h"
#include "timing/Simulator.h"
#include "workloads/Workloads.h"

#include <benchmark/benchmark.h>

using namespace fpint;

namespace {

const workloads::Workload &m88k() {
  static workloads::Workload W = workloads::workloadByName("m88ksim");
  return W;
}

void BM_RdgConstruction(benchmark::State &State) {
  const sir::Function &F = *m88k().M->functionByName("main");
  analysis::CFG Cfg(F);
  for (auto _ : State) {
    analysis::RDG G(F, Cfg);
    benchmark::DoNotOptimize(G.numNodes());
  }
}
BENCHMARK(BM_RdgConstruction);

void BM_BasicPartition(benchmark::State &State) {
  const sir::Function &F = *m88k().M->functionByName("main");
  analysis::CFG Cfg(F);
  analysis::RDG G(F, Cfg);
  for (auto _ : State) {
    partition::Assignment A = partition::partitionBasic(G);
    benchmark::DoNotOptimize(A.fpaNodeCount());
  }
}
BENCHMARK(BM_BasicPartition);

void BM_AdvancedPartitionModule(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    auto Clone = m88k().M->clone();
    State.ResumeTiming();
    auto RW = partition::partitionModule(*Clone,
                                         partition::Scheme::Advanced,
                                         /*ProfileWeights=*/nullptr);
    benchmark::DoNotOptimize(RW.StaticCopies);
  }
}
BENCHMARK(BM_AdvancedPartitionModule);

void BM_RegisterAllocation(benchmark::State &State) {
  for (auto _ : State) {
    State.PauseTiming();
    auto Clone = m88k().M->clone();
    State.ResumeTiming();
    auto Alloc = regalloc::allocateModule(*Clone);
    benchmark::DoNotOptimize(Alloc.Funcs.size());
  }
}
BENCHMARK(BM_RegisterAllocation);

void BM_VmInterpreter(benchmark::State &State) {
  const workloads::Workload &W = m88k();
  int64_t Steps = 0;
  for (auto _ : State) {
    auto R = vm::runModule(*W.M, W.TrainArgs);
    Steps += static_cast<int64_t>(R.Steps);
  }
  State.SetItemsProcessed(Steps);
}
BENCHMARK(BM_VmInterpreter);

void BM_CycleSimulator(benchmark::State &State) {
  const workloads::Workload &W = m88k();
  core::PipelineConfig Cfg;
  Cfg.Scheme = partition::Scheme::Advanced;
  Cfg.TrainArgs = W.TrainArgs;
  Cfg.RefArgs = W.TrainArgs; // Short trace for the microbenchmark.
  core::PipelineRun Run = core::compileAndMeasure(*W.M, Cfg);
  vm::VM::Options Opts;
  Opts.CollectTrace = true;
  vm::VM Machine(*Run.Compiled, Opts);
  auto R = Machine.run(W.TrainArgs);
  if (!R.Ok)
    State.SkipWithError("trace generation failed");
  timing::MachineConfig Four = timing::MachineConfig::fourWay();
  for (auto _ : State) {
    timing::Simulator Sim(Four, Run.Alloc);
    timing::SimStats S = Sim.run(Machine.trace());
    benchmark::DoNotOptimize(S.Cycles);
  }
  State.SetItemsProcessed(State.iterations() *
                          static_cast<int64_t>(Machine.trace().size()));
}
BENCHMARK(BM_CycleSimulator);

} // namespace

BENCHMARK_MAIN();
