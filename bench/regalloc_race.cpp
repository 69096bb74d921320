//===- bench/regalloc_race.cpp - Allocator race on the fig10 corpus -------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Races the registered register-allocation backends -- the incumbent
/// "regalloc" and the Poletto-Sarkar "regalloc-linear" scan -- over the
/// Figure 10 workload corpus under the advanced scheme. For each
/// (workload, allocator) point the table reports the allocator's
/// deterministic footprint (spilled intervals, spill slots, spill
/// loads/stores, callee-save traffic) and the simulated cycle count of
/// the resulting binary on the augmented 8-way machine, plus the cycle
/// delta of each challenger against the incumbent.
///
/// Compile-time is the other half of the race, but wall clock is not
/// reproducible, so it goes to stderr as an informational footer (and
/// into the telemetry JSON as the regalloc object's wall_ms field,
/// which fpint-report treats as informational-only when diffing).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "regalloc/Allocator.h"
#include "support/Table.h"

#include <map>

using namespace fpint;

int main(int argc, char **argv) {
  bench::ScopedBenchReport Report("regalloc_race", argc, argv);
  std::printf("Register-allocator race: incumbent vs linear scan "
              "(advanced scheme, 8-way)\n\n");
  timing::MachineConfig Machine = timing::MachineConfig::eightWay();

  const std::vector<std::string> Allocators =
      regalloc::AllocatorRegistry::global().names();

  // Wall-clock totals per allocator, accumulated across cells for the
  // stderr footer. Matrix cells run on pool threads; guard with the
  // harness mutex idiom.
  std::mutex WallMu;
  std::map<std::string, double> WallMs;

  std::vector<workloads::Workload> Ws = workloads::intWorkloads();
  Table T({"benchmark", "allocator", "spilled", "slots", "ld", "st",
           "callee st/ld", "cycles", "d(cyc)"});
  bench::runMatrix(Ws, T, [&](const workloads::Workload &W) {
    bench::MatrixRows Rows;
    uint64_t BaseCycles = 0;
    for (const std::string &Allocator : Allocators) {
      core::PipelineConfig Cfg;
      Cfg.Scheme = partition::Scheme::Advanced;
      Cfg.TrainArgs = W.TrainArgs;
      Cfg.RefArgs = W.RefArgs;
      Cfg.Passes = "opt,profile,partition," + Allocator;

      bench::RunPtr Run = bench::compileModule(*W.M, W.Name, Cfg);
      timing::SimStats S = bench::simulateRun(Run, Machine);
      if (BaseCycles == 0)
        BaseCycles = S.Cycles;

      const regalloc::ModuleAlloc &A = Run->Alloc;
      {
        std::lock_guard<std::mutex> Lock(WallMu);
        WallMs[Allocator] += A.totalWallMs();
      }
      double Delta = BaseCycles
                         ? static_cast<double>(S.Cycles) /
                                   static_cast<double>(BaseCycles) -
                               1.0
                         : 0.0;
      Rows.push_back(
          {W.Name, Allocator, Table::num(A.totalSpilledIntervals()),
           Table::num(A.totalSpillSlots()), Table::num(A.totalSpillLoads()),
           Table::num(A.totalSpillStores()),
           Table::num(A.totalCalleeSaveStores()) + "/" +
               Table::num(A.totalCalleeSaveRestores()),
           Table::num(S.Cycles), Table::pct(Delta)});
    }
    return Rows;
  });
  T.print();
  std::printf("\nd(cyc) is each allocator's simulated-cycle delta against "
              "the incumbent\n(\"%s\") on the same workload; negative is a "
              "win for the challenger.\n",
              regalloc::defaultAllocatorName());

  // Informational only: allocation wall clock per backend (summed over
  // all functions of all workloads this process compiled). Kept off
  // stdout so the reproduced table stays byte-diffable.
  {
    std::lock_guard<std::mutex> Lock(WallMu);
    for (const std::string &Allocator : Allocators)
      std::fprintf(stderr, "[bench] regalloc_race: %s alloc wall %.3f ms\n",
                   Allocator.c_str(), WallMs[Allocator]);
  }
  return bench::harnessExit();
}
