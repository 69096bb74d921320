//===- bench/sec75_fp_programs.cpp - Section 7.5 FP programs --------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 7.5: applying the partitioning schemes to floating-point
/// programs. The paper found negligible change for all but one
/// benchmark, because FP programs' store-value and branch slices are
/// largely already floating point; the exception, ear (SPEC92), had 18%
/// of its instructions offloaded -- integer branch and store-value
/// slices -- for an 18% speedup on the 4-way machine.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Table.h"

using namespace fpint;

int main(int argc, char **argv) {
  bench::ScopedBenchReport Report("sec75_fp_programs", argc, argv);
  std::printf("Section 7.5: Partitioning floating-point programs "
              "(advanced, 4-way)\n\n");
  timing::MachineConfig Machine = timing::MachineConfig::fourWay();
  timing::MachineConfig Conventional = Machine;
  Conventional.FpaEnabled = false;

  std::vector<workloads::Workload> Ws = workloads::fpWorkloads();
  Table T({"benchmark", "int offloaded", "native fp", "speedup",
           "conv cycles"});
  bench::runMatrix(Ws, T, [&](const workloads::Workload &W) {
    core::PipelineRun Conv =
        bench::compileWorkload(W, partition::Scheme::None);
    core::PipelineRun Adv =
        bench::compileWorkload(W, partition::Scheme::Advanced);
    timing::SimStats ConvStats = bench::simulateRun(Conv, Conventional);
    timing::SimStats AdvStats = bench::simulateRun(Adv, Machine);
    double NativeFp = static_cast<double>(Adv.Stats.NativeFp) /
                      static_cast<double>(Adv.Stats.Total);
    return bench::MatrixRows{
        {W.Name, Table::pct(Adv.Stats.fpaFraction()),
         Table::pct(NativeFp),
         Table::pct(core::speedup(ConvStats, AdvStats) - 1.0),
         Table::num(ConvStats.Cycles)}};
  });
  T.print();
  std::printf("\nPaper: negligible change for FP programs except ear: 18%% "
              "of its (integer\nbranch/store-value) computation offloaded, "
              "18%% speedup; no slowdowns observed.\n");
  return bench::harnessExit();
}
