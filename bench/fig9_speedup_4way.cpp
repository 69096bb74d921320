//===- bench/fig9_speedup_4way.cpp - Reproduces Figure 9 ------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 9, "Speedups on a 4-way machine": percentage improvement of
/// the augmented microarchitecture running basic- and advanced-
/// partitioned binaries over the conventional microarchitecture running
/// the unpartitioned binary, on the Table 1 4-way (2 INT + 2 FP)
/// configuration. Paper: 2.5%-23.1% for the advanced scheme, with
/// m88ksim at ~23%, compress/ijpeg over 10%, and the advanced scheme
/// beating basic everywhere except li and m88ksim-like cases.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Table.h"

using namespace fpint;

int main(int argc, char **argv) {
  bench::ScopedBenchReport Report("fig9_speedup_4way", argc, argv);
  std::printf("Figure 9: Speedups over a conventional 4-way machine\n\n");
  timing::MachineConfig Machine = timing::MachineConfig::fourWay();
  timing::MachineConfig Conventional = Machine;
  Conventional.FpaEnabled = false;

  std::vector<workloads::Workload> Ws = workloads::intWorkloads();
  Table T({"benchmark", "basic", "advanced", "conv cycles", "adv IPC",
           "br acc"});
  bench::runMatrix(Ws, T, [&](const workloads::Workload &W) {
    core::PipelineRun Conv =
        bench::compileWorkload(W, partition::Scheme::None);
    core::PipelineRun Basic =
        bench::compileWorkload(W, partition::Scheme::Basic);
    core::PipelineRun Adv =
        bench::compileWorkload(W, partition::Scheme::Advanced);

    timing::SimStats ConvStats = bench::simulateRun(Conv, Conventional);
    timing::SimStats BasicStats = bench::simulateRun(Basic, Machine);
    timing::SimStats AdvStats = bench::simulateRun(Adv, Machine);

    return bench::MatrixRows{
        {W.Name, Table::pct(core::speedup(ConvStats, BasicStats) - 1.0),
         Table::pct(core::speedup(ConvStats, AdvStats) - 1.0),
         Table::num(ConvStats.Cycles), Table::fmt(AdvStats.ipc()),
         Table::pct(AdvStats.branchAccuracy())}};
  });
  T.print();
  std::printf("\nPaper: advanced speedups 2.5%%-23.1%%; m88ksim ~23%%, "
              "compress/ijpeg/m88ksim >10%%,\nli smallest; advanced >= basic "
              "except where the partitions barely differ.\n");
  return bench::harnessExit();
}
