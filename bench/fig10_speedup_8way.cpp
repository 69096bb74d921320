//===- bench/fig10_speedup_8way.cpp - Reproduces Figure 10 ----------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 10, "Speedups on an 8-way machine": as Figure 9 but on the
/// Table 1 8-way (4 INT + 4 FP) configuration. The paper's point: the
/// improvements shrink because 4-wide INT issue already covers most of
/// the programs' parallelism; only high-ILP programs (m88ksim) retain a
/// sizable win.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Table.h"

using namespace fpint;

int main(int argc, char **argv) {
  bench::ScopedBenchReport Report("fig10_speedup_8way", argc, argv);
  std::printf("Figure 10: Speedups over a conventional 8-way machine\n\n");
  timing::MachineConfig Machine = timing::MachineConfig::eightWay();
  timing::MachineConfig Conventional = Machine;
  Conventional.FpaEnabled = false;

  timing::MachineConfig FourWay = timing::MachineConfig::fourWay();
  timing::MachineConfig FourWayConv = FourWay;
  FourWayConv.FpaEnabled = false;

  std::vector<workloads::Workload> Ws = workloads::intWorkloads();
  Table T({"benchmark", "basic", "advanced", "advanced (4-way)",
           "8way/4way conv"});
  bench::runMatrix(Ws, T, [&](const workloads::Workload &W) {
    core::PipelineRun Conv =
        bench::compileWorkload(W, partition::Scheme::None);
    core::PipelineRun Basic =
        bench::compileWorkload(W, partition::Scheme::Basic);
    core::PipelineRun Adv =
        bench::compileWorkload(W, partition::Scheme::Advanced);

    timing::SimStats Conv8 = bench::simulateRun(Conv, Conventional);
    timing::SimStats Basic8 = bench::simulateRun(Basic, Machine);
    timing::SimStats Adv8 = bench::simulateRun(Adv, Machine);
    timing::SimStats Conv4 = bench::simulateRun(Conv, FourWayConv);
    timing::SimStats Adv4 = bench::simulateRun(Adv, FourWay);

    return bench::MatrixRows{
        {W.Name, Table::pct(core::speedup(Conv8, Basic8) - 1.0),
         Table::pct(core::speedup(Conv8, Adv8) - 1.0),
         Table::pct(core::speedup(Conv4, Adv4) - 1.0),
         Table::fmt(static_cast<double>(Conv4.Cycles) /
                    static_cast<double>(Conv8.Cycles))}};
  });
  T.print();
  std::printf("\nPaper: 8-way improvements are much smaller than 4-way "
              "because INT issue width\nalready covers the available "
              "parallelism; only high-ILP programs keep a win.\n");
  return bench::harnessExit();
}
