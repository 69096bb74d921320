//===- bench/sec73_load_imbalance.cpp - Section 7.3 load imbalance --------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 7.3's explanation for speedups not tracking partition sizes:
/// the greedy partitioner can under-utilize the INT subsystem. The paper
/// measures that for m88ksim the INT subsystem is idle in 12.4% of the
/// cycles in which the FPa subsystem executes at least one instruction.
/// This harness reports that metric (plus subsystem utilization) for
/// every benchmark under the advanced scheme on the 4-way machine.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Table.h"

using namespace fpint;

int main(int argc, char **argv) {
  bench::ScopedBenchReport Report("sec73_load_imbalance", argc, argv);
  std::printf("Section 7.3: INT-idle-while-FPa-busy (advanced, 4-way)\n\n");
  timing::MachineConfig Machine = timing::MachineConfig::fourWay();

  std::vector<workloads::Workload> Ws = workloads::intWorkloads();
  Table T({"benchmark", "int idle | fpa busy", "fpa busy cycles",
           "int issue/cycle", "fp issue/cycle"});
  bench::runMatrix(Ws, T, [&](const workloads::Workload &W) {
    core::PipelineRun Adv =
        bench::compileWorkload(W, partition::Scheme::Advanced);
    timing::SimStats S = bench::simulateRun(Adv, Machine);
    return bench::MatrixRows{
        {W.Name, Table::pct(S.intIdleWhileFpBusy()),
         Table::num(S.FpBusyCycles),
         Table::fmt(static_cast<double>(S.IntIssued) /
                    static_cast<double>(S.Cycles)),
         Table::fmt(static_cast<double>(S.FpIssued) /
                    static_cast<double>(S.Cycles))}};
  });
  T.print();
  std::printf("\nPaper: for m88ksim the INT subsystem idles in 12.4%% of "
              "FPa-busy cycles,\npartly explaining why its speedup trails "
              "its partition size.\n");
  return bench::harnessExit();
}
