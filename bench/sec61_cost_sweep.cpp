//===- bench/sec61_cost_sweep.cpp - Section 6.1 cost-parameter sweep ------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 6.1: "The copy and duplication overheads, o_copy and o_dupl,
/// were determined empirically. ... o_copy between 3 and 6 and o_dupl
/// between 1.5 and 3 yield the best results." This harness sweeps the
/// two parameters over and around those ranges and reports the mean FPa
/// partition size and mean 4-way speedup across the integer benchmarks,
/// reproducing the ablation behind the paper's chosen defaults.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Table.h"

#include <mutex>

using namespace fpint;

namespace {

/// One workload's conventional 4-way cycles, filled by whichever sweep
/// point asks first.
struct Baseline {
  std::once_flag Once;
  uint64_t Cycles = 0;
};

} // namespace

int main(int argc, char **argv) {
  bench::ScopedBenchReport Report("sec61_cost_sweep", argc, argv);
  std::printf("Section 6.1: cost-model parameter sweep "
              "(advanced scheme, 4-way)\n\n");
  timing::MachineConfig Machine = timing::MachineConfig::fourWay();
  timing::MachineConfig Conventional = Machine;
  Conventional.FpaEnabled = false;

  std::vector<workloads::Workload> Ws = workloads::intWorkloads();

  const double CopySweep[] = {1.5, 3.0, 4.0, 6.0, 9.0};
  const double DupSweep[] = {1.0, 2.5, 5.0};

  // One matrix item per admissible (o_copy, o_dupl) point.
  std::vector<partition::CostParams> Sweep;
  for (double OCopy : CopySweep) {
    for (double ODup : DupSweep) {
      if (ODup >= OCopy)
        continue; // The paper requires o_dupl < o_copy.
      partition::CostParams P;
      P.CopyOverhead = OCopy;
      P.DupOverhead = ODup;
      Sweep.push_back(P);
    }
  }

  // The conventional baselines do not depend on (o_copy, o_dupl), so
  // the sweep points share them: each workload's is compiled and
  // simulated once. A sandboxed cell fills its own child's copy.
  std::vector<Baseline> Baselines(Ws.size());
  auto ConvCycles = [&](size_t I) {
    Baseline &B = Baselines[I];
    std::call_once(B.Once, [&] {
      B.Cycles = bench::simulateRun(
                     bench::compileWorkload(Ws[I], partition::Scheme::None),
                     Conventional)
                     .Cycles;
    });
    return B.Cycles;
  };

  Table T({"o_copy", "o_dupl", "mean offload", "mean speedup",
           "mean copy+dup ovh"});
  bench::runMatrix(Sweep, T, [&](const partition::CostParams &P) {
    double SumOffload = 0, SumSpeedup = 0, SumOvh = 0;
    for (size_t I = 0; I < Ws.size(); ++I) {
      const uint64_t Conv = ConvCycles(I);
      core::PipelineRun Adv =
          bench::compileWorkload(Ws[I], partition::Scheme::Advanced, P);
      timing::SimStats S = bench::simulateRun(Adv, Machine);
      SumOffload += Adv.Stats.fpaFraction();
      SumSpeedup += static_cast<double>(Conv) /
                        static_cast<double>(S.Cycles) -
                    1.0;
      SumOvh += Adv.Stats.copyFraction() + Adv.Stats.dupFraction();
    }
    double N = static_cast<double>(Ws.size());
    return bench::MatrixRows{
        {Table::fmt(P.CopyOverhead, 1), Table::fmt(P.DupOverhead, 1),
         Table::pct(SumOffload / N), Table::pct(SumSpeedup / N),
         Table::pct(SumOvh / N)}};
  });
  T.print();
  std::printf("\nPaper: best results with o_copy in [3,6] and o_dupl in "
              "[1.5,3]; too-small\noverheads admit unprofitable copies, "
              "too-large ones forgo profitable offloads.\n");
  return bench::harnessExit();
}
