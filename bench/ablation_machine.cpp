//===- bench/ablation_machine.cpp - Microarchitecture ablations -----------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ablations over the simulated machine (not a paper figure, but they
/// probe the design choices behind Table 1 and the Figure 9/10 story):
///
///  * branch predictor kind (gshare vs McFarling-combining vs static
///    not-taken) -- the offload win depends on the front end keeping
///    both subsystems fed;
///  * issue width scaling (2 int+2 fp vs 4+4) with and without FPa --
///    the paper's Figure 10 point in one table: an augmented 2+2
///    machine recovers much of a conventional 4-wide INT machine.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Table.h"

#include <map>
#include <mutex>

using namespace fpint;

namespace {

/// One workload's advanced run and its default 4-way simulation, each
/// filled by whichever table row asks first.
struct AdvancedSlot {
  std::once_flag Compiled, Simulated;
  core::PipelineRun Run;
  timing::SimStats FourWay;
};

} // namespace

int main(int argc, char **argv) {
  bench::ScopedBenchReport Report("ablation_machine", argc, argv);
  std::printf("Machine ablations (advanced scheme)\n\n");

  // All three tables simulate advanced runs on the default 4-way
  // machine, so they share one compile per workload and one default
  // 4-way simulation per run. A sandboxed cell fills its own child's
  // copy.
  const timing::MachineConfig FourWay = timing::MachineConfig::fourWay();
  std::map<std::string, AdvancedSlot> Slots;
  for (const std::string &Name : workloads::allWorkloadNames())
    Slots.try_emplace(Name);
  auto Advanced = [&](const workloads::Workload &W) -> AdvancedSlot & {
    AdvancedSlot &S = Slots.at(W.Name);
    std::call_once(S.Compiled, [&] {
      S.Run = bench::compileWorkload(W, partition::Scheme::Advanced);
    });
    return S;
  };
  auto AdvancedFourWay = [&](const workloads::Workload &W) {
    AdvancedSlot &S = Advanced(W);
    std::call_once(S.Simulated,
                   [&] { S.FourWay = bench::simulateRun(S.Run, FourWay); });
    return S.FourWay;
  };

  // Predictor ablation on the branchiest workloads.
  {
    std::vector<workloads::Workload> Ws;
    for (const char *Name : {"compress", "go", "m88ksim"})
      Ws.push_back(workloads::workloadByName(Name));
    Table T({"benchmark", "predictor", "accuracy", "cycles", "speedup vs "
                                                             "static"});
    bench::runMatrix(Ws, T, [&](const workloads::Workload &W) {
      const core::PipelineRun &Adv = Advanced(W).Run;
      uint64_t StaticCycles = 0;
      bench::MatrixRows Rows;
      for (timing::PredictorKind K :
           {timing::PredictorKind::StaticNotTaken,
            timing::PredictorKind::Gshare,
            timing::PredictorKind::McFarling}) {
        timing::MachineConfig M = FourWay;
        M.Predictor = K;
        timing::SimStats S = K == FourWay.Predictor
                                 ? AdvancedFourWay(W)
                                 : bench::simulateRun(Adv, M);
        const char *KName = K == timing::PredictorKind::Gshare ? "gshare"
                            : K == timing::PredictorKind::McFarling
                                ? "mcfarling"
                                : "static-NT";
        if (K == timing::PredictorKind::StaticNotTaken)
          StaticCycles = S.Cycles;
        Rows.push_back(
            {K == timing::PredictorKind::StaticNotTaken ? W.Name : "",
             KName, Table::pct(S.branchAccuracy()), Table::num(S.Cycles),
             Table::pct(static_cast<double>(StaticCycles) /
                            static_cast<double>(S.Cycles) -
                        1.0)});
      }
      return Rows;
    });
    T.print();
  }

  // Fetch-policy ablation: Table 1's idealized "any 4" fetch vs a
  // front end that stops at taken control transfers.
  {
    std::printf("\nFetch-policy ablation (advanced scheme, 4-way)\n\n");
    std::vector<workloads::Workload> Ws;
    for (const char *Name : {"gcc", "li", "m88ksim"})
      Ws.push_back(workloads::workloadByName(Name));
    Table T({"benchmark", "ideal fetch cycles", "break-on-taken cycles",
             "slowdown"});
    bench::runMatrix(Ws, T, [&](const workloads::Workload &W) {
      timing::MachineConfig Breaking = FourWay;
      Breaking.FetchBreaksOnTaken = true;
      timing::SimStats SI = AdvancedFourWay(W);
      timing::SimStats SB = bench::simulateRun(Advanced(W).Run, Breaking);
      return bench::MatrixRows{
          {W.Name, Table::num(SI.Cycles), Table::num(SB.Cycles),
           Table::pct(static_cast<double>(SB.Cycles) /
                          static_cast<double>(SI.Cycles) -
                      1.0)}};
    });
    T.print();
  }

  // Width scaling: conventional 2+2, augmented 2+2, conventional 4+4.
  {
    std::printf("\nIssue-width ablation: does FPa augmentation buy back a "
                "wider INT machine?\n\n");
    std::vector<workloads::Workload> Ws = workloads::intWorkloads();
    Table T({"benchmark", "conv 4-way", "augmented 4-way", "conv 8-way",
             "aug recovers"});
    bench::runMatrix(Ws, T, [&](const workloads::Workload &W) {
      core::PipelineRun Conv =
          bench::compileWorkload(W, partition::Scheme::None);
      timing::MachineConfig FourConv = FourWay;
      FourConv.FpaEnabled = false;
      timing::MachineConfig EightConv = timing::MachineConfig::eightWay();
      EightConv.FpaEnabled = false;

      uint64_t C4 = bench::simulateRun(Conv, FourConv).Cycles;
      uint64_t A4 = AdvancedFourWay(W).Cycles;
      uint64_t C8 = bench::simulateRun(Conv, EightConv).Cycles;
      // Fraction of the 4-way -> 8-way conventional gap that the
      // augmented 4-way machine closes.
      double Gap = static_cast<double>(C4 - C8);
      double Closed = Gap > 0 ? static_cast<double>(C4 - A4) / Gap : 0.0;
      return bench::MatrixRows{{W.Name, Table::num(C4), Table::num(A4),
                                Table::num(C8), Table::pct(Closed)}};
    });
    T.print();
    std::printf("\n'aug recovers' = share of the conventional 4-way ->"
                " 8-way cycle gap closed by\naugmenting the 4-way machine "
                "instead of doubling its width.\n");
  }
  return bench::harnessExit();
}
