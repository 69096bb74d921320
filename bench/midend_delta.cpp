//===- bench/midend_delta.cpp - Mid-end pass deltas on fig8/fig9 ----------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Delta study for the mid-end transform passes (LICM, inline, and the
/// combined "opt2" preset): for every SPECint95-style
/// workload and every pipeline variant, the Figure 8 metric (FPa share
/// of dynamic instructions) and the Figure 9 metric (speedup of the
/// partitioned binary on the augmented 4-way machine over the
/// unpartitioned binary on the conventional 4-way machine), plus the
/// per-variant delta against the default pipeline.
///
/// Both sides of each speedup use the *same* pipeline text -- only the
/// scheme differs -- so each row isolates what partitioning buys under
/// that mid-end configuration, and the delta columns isolate what the
/// mid-end changes about the paper's headline numbers. The "midend"
/// column counts transform-pass changes (MidEndReport::total), so a
/// zero-delta row with zero fires is "pass found nothing" while a
/// zero-delta row with fires means the transform was performance-
/// neutral on this input.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Table.h"

using namespace fpint;

namespace {

struct PipelineVariant {
  const char *Label;  ///< Row label.
  const char *Passes; ///< Pipeline text ("" = default pipeline).
};

/// One (fpa%, speedup, midend fires) measurement point.
struct Point {
  double Fpa = 0.0;
  double Speedup = 0.0;
  unsigned MidendChanges = 0;
  uint64_t DynInstrs = 0;
};

} // namespace

int main(int argc, char **argv) {
  bench::ScopedBenchReport Report("midend_delta", argc, argv);
  std::printf("Mid-end deltas: FPa share (fig8) and 4-way speedup (fig9) "
              "per pipeline\n\n");

  timing::MachineConfig Machine = timing::MachineConfig::fourWay();
  timing::MachineConfig Conventional = Machine;
  Conventional.FpaEnabled = false;

  const std::vector<PipelineVariant> Variants = {
      {"default", ""},
      {"licm", "opt,licm,profile,partition,regalloc"},
      {"inline", "opt,inline,profile,partition,regalloc"},
      {"opt2", "opt2"},
  };

  std::vector<workloads::Workload> Ws = workloads::intWorkloads();
  Table T({"benchmark", "pipeline", "midend", "fpa", "d(fpa)", "speedup",
           "d(spd)", "dyn instrs"});
  bench::runMatrix(Ws, T, [&](const workloads::Workload &W) {
    auto Measure = [&](const PipelineVariant &V) {
      auto ConfigFor = [&](partition::Scheme S) {
        core::PipelineConfig Cfg;
        Cfg.Scheme = S;
        Cfg.TrainArgs = W.TrainArgs;
        Cfg.RefArgs = W.RefArgs;
        if (*V.Passes)
          Cfg.Passes = V.Passes;
        return Cfg;
      };
      core::PipelineRun Conv =
          bench::compileModule(*W.M, W.Name, ConfigFor(partition::Scheme::None));
      core::PipelineRun Adv = bench::compileModule(
          *W.M, W.Name, ConfigFor(partition::Scheme::Advanced));
      Point P;
      P.Fpa = Adv.Stats.fpaFraction();
      P.Speedup = core::speedup(bench::simulateRun(Conv, Conventional),
                                bench::simulateRun(Adv, Machine));
      P.MidendChanges = Adv.Transform.total();
      P.DynInstrs = Adv.Stats.Total;
      return P;
    };

    bench::MatrixRows Rows;
    Point Base;
    for (size_t I = 0; I < Variants.size(); ++I) {
      Point P = Measure(Variants[I]);
      if (I == 0)
        Base = P;
      Rows.push_back({W.Name, Variants[I].Label,
                      std::to_string(P.MidendChanges), Table::pct(P.Fpa),
                      Table::pct(P.Fpa - Base.Fpa),
                      Table::pct(P.Speedup - 1.0),
                      Table::pct(P.Speedup - Base.Speedup),
                      Table::num(P.DynInstrs)});
    }
    return Rows;
  });
  T.print();
  std::printf("\nDeltas are percentage points against the default pipeline "
              "(d(fpa) on the FPa\nshare, d(spd) on the fig9 speedup); "
              "\"midend\" counts transform-pass changes.\n");
  return bench::harnessExit();
}
