//===- bench/sec72_overheads.cpp - Section 7.2 / 6.5 overheads ------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 7.2's overhead measurements for the advanced scheme:
///
///  * the increase in dynamic instruction count from copies and
///    duplicates (paper: <1% for most benchmarks, max 4% for compress,
///    split 3.4% copies + 0.6% duplicates);
///  * the change in static code size (paper: negligible);
///  * the change in load counts from register-pressure shifts after
///    partitioning + allocation (paper, Section 6.6: go -3.7%,
///    gcc +2.6% -- small in both directions).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Table.h"

using namespace fpint;

int main(int argc, char **argv) {
  bench::ScopedBenchReport Report("sec72_overheads", argc, argv);
  std::printf("Section 7.2 / 6.6: Advanced-scheme overheads\n\n");
  std::vector<workloads::Workload> Ws = workloads::intWorkloads();
  Table T({"benchmark", "dyn increase", "copies", "dups", "copy-backs",
           "static growth", "load delta"});
  bench::runMatrix(Ws, T, [&](const workloads::Workload &W) {
    core::PipelineRun Conv =
        bench::compileWorkload(W, partition::Scheme::None);
    core::PipelineRun Adv =
        bench::compileWorkload(W, partition::Scheme::Advanced);

    double DynIncrease =
        static_cast<double>(Adv.Stats.Total) /
            static_cast<double>(Conv.Stats.Total) -
        1.0;
    double CopyFrac = static_cast<double>(Adv.Stats.Copies) /
                      static_cast<double>(Adv.Stats.Total);
    double DupFrac = Adv.Stats.dupFraction();
    double CopyBackFrac = static_cast<double>(Adv.Stats.CopyBacks) /
                          static_cast<double>(Adv.Stats.Total);

    unsigned StaticConv = 0, StaticAdv = 0;
    for (const auto &F : Conv.Compiled->functions())
      StaticConv += F->numInstrIds();
    for (const auto &F : Adv.Compiled->functions())
      StaticAdv += F->numInstrIds();
    double StaticGrowth =
        static_cast<double>(StaticAdv) / static_cast<double>(StaticConv) -
        1.0;

    double LoadDelta = static_cast<double>(Adv.Stats.Loads) /
                           static_cast<double>(Conv.Stats.Loads) -
                       1.0;

    return bench::MatrixRows{
        {W.Name, Table::pct(DynIncrease), Table::pct(CopyFrac),
         Table::pct(DupFrac), Table::pct(CopyBackFrac),
         Table::pct(StaticGrowth), Table::pct(LoadDelta, 2)}};
  });
  T.print();
  std::printf("\nPaper: dynamic increase <1%% typical, max 4%% (compress: "
              "3.4%% copies + 0.6%% dups);\nstatic growth negligible; load "
              "deltas small in both directions (go -3.7%%, gcc +2.6%%).\n");
  return bench::harnessExit();
}
