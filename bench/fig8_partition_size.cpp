//===- bench/fig8_partition_size.cpp - Reproduces Figure 8 ----------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Figure 8, "Size of the FPa partition": the percentage of total
/// dynamic instructions the compiler offloads to the augmented FP
/// subsystem, per SPECint95 benchmark, for the basic and advanced
/// partitioning schemes. Paper ranges: basic 5-29%, advanced 9-41%;
/// advanced >= basic everywhere, roughly 2x for go and compress, with
/// ijpeg jumping from 10.7% to 32.1% and li barely moving.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Table.h"

using namespace fpint;

int main(int argc, char **argv) {
  bench::ScopedBenchReport Report("fig8_partition_size", argc, argv);
  std::printf("Figure 8: Size of the FPa partition "
              "(%% of dynamic instructions offloaded)\n\n");

  std::vector<workloads::Workload> Ws = workloads::intWorkloads();
  Table T({"benchmark", "basic", "advanced", "adv/basic", "dyn instrs"});
  bench::runMatrix(Ws, T, [&](const workloads::Workload &W) {
    core::PipelineRun Basic =
        bench::compileWorkload(W, partition::Scheme::Basic);
    core::PipelineRun Adv =
        bench::compileWorkload(W, partition::Scheme::Advanced);
    double B = Basic.Stats.fpaFraction();
    double A = Adv.Stats.fpaFraction();
    return bench::MatrixRows{{W.Name, Table::pct(B), Table::pct(A),
                              Table::fmt(B > 0 ? A / B : 0.0),
                              Table::num(Adv.Stats.Total)}};
  });
  T.print();
  std::printf("\nPaper: basic 5%%-29%%, advanced 9%%-41%%; advanced ~2x basic "
              "for go/compress;\nijpeg 10.7%% -> 32.1%%; li shows almost no "
              "advanced-over-basic gain.\n");
  return bench::harnessExit();
}
