//===- bench/sim_throughput.cpp - Simulator throughput tracking -----------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Not a paper figure: measures the timing simulator itself. For each
/// Figure 10 workload (advanced scheme, 8-way machine) the same packed
/// trace is simulated with the reference cycle loop and with the fast
/// path (packed SoA + dense ring + event-driven issue), best-of-N wall
/// time each, and the table reports simulated cycles per second plus
/// the fast/reference speedup. The summary line is the tracked metric:
/// the fast path must stay >= 2x the reference loop (gated only under
/// --strict / FPINT_STRICT=1; wall-clock numbers are inherently
/// machine-dependent, so the regular regression gate never reads
/// them).
///
/// Every point is also recorded through bench::simulateRun, so with
/// FPINT_TELEMETRY=1 the bench_out/sim_throughput.json report carries
/// the sim_wall_ms / sim_cycles_per_sec fields of the default
/// (fast-path) simulation.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "support/Table.h"

#include <chrono>

using namespace fpint;

namespace {

/// Best-of-N wall milliseconds of \p Body (minimum filters scheduler
/// noise better than the mean on a loaded machine).
template <typename F> double bestWallMs(int Reps, F &&Body) {
  double Best = 1e300;
  for (int R = 0; R < Reps; ++R) {
    auto T0 = std::chrono::steady_clock::now();
    Body();
    double Ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - T0)
                    .count();
    if (Ms < Best)
      Best = Ms;
  }
  return Best;
}

std::string mcps(uint64_t Cycles, double WallMs) {
  if (WallMs <= 0.0)
    return "-";
  return Table::fmt(static_cast<double>(Cycles) / WallMs / 1000.0, 2);
}

} // namespace

int main(int argc, char **argv) {
  bench::ScopedBenchReport Report("sim_throughput", argc, argv);
  std::printf("Simulator throughput: fast path vs reference loop "
              "(fig10 workloads, 8-way)\n\n");

  const timing::MachineConfig Machine = timing::MachineConfig::eightWay();
  const int Reps = bench::envInt("FPINT_SIM_REPS", 5, 1, 1000);

  std::vector<workloads::Workload> Ws = workloads::intWorkloads();
  Table T({"benchmark", "dyn instrs", "cycles", "ref Mcyc/s", "fast Mcyc/s",
           "speedup"});

  // Totals feed the summary metric; runMatrix evaluates rows on the
  // pool, so guard them.
  std::mutex TotalsMu;
  uint64_t TotalCycles = 0;
  double TotalRefMs = 0, TotalFastMs = 0;

  bench::runMatrix(Ws, T, [&](const workloads::Workload &W) {
    core::PipelineRun Run =
        bench::compileWorkload(W, partition::Scheme::Advanced);
    // Record the default simulation in the telemetry report (it
    // carries sim_wall_ms / sim_cycles_per_sec in bench_out JSON).
    bench::simulateRun(Run, Machine);

    const timing::PackedTrace &PT = Run.packedTrace();
    // The reference loop runs over entries; rebuild them once so its
    // timing covers the cycle loop alone.
    const std::vector<vm::TraceEntry> Entries = PT.entries();
    timing::Simulator Sim(Machine, Run.Alloc);

    timing::SimStats RefStats, FastStats;
    Sim.setFastPath(false);
    double RefMs = bestWallMs(Reps, [&] { RefStats = Sim.run(Entries); });
    Sim.setFastPath(true);
    double FastMs = bestWallMs(Reps, [&] { FastStats = Sim.run(PT); });

    if (RefStats.Cycles != FastStats.Cycles)
      throw bench::CompileError(
          "fast path diverged from reference on " + std::string(W.Name) +
          ": " + std::to_string(RefStats.Cycles) + " vs " +
          std::to_string(FastStats.Cycles) + " cycles");

    {
      std::lock_guard<std::mutex> Lock(TotalsMu);
      TotalCycles += RefStats.Cycles;
      TotalRefMs += RefMs;
      TotalFastMs += FastMs;
    }
    double Speedup = FastMs > 0.0 ? RefMs / FastMs : 0.0;
    return bench::MatrixRows{
        {W.Name, Table::num(RefStats.Instructions),
         Table::num(RefStats.Cycles), mcps(RefStats.Cycles, RefMs),
         mcps(FastStats.Cycles, FastMs), Table::fmt(Speedup, 2) + "x"}};
  });
  T.print();

  double Overall = TotalFastMs > 0.0 ? TotalRefMs / TotalFastMs : 0.0;
  std::printf("\nOverall: %s simulated cycles, reference %s Mcyc/s, "
              "fast %s Mcyc/s, speedup %.2fx (target >= 2x)\n",
              Table::num(TotalCycles).c_str(),
              mcps(TotalCycles, TotalRefMs).c_str(),
              mcps(TotalCycles, TotalFastMs).c_str(), Overall);

  if (Overall < 2.0) {
    std::fprintf(stderr,
                 "[bench] sim_throughput: fast path speedup %.2fx is below "
                 "the 2x target\n",
                 Overall);
    bench::HarnessState::global().addDegraded("sim_throughput speedup < 2x");
  }
  return bench::harnessExit();
}
