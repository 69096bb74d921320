//===- bench/BenchCommon.h - Shared harness helpers -----------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The parallel evaluation runtime shared by the per-figure/per-table
/// reproduction binaries:
///
///  * compileWorkload() / simulateRun(): compile a workload under a
///    scheme and simulate it on a machine. Nothing is memoized: a row
///    owns the runs it compiles, and a binary whose rows share a point
///    shares it in its own code. A run's VM trace is captured at most
///    once, however many machines simulate it.
///  * runMatrix(): fan per-item row computations out on the shared
///    support::ThreadPool and append the resulting Table rows in
///    deterministic item order, so the emitted tables are
///    byte-identical to a serial evaluation.
///  * ScopedBenchReport: per-binary wall-clock / peak-RSS footer on
///    stderr (stdout stays reserved for the reproduced tables).
///
/// Threading contract: each matrix item is evaluated by exactly one
/// pool task, so a row function may freely use its own item (including
/// the workload's module) but must guard any state it shares with
/// other items. Row functions signal a bad matrix cell by throwing
/// (e.g. CompileError); runMatrix degrades the cell to an ERR row and
/// keeps evaluating the remaining items instead of killing the binary.
///
/// Containment contract (degrade-don't-die, see docs/ROBUSTNESS.md):
/// with FPINT_SANDBOX=1 -- or automatically whenever FPINT_FAULT is
/// armed -- every matrix cell runs through campaign::runCell, the
/// repository's one attempt loop, under support::SandboxPolicy::fromEnv()
/// (FPINT_CELL_RETRIES, FPINT_CELL_TIMEOUT_MS, FPINT_CELL_AS_MB). A cell
/// that crashes, hangs, or runs out of memory is retried with backoff
/// and finally degrades to a row of ERR cells tagged with its typed
/// error kind; the table still renders, the per-binary footer lists
/// every degraded cell, and the binary exits nonzero only under
/// --strict / FPINT_STRICT=1 (bench::harnessExit()). Cells fork
/// serially from the orchestration thread while the pool is idle,
/// never from pool workers, so no pool task can hold a lock the child
/// needs (the pool's queue, the StatsRegistry's). Sandboxed cells do
/// not contribute telemetry records: the child's StatsRegistry dies
/// with it.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_BENCH_BENCHCOMMON_H
#define FPINT_BENCH_BENCHCOMMON_H

#include "campaign/Campaign.h"
#include "core/Pipeline.h"
#include "stats/StatsRegistry.h"
#include "support/FaultInject.h"
#include "support/ParseNumber.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "workloads/Workloads.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/resource.h>

namespace fpint {
namespace bench {

/// Process-wide degradation state shared by runMatrix (which registers
/// degraded cells), ScopedBenchReport (which summarizes them at exit)
/// and harnessExit() (which turns them into a nonzero exit only under
/// --strict).
struct HarnessState {
  std::mutex Mu;
  std::vector<std::string> DegradedCells;
  bool Strict = false;

  void addDegraded(std::string Cell) {
    std::lock_guard<std::mutex> Lock(Mu);
    DegradedCells.push_back(std::move(Cell));
  }
  size_t numDegraded() {
    std::lock_guard<std::mutex> Lock(Mu);
    return DegradedCells.size();
  }

  static HarnessState &global() {
    static HarnessState S;
    return S;
  }
};

/// Integer environment knob: its value when it is an integer in
/// [Min, Max], else \p Def (a malformed value warns once).
inline int envInt(const char *Name, int Def, int Min, int Max) {
  return support::envNumber("bench", Name, Min, Max, Def);
}

/// Whether matrix cells run fork-isolated. FPINT_SANDBOX=1 forces on,
/// FPINT_SANDBOX=0 forces off; otherwise the sandbox arms itself
/// whenever fault injection is armed, so an injected crash can never
/// take the harness down.
inline bool sandboxEnabled() {
  const char *E = std::getenv("FPINT_SANDBOX");
  if (E && *E)
    return E[0] != '0';
  return support::fault::enabled();
}

/// The exit code a bench main() should return: 0 normally (even with
/// degraded cells -- the table rendered), 1 when cells degraded and
/// strict mode (--strict or FPINT_STRICT=1) was requested.
inline int harnessExit() {
  HarnessState &H = HarnessState::global();
  return H.Strict && H.numDegraded() > 0 ? 1 : 0;
}

/// A pipeline produced unusable output for one matrix cell (the
/// harness must never report numbers from a broken build).
class CompileError : public std::runtime_error {
public:
  explicit CompileError(const std::string &What)
      : std::runtime_error(What) {}
};

/// Compiles module \p M (identified by \p Name, which reports' run ids
/// read from the run) under \p Config; throws CompileError on pipeline
/// failure.
inline core::PipelineRun compileModule(const sir::Module &M,
                                       const std::string &Name,
                                       const core::PipelineConfig &Config) {
  core::PipelineRun Run = core::compileAndMeasure(M, Config);
  Run.Name = Name;
  if (!Run.ok())
    throw CompileError("pipeline failed for " + Name + " (" +
                       partition::schemeName(Config.Scheme) + "): " +
                       (Run.Errors.empty() ? "output mismatch"
                                           : Run.Errors[0]));
  return Run;
}

/// Compiles \p W under \p Scheme; throws CompileError on any pipeline
/// error.
inline core::PipelineRun compileWorkload(const workloads::Workload &W,
                              partition::Scheme Scheme,
                              partition::CostParams Costs =
                                  partition::CostParams()) {
  core::PipelineConfig Cfg;
  Cfg.Scheme = Scheme;
  Cfg.Costs = Costs;
  Cfg.TrainArgs = W.TrainArgs;
  Cfg.RefArgs = W.RefArgs;
  return compileModule(*W.M, W.Name, Cfg);
}

/// Simulates \p Run on \p Machine (replays the run's ref-input trace,
/// so the functional VM runs once per run, not once per machine). With
/// FPINT_TELEMETRY=1 every simulated point is also recorded in the
/// process-wide StatsRegistry, from which ScopedBenchReport emits the
/// binary's bench_out/<name>.json report at exit.
inline timing::SimStats simulateRun(const core::PipelineRun &Run,
                                    const timing::MachineConfig &Machine) {
  timing::SimStats S = core::simulate(Run, Machine);
  stats::StatsRegistry &Reg = stats::StatsRegistry::global();
  if (Reg.enabled())
    Reg.record(Run.Name, Run.Config, Machine, S, Run.RefResult.Trap.Kind,
               Run.PassStats, stats::RegAllocSummary::of(Run));
  return S;
}

/// One row-producing task of a bench matrix: returns the Table rows
/// for a single item (usually one workload).
using MatrixRows = std::vector<std::vector<std::string>>;

namespace detail {

/// A sandboxed cell's rows travel to the parent as {"rows": [[cell,
/// ...], ...]} (campaign::runCell payloads are JSON objects).
inline json::Value rowsToJson(const MatrixRows &Rows) {
  json::Value Arr = json::Value::array();
  for (const std::vector<std::string> &R : Rows) {
    json::Value Row = json::Value::array();
    for (const std::string &C : R)
      Row.push(C);
    Arr.push(std::move(Row));
  }
  json::Value Doc = json::Value::object();
  Doc.set("rows", std::move(Arr));
  return Doc;
}

inline bool rowsFromJson(const json::Value &Doc, MatrixRows &Rows) {
  const json::Value *Arr = Doc.find("rows");
  if (!Arr || !Arr->isArray())
    return false;
  Rows.clear();
  for (const json::Value &R : Arr->items()) {
    if (!R.isArray())
      return false;
    std::vector<std::string> Row;
    for (const json::Value &C : R.items()) {
      if (!C.isString())
        return false;
      Row.push_back(C.str());
    }
    Rows.push_back(std::move(Row));
  }
  return true;
}

/// Display label for a degraded item: its .Name when it has one
/// (workloads), otherwise "<What> #<Index>".
template <typename Item>
std::string itemLabel(const Item &I, const char *What, size_t Index) {
  if constexpr (requires { std::string(I.Name); })
    return std::string(I.Name);
  else
    return std::string(What) + " #" + std::to_string(Index);
}

/// Degrades matrix item \p Index to a single row of "ERR" cells padded
/// to the header width, reports it on stderr, and registers it in
/// HarnessState as "<label>: <Err>".
inline void degradeCell(Table &T, const char *What, size_t Index,
                        const std::string &Label, const std::string &Err) {
  std::fprintf(stderr, "[bench] %s %zu (%s) degraded to ERR: %s\n", What,
               Index, Label.c_str(), Err.c_str());
  HarnessState::global().addDegraded(Label + ": " + Err);
  std::vector<std::string> ErrRow{Label};
  while (ErrRow.size() < std::max<size_t>(T.numCols(), 2))
    ErrRow.push_back("ERR");
  T.addRow(std::move(ErrRow));
}

} // namespace detail

/// Evaluates Row(Items[i]) for every item and appends the produced
/// rows to \p T in item order, making the table byte-identical to a
/// serial evaluation.
///
/// Default mode fans the items out on the shared thread pool. Sandbox
/// mode (see sandboxEnabled()) instead runs each cell through
/// campaign::runCell, serially: a cell that crashes, hangs, or exhausts
/// its address space is retried with backoff. In both modes a cell that
/// fails (a throw in the pool; the last attempt in the sandbox)
/// degrades to a single row of "ERR" cells padded to the header width,
/// registered in HarnessState as "<label>: <kind>: <detail>".
template <typename Item, typename RowFn>
void runMatrix(const std::vector<Item> &Items, Table &T, RowFn Row,
               const char *What = "matrix cell") {
  if (sandboxEnabled()) {
    const support::SandboxPolicy Policy = support::SandboxPolicy::fromEnv();
    for (size_t I = 0; I < Items.size(); ++I) {
      const std::string Label = detail::itemLabel(Items[I], What, I);
      campaign::CellOutcome Out = campaign::runCell(
          [&] { return detail::rowsToJson(Row(Items[I])); }, Policy);
      MatrixRows Rows;
      if (Out.ok() && detail::rowsFromJson(Out.Result, Rows)) {
        for (std::vector<std::string> &R : Rows)
          T.addRow(std::move(R));
        continue;
      }
      detail::degradeCell(T, What, I, Label,
                          Out.ok() ? "bad_payload: malformed cell rows"
                                   : Out.ErrorKind + ": " + Out.Error);
    }
    return;
  }

  support::ThreadPool &Pool = support::ThreadPool::global();
  std::vector<std::future<MatrixRows>> Pending;
  Pending.reserve(Items.size());
  for (const Item &I : Items)
    Pending.push_back(Pool.submit([&I, &Row] { return Row(I); }));
  for (size_t I = 0; I < Pending.size(); ++I) {
    try {
      for (std::vector<std::string> &R : Pending[I].get())
        T.addRow(std::move(R));
    } catch (const std::exception &E) {
      detail::degradeCell(T, What, I, detail::itemLabel(Items[I], What, I),
                          std::string("exception: ") + E.what());
    }
  }
}

/// Prints a wall-clock + parallelism + peak-RSS footer on
/// stderr when the binary exits, and -- when telemetry is enabled --
/// writes the binary's structured JSON report (one record per
/// simulated point) into bench_out/ (or $FPINT_BENCH_OUT).
/// Construct one at the top of main().
class ScopedBenchReport {
public:
  /// \p Argc / \p Argv (optional) let the binary honor --strict;
  /// FPINT_STRICT=1 is the environment equivalent.
  explicit ScopedBenchReport(const char *Name, int Argc = 0,
                             char **Argv = nullptr)
      : Name(Name), Start(std::chrono::steady_clock::now()) {
    bool Strict = envInt("FPINT_STRICT", 0, 0, 1) != 0;
    for (int A = 1; A < Argc; ++A)
      if (std::strcmp(Argv[A], "--strict") == 0)
        Strict = true;
    HarnessState::global().Strict = Strict;
  }

  ~ScopedBenchReport() {
    using namespace std::chrono;
    double Secs = duration_cast<duration<double>>(
                      steady_clock::now() - Start)
                      .count();
    struct rusage Usage;
    getrusage(RUSAGE_SELF, &Usage);
    std::fprintf(stderr,
                 "[bench] %s: wall %.2fs, jobs %u, peak RSS %.1f MiB\n",
                 Name, Secs, support::ThreadPool::global().threadCount(),
                 static_cast<double>(Usage.ru_maxrss) / 1024.0);

    {
      HarnessState &H = HarnessState::global();
      std::lock_guard<std::mutex> Lock(H.Mu);
      if (!H.DegradedCells.empty()) {
        std::fprintf(stderr,
                     "[bench] %s: %zu cell(s) degraded to ERR%s:\n",
                     Name, H.DegradedCells.size(),
                     H.Strict ? " (strict: exiting nonzero)" : "");
        for (const std::string &C : H.DegradedCells)
          std::fprintf(stderr, "[bench]   %s\n", C.c_str());
      }
    }

    stats::StatsRegistry &Reg = stats::StatsRegistry::global();
    if (!Reg.enabled() || Reg.numRecords() == 0)
      return;
    const char *Dir = std::getenv("FPINT_BENCH_OUT");
    std::string OutDir = Dir && *Dir ? Dir : "bench_out";
    std::string Err;
    if (Reg.writeReport(OutDir, Name, &Err))
      std::fprintf(stderr, "[bench] %s: wrote %s/%s.json (%zu runs)\n",
                   Name, OutDir.c_str(), Name, Reg.numRecords());
    else
      std::fprintf(stderr, "[bench] %s: telemetry report failed: %s\n",
                   Name, Err.c_str());
  }

private:
  const char *Name;
  std::chrono::steady_clock::time_point Start;
};

} // namespace bench
} // namespace fpint

#endif // FPINT_BENCH_BENCHCOMMON_H
