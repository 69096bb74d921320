//===- tests/BenchHarnessTest.cpp - Bench matrix runner -------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// bench::runMatrix in both modes. The pool renders exactly the table a
/// serial evaluation renders, and a cell that throws degrades to an
/// ERR row in item order, which --strict turns into a nonzero exit.
/// In sandbox mode (campaign::runCell per cell) an injected crash
/// degrades exactly one cell to an ERR row padded to the header width
/// and registers a degraded-cell entry naming the typed error kind; a
/// transient (":once") crash absorbed by one retry yields the same
/// table as the in-process pool evaluation.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"
#include "timing/Simulator.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

using namespace fpint;

namespace {

struct Item {
  std::string Name;
  int V;
};

/// Two rows per item, with cells that need JSON escaping.
bench::MatrixRows rowsOf(const Item &I) {
  return {{I.Name, std::to_string(I.V * I.V), "q\"b\\s"},
          {I.Name + "/2", "tab\there", "\xc3\x97"}};
}

const std::vector<std::string> Header = {"item", "square", "text", "extra"};

/// Sets (or, with nullptr, unsets) one environment variable for the
/// enclosing scope.
struct ScopedEnv {
  std::string Name;
  ScopedEnv(const char *N, const char *Value) : Name(N) {
    if (Value)
      setenv(N, Value, 1);
    else
      unsetenv(N);
  }
  ~ScopedEnv() { unsetenv(Name.c_str()); }
};

std::vector<std::string> takeDegraded() {
  bench::HarnessState &H = bench::HarnessState::global();
  std::lock_guard<std::mutex> Lock(H.Mu);
  std::vector<std::string> Cells;
  Cells.swap(H.DegradedCells);
  return Cells;
}

TEST(BenchSandbox, InjectedCrashDegradesToOnePaddedErrRow) {
  ScopedEnv Sandbox("FPINT_SANDBOX", nullptr);
  ScopedEnv Retries("FPINT_CELL_RETRIES", "0");
  takeDegraded();
  support::fault::armForTest("crash:cell");
  Table T(Header);
  bench::runMatrix(std::vector<Item>{{"alpha", 3}}, T, rowsOf);
  support::fault::armForTest(nullptr);

  Table Want(Header);
  Want.addRow({"alpha", "ERR", "ERR", "ERR"});
  EXPECT_EQ(T.toString(), Want.toString());
  std::vector<std::string> Degraded = takeDegraded();
  ASSERT_EQ(Degraded.size(), 1u);
  EXPECT_EQ(Degraded[0].rfind("alpha: crash: ", 0), 0u) << Degraded[0];
}

TEST(BenchSandbox, TransientCrashRetriedMatchesInProcessRows) {
  const std::vector<Item> Items = {{"a", 1}, {"b", 2}, {"c", 3}};
  Table InProcess(Header);
  {
    ScopedEnv Sandbox("FPINT_SANDBOX", "0");
    bench::runMatrix(Items, InProcess, rowsOf);
  }
  ASSERT_EQ(InProcess.numRows(), 6u);

  ScopedEnv Sandbox("FPINT_SANDBOX", nullptr);
  ScopedEnv Retries("FPINT_CELL_RETRIES", "1");
  takeDegraded();
  support::fault::armForTest("crash:cell:once");
  Table Sandboxed(Header);
  bench::runMatrix(Items, Sandboxed, rowsOf);
  support::fault::armForTest(nullptr);

  EXPECT_EQ(Sandboxed.toString(), InProcess.toString());
  EXPECT_TRUE(takeDegraded().empty());
}

TEST(RunMatrix, ParallelOutputEqualsSerialReference) {
  // Two workloads x three schemes through the parallel matrix runner
  // must render exactly the table a serial evaluation produces.
  ScopedEnv Sandbox("FPINT_SANDBOX", "0");
  std::vector<workloads::Workload> Ws;
  Ws.push_back(workloads::workloadByName("compress"));
  Ws.push_back(workloads::workloadByName("li"));
  const partition::Scheme Schemes[] = {partition::Scheme::None,
                                       partition::Scheme::Basic,
                                       partition::Scheme::Advanced};
  timing::MachineConfig Four = timing::MachineConfig::fourWay();

  // Serial reference, via the unpooled primitives and a fresh VM trace.
  Table Serial({"benchmark", "scheme", "offload", "cycles"});
  for (const workloads::Workload &W : Ws) {
    for (partition::Scheme S : Schemes) {
      core::PipelineConfig Cfg;
      Cfg.Scheme = S;
      Cfg.TrainArgs = W.TrainArgs;
      Cfg.RefArgs = W.RefArgs;
      core::PipelineRun Run = core::compileAndMeasure(*W.M, Cfg);
      ASSERT_TRUE(Run.ok());
      timing::SimStats Stats =
          timing::simulateModule(*Run.Compiled, Run.Alloc, Four, W.RefArgs);
      Serial.addRow({W.Name, partition::schemeName(S),
                     Table::pct(Run.Stats.fpaFraction()),
                     Table::num(Stats.Cycles)});
    }
  }

  Table Parallel({"benchmark", "scheme", "offload", "cycles"});
  bench::runMatrix(Ws, Parallel, [&](const workloads::Workload &W) {
    bench::MatrixRows Rows;
    for (partition::Scheme S : Schemes) {
      core::PipelineRun Run = bench::compileWorkload(W, S);
      timing::SimStats Stats = bench::simulateRun(Run, Four);
      Rows.push_back({W.Name, partition::schemeName(S),
                      Table::pct(Run.Stats.fpaFraction()),
                      Table::num(Stats.Cycles)});
    }
    return Rows;
  });

  EXPECT_EQ(Parallel.numRows(), 6u);
  EXPECT_EQ(Parallel.toString(), Serial.toString());
}

TEST(RunMatrix, FailedCellDoesNotKillTheMatrix) {
  ScopedEnv Sandbox("FPINT_SANDBOX", "0");
  takeDegraded();
  const std::vector<Item> Items = {{"good", 1}, {"bad", 2}, {"also-good", 3}};
  Table T({"item", "value"});
  bench::runMatrix(Items, T, [](const Item &I) {
    if (I.Name == "bad")
      throw bench::CompileError("synthetic failure for " + I.Name);
    return bench::MatrixRows{{I.Name, std::to_string(I.V)}};
  });
  // The bad cell degrades to an ERR row; the others still land, and
  // all three keep item order.
  Table Want({"item", "value"});
  Want.addRow({"good", "1"});
  Want.addRow({"bad", "ERR"});
  Want.addRow({"also-good", "3"});
  EXPECT_EQ(T.toString(), Want.toString());

  bench::HarnessState &H = bench::HarnessState::global();
  EXPECT_EQ(bench::harnessExit(), 0); // Degraded, but not strict.
  H.Strict = true;
  EXPECT_EQ(bench::harnessExit(), 1);
  H.Strict = false;
  std::vector<std::string> Degraded = takeDegraded();
  ASSERT_EQ(Degraded.size(), 1u);
  EXPECT_EQ(Degraded[0], "bad: exception: synthetic failure for bad");
}

} // namespace
