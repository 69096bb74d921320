//===- tests/BenchHarnessTest.cpp - Bench matrix sandbox mode -------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// bench::runMatrix's sandbox mode (campaign::runCell per cell): an
/// injected crash degrades exactly one cell to an ERR row padded to the
/// header width and registers a degraded-cell entry naming the typed
/// error kind; a transient (":once") crash absorbed by one retry yields
/// the same table as the in-process pool evaluation. The row function
/// never touches core::RunCache.
///
//===----------------------------------------------------------------------===//

#include "bench/BenchCommon.h"

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

} // namespace
