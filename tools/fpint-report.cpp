//===- tools/fpint-report.cpp - Bench result differ / regression gate -----===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Diffs two structured bench-result trees (single JSON reports or
/// directories of them, as emitted by the bench binaries under
/// FPINT_TELEMETRY=1) and prints a per-metric delta table. Cycles
/// increases and IPC decreases beyond the tolerance are regressions
/// and make the exit status nonzero; with --check, structural problems
/// (runs or report files missing from the current tree, changed
/// dynamic instruction counts) also fail, which is how CI gates PRs
/// against the committed golden baseline.
///
/// A top-level "run_cache" object (memoization counters) renders as
/// informational rows under --all and never gates, however large the
/// delta: cache hit rates describe the environment, not the code under
/// test.
///
///   fpint-report [--tolerance=PCT] [--check] [--all] BASELINE CURRENT
///
///     BASELINE, CURRENT   report file or directory of *.json reports
///     --tolerance=PCT     relative slack before a delta counts as a
///                         regression (default 0.1)
///     --check             fail (exit 1) on structural problems too
///     --all               print every compared metric, not only the
///                         rows with a nonzero delta
///
/// Exit status: 0 clean, 1 regression (or problem with --check),
/// 2 usage / unreadable input.
///
//===----------------------------------------------------------------------===//

#include "stats/Report.h"
#include "support/ParseNumber.h"
#include "support/Table.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

using namespace fpint;
namespace fs = std::filesystem;

namespace {

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream SS;
  SS << In.rdbuf();
  Out = SS.str();
  return true;
}

/// Loads PATH as basename -> parsed report. A single file becomes one
/// entry; a directory contributes every *.json inside (sorted).
bool loadTree(const std::string &Path,
              std::map<std::string, json::Value> &Out) {
  std::error_code EC;
  std::vector<std::string> Files;
  if (fs::is_directory(Path, EC)) {
    for (const auto &Ent : fs::directory_iterator(Path, EC))
      if (Ent.path().extension() == ".json")
        Files.push_back(Ent.path().string());
    std::sort(Files.begin(), Files.end());
    if (Files.empty()) {
      std::fprintf(stderr, "fpint-report: no *.json reports in %s\n",
                   Path.c_str());
      return false;
    }
  } else {
    Files.push_back(Path);
  }
  for (const std::string &F : Files) {
    std::string Text, Err;
    json::Value Doc;
    if (!readFile(F, Text)) {
      std::fprintf(stderr, "fpint-report: cannot read %s\n", F.c_str());
      return false;
    }
    if (!json::Value::parse(Text, Doc, &Err)) {
      std::fprintf(stderr, "fpint-report: %s: %s\n", F.c_str(), Err.c_str());
      return false;
    }
    Out.emplace(fs::path(F).stem().string(), std::move(Doc));
  }
  return true;
}

std::string fmtMetric(double V) {
  // Cycle/instruction counts print as integers, IPC with precision.
  if (V == static_cast<uint64_t>(V))
    return Table::num(static_cast<uint64_t>(V));
  return Table::fmt(V, 4);
}

} // namespace

int main(int argc, char **argv) {
  stats::DiffOptions Opts;
  bool Check = false, ShowAll = false;
  std::vector<std::string> Paths;
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A == "--check") {
      Check = true;
    } else if (A == "--all") {
      ShowAll = true;
    } else if (A.rfind("--tolerance=", 0) == 0) {
      const char *V = A.c_str() + std::strlen("--tolerance=");
      Opts.TolerancePct =
          support::flagNumber<double>("fpint-report", "--tolerance", V);
    } else if (A == "--help" || A == "-h") {
      std::printf("usage: fpint-report [--tolerance=PCT] [--check] [--all] "
                  "BASELINE CURRENT\n");
      return 0;
    } else if (!A.empty() && A[0] == '-') {
      std::fprintf(stderr, "fpint-report: unknown option %s\n", A.c_str());
      return 2;
    } else {
      Paths.push_back(A);
    }
  }
  if (Paths.size() != 2) {
    std::fprintf(stderr,
                 "usage: fpint-report [--tolerance=PCT] [--check] [--all] "
                 "BASELINE CURRENT\n");
    return 2;
  }

  std::map<std::string, json::Value> Base, Cur;
  if (!loadTree(Paths[0], Base) || !loadTree(Paths[1], Cur))
    return 2;

  Table T({"report", "run", "metric", "baseline", "current", "delta",
           "status"});
  unsigned Regressions = 0;
  std::vector<std::string> Problems;

  for (const auto &KV : Base) {
    auto It = Cur.find(KV.first);
    if (It == Cur.end()) {
      Problems.push_back("report missing from current tree: " + KV.first +
                         ".json");
      continue;
    }
    stats::DiffResult R = stats::diffReports(KV.second, It->second, Opts);
    Regressions += R.Regressions;
    for (const std::string &P : R.Problems)
      Problems.push_back(KV.first + ": " + P);
    for (const stats::MetricDelta &D : R.Deltas) {
      // Informational metrics (sim_wall_ms) never gate and are noisy
      // by nature; show them only on request.
      if (D.Informational && !ShowAll)
        continue;
      if (!ShowAll && !D.Regression && D.Base == D.Current)
        continue;
      T.addRow({KV.first, D.RunId, D.Metric, fmtMetric(D.Base),
                fmtMetric(D.Current), Table::pct(D.DeltaPct / 100.0, 2),
                D.Regression ? "REGRESSED" : D.Informational ? "info" : "ok"});
    }
  }

  if (T.numRows())
    T.print();
  else
    std::printf("no metric deltas (%zu reports compared)\n", Base.size());
  for (const std::string &P : Problems)
    std::printf("problem: %s\n", P.c_str());
  std::printf("%u regression(s), %zu problem(s), tolerance %.3g%%\n",
              Regressions, Problems.size(), Opts.TolerancePct);

  if (Regressions)
    return 1;
  if (Check && !Problems.empty())
    return 1;
  return 0;
}
