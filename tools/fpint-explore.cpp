//===- tools/fpint-explore.cpp - Durable design-space sweep driver --------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The first consumer of the durable campaign runtime: sweeps machine
/// design points (issue widths, FU mixes, windows, predictors, D-cache
/// sizes) crossed with workloads, one crash-contained campaign cell
/// per point, and publishes the Pareto frontier of augmented-vs-
/// conventional speedup against an integer resource-cost score.
///
///   fpint-explore [options]
///
///     --grid NAME        smoke | small | full (default small)
///     --workloads A,B,C  workload subset (default per grid)
///     --out PATH         frontier report (default bench_out/explore.json;
///                        a run-varying <stem>_campaign.json sidecar
///                        lands next to it)
///     --state-dir DIR    campaign journal directory (default
///                        $FPINT_CAMPAIGN_DIR, then campaign_state)
///     --fresh            discard any existing journal first
///     --jobs N           1 = run cells inline; default: thread pool
///     --strict           exit 1 if any cell degraded to ERR
///     --list             print the grid and exit
///
/// Interrupt it at any point -- SIGKILL included -- and rerun with the
/// same arguments: completed cells replay from the journal and only
/// unfinished ones execute. The published explore.json is byte-
/// identical either way (docs/CAMPAIGNS.md).
///
//===----------------------------------------------------------------------===//

#include "campaign/Explore.h"
#include "support/ParseNumber.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

using namespace fpint;

namespace {

int usage(int Status) {
  std::fprintf(Status ? stderr : stdout,
               "usage: fpint-explore [--grid smoke|small|full]\n"
               "                     [--workloads A,B,C] [--out PATH]\n"
               "                     [--state-dir DIR] [--fresh] [--jobs N]\n"
               "                     [--strict] [--list]\n");
  return Status;
}

std::vector<std::string> splitList(const std::string &Text) {
  std::vector<std::string> Out;
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Comma = Text.find(',', Pos);
    if (Comma == std::string::npos)
      Comma = Text.size();
    if (Comma > Pos)
      Out.push_back(Text.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
  }
  return Out;
}

} // namespace

int main(int argc, char **argv) {
  campaign::ExploreOptions Opts;
  bool List = false;
  bool Fresh = false;

  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    auto needArg = [&](const char *Flag) -> const char * {
      if (I + 1 >= argc) {
        std::fprintf(stderr, "fpint-explore: %s needs an argument\n", Flag);
        std::exit(2);
      }
      return argv[++I];
    };
    if (A == "--grid") {
      Opts.Grid = needArg("--grid");
    } else if (A == "--workloads") {
      Opts.Workloads = splitList(needArg("--workloads"));
    } else if (A == "--out") {
      Opts.OutPath = needArg("--out");
    } else if (A == "--state-dir") {
      Opts.StateDir = needArg("--state-dir");
    } else if (A == "--fresh") {
      Fresh = true;
    } else if (A == "--jobs") {
      Opts.Jobs = support::flagNumber<int>("fpint-explore", "--jobs",
                                           needArg("--jobs"));
    } else if (A == "--strict") {
      Opts.Strict = true;
    } else if (A == "--list") {
      List = true;
    } else if (A == "--help" || A == "-h") {
      return usage(0);
    } else {
      std::fprintf(stderr, "fpint-explore: unknown option %s\n", A.c_str());
      return usage(2);
    }
  }

  if (List) {
    std::vector<campaign::MachinePoint> Grid =
        campaign::exploreGrid(Opts.Grid);
    if (Grid.empty()) {
      std::fprintf(stderr, "fpint-explore: unknown grid '%s'\n",
                   Opts.Grid.c_str());
      return 2;
    }
    for (const campaign::MachinePoint &P : Grid)
      std::printf("%-24s cost %llu\n", P.Label.c_str(),
                  static_cast<unsigned long long>(
                      campaign::resourceCost(P.M)));
    std::printf("%zu machine points in grid '%s'\n", Grid.size(),
                Opts.Grid.c_str());
    return 0;
  }

  if (Fresh) {
    std::string Dir = Opts.StateDir;
    if (Dir.empty()) {
      const char *E = std::getenv("FPINT_CAMPAIGN_DIR");
      Dir = E && *E ? E : "campaign_state";
    }
    std::error_code EC;
    std::filesystem::remove(std::filesystem::path(Dir) / "journal.wal", EC);
  }

  return campaign::runExplore(Opts, nullptr);
}
