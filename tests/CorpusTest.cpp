//===- tests/CorpusTest.cpp - Replay the on-disk corpus through the oracle ===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Replays every tests/corpus/**/*.sir program through the differential
/// oracle: each must produce identical output, exit value, and global
/// memory under every pipeline variant, and the timing simulator must
/// agree with the stats subsystem on dynamic counts. The corpus holds
/// the paper's running examples plus reducer-minimized regressions from
/// fpint-fuzz, so a pipeline change that re-breaks an old bug fails here
/// without re-fuzzing.
///
//===----------------------------------------------------------------------===//

#include "sir/Parser.h"
#include "testgen/Oracle.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

using namespace fpint;
namespace fs = std::filesystem;

namespace {

fs::path corpusDir() { return fs::path(FPINT_SOURCE_DIR) / "tests" / "corpus"; }

std::vector<fs::path> corpusFiles() {
  std::vector<fs::path> Files;
  for (const fs::directory_entry &E : fs::recursive_directory_iterator(corpusDir()))
    if (E.is_regular_file() && E.path().extension() == ".sir")
      Files.push_back(E.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

std::string slurp(const fs::path &P) {
  std::ifstream In(P);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

} // namespace

TEST(CorpusTest, CorpusIsSeeded) {
  // The corpus must at least contain the three paper examples; an empty
  // glob would make the replay test pass vacuously.
  EXPECT_GE(corpusFiles().size(), 3u) << "corpus dir: " << corpusDir();
}

TEST(CorpusTest, EveryProgramParses) {
  for (const fs::path &P : corpusFiles()) {
    sir::ParseResult PR = sir::parseModule(slurp(P));
    EXPECT_TRUE(PR.ok()) << P.filename() << ": " << PR.Error;
  }
}

TEST(CorpusTest, OracleAcceptsEveryProgram) {
  for (const fs::path &P : corpusFiles()) {
    SCOPED_TRACE(P.filename().string());
    sir::ParseResult PR = sir::parseModule(slurp(P));
    ASSERT_TRUE(PR.ok()) << PR.Error;

    testgen::OracleReport Report = testgen::runOracle(*PR.M);
    EXPECT_FALSE(Report.BaselineSkipped)
        << "corpus programs must terminate quickly: " << Report.BaselineError;
    for (const std::string &Msg : Report.Mismatches)
      ADD_FAILURE() << Msg;
    EXPECT_GT(Report.BaselineDynInstrs, 0u);
  }
}

namespace {

std::vector<fs::path> transformCorpusFiles() {
  std::vector<fs::path> Files;
  for (const fs::path &P : corpusFiles())
    if (P.parent_path().filename() == "transform")
      Files.push_back(P);
  return Files;
}

} // namespace

TEST(CorpusTest, TransformCorpusIsSeeded) {
  EXPECT_GE(transformCorpusFiles().size(), 4u) << "corpus dir: " << corpusDir();
}

TEST(CorpusTest, OracleAcceptsTransformCorpusUnderMidendVariants) {
  // The mid-end fixtures replay through the oracle under every new
  // pipeline variant (each transform pass alone plus opt2), on top of
  // the default battery.
  testgen::OracleOptions Opts;
  std::vector<testgen::VariantSpec> MV = testgen::midendVariants();
  Opts.Variants.insert(Opts.Variants.end(), MV.begin(), MV.end());
  for (const fs::path &P : transformCorpusFiles()) {
    SCOPED_TRACE(P.filename().string());
    sir::ParseResult PR = sir::parseModule(slurp(P));
    ASSERT_TRUE(PR.ok()) << PR.Error;
    testgen::OracleReport Report = testgen::runOracle(*PR.M, Opts);
    EXPECT_FALSE(Report.BaselineSkipped) << Report.BaselineError;
    for (const std::string &Msg : Report.Mismatches)
      ADD_FAILURE() << Msg;
  }
}

TEST(CorpusTest, TransformCorpusShowsMidendDeltas) {
  // Every mid-end fixture was built so that at least one transform pass
  // changes its fig8-style dynamic partition stats; if none does, the
  // fixture has rotted into a no-op and stops guarding anything.
  for (const fs::path &P : transformCorpusFiles()) {
    SCOPED_TRACE(P.filename().string());
    sir::ParseResult PR = sir::parseModule(slurp(P));
    ASSERT_TRUE(PR.ok()) << PR.Error;

    core::PipelineConfig Base;
    Base.Scheme = partition::Scheme::Advanced;
    Base.Passes = "opt,profile,partition,fp-arg-passing,regalloc";
    core::PipelineRun Default = core::compileAndMeasure(*PR.M, Base);
    ASSERT_TRUE(Default.ok()) << (Default.Errors.empty()
                                      ? "output mismatch"
                                      : Default.Errors.front());

    bool AnyDelta = false;
    for (const testgen::VariantSpec &V : testgen::midendVariants()) {
      core::PipelineConfig Cfg = V.Config;
      core::PipelineRun Run = core::compileAndMeasure(*PR.M, Cfg);
      ASSERT_TRUE(Run.ok()) << V.Name << ": "
                            << (Run.Errors.empty() ? "output mismatch"
                                                   : Run.Errors.front());
      if (Run.Stats.Total != Default.Stats.Total ||
          Run.Stats.Fpa != Default.Stats.Fpa)
        AnyDelta = true;
    }
    EXPECT_TRUE(AnyDelta)
        << "no mid-end variant changed the partition stats";
  }
}
