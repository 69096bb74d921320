//===- tests/TestGenTest.cpp - Generator, oracle, and reducer tests -------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests the differential harness itself: the generator's contract
/// (determinism, strict verifier cleanliness, a bounded run), the oracle's
/// ability to catch an injected miscompile, and the reducer's ability to
/// shrink such a failure to a small repro -- the PR's acceptance gate.
///
//===----------------------------------------------------------------------===//

#include "sir/Parser.h"
#include "sir/Printer.h"
#include "sir/Verifier.h"
#include "testgen/Generator.h"
#include "testgen/Oracle.h"
#include "testgen/Reducer.h"
#include "vm/VM.h"

#include <set>
#include <string>

#include <gtest/gtest.h>

using namespace fpint;

namespace {

/// A little program with a data-flow-relevant add: c = a + b is stored,
/// reloaded, and emitted, so corrupting any add must change the output
/// stream or the memory image.
const char *AddChain = R"(
global buf 4

func main() {
entry:
  li %a, 100
  li %b, 23
  add %c, %a, %b
  la %p, buf
  sw %c, 0(%p)
  lw %v, 0(%p)
  add %d, %v, %a
  out %v
  out %d
  ret
}
)";

/// Simulates a rewriter bug: the first integer add in main becomes a
/// subtract. Preserves the register set, so the reused allocation map
/// stays valid.
void flipFirstAdd(sir::Module &M) {
  for (auto &F : M.functions()) {
    if (F->name() != "main")
      continue;
    for (auto &BB : F->blocks())
      for (auto &I : BB->instructions())
        if (I->op() == sir::Opcode::Add) {
          I->setOp(sir::Opcode::Sub);
          return;
        }
  }
}

testgen::OracleOptions fastOracle() {
  testgen::OracleOptions Opts;
  // One partitioned variant is enough for the miscompile tests and keeps
  // the reducer's thousands of probes cheap.
  std::vector<testgen::VariantSpec> Keep;
  for (testgen::VariantSpec &V : Opts.Variants)
    if (V.Name == "advanced")
      Keep.push_back(V);
  Opts.Variants = Keep;
  return Opts;
}

} // namespace

TEST(GeneratorTest, Deterministic) {
  testgen::GenConfig Config;
  for (uint64_t Seed : {1ull, 0xdeadbeefull, 42ull}) {
    auto A = testgen::generateModule(Config, Seed);
    auto B = testgen::generateModule(Config, Seed);
    EXPECT_EQ(sir::toString(*A), sir::toString(*B)) << "seed " << Seed;
  }
}

TEST(GeneratorTest, DistinctSeedsGiveDistinctModules) {
  testgen::GenConfig Config;
  std::set<std::string> Texts;
  for (uint64_t Seed = 0; Seed < 8; ++Seed)
    Texts.insert(sir::toString(*testgen::generateModule(Config, Seed)));
  EXPECT_GE(Texts.size(), 7u) << "seeds are barely influencing generation";
}

TEST(GeneratorTest, ModuleSeedMixesBaseAndIteration) {
  std::set<uint64_t> Seeds;
  for (uint64_t Base = 1; Base <= 3; ++Base)
    for (uint64_t It = 0; It < 50; ++It)
      Seeds.insert(testgen::moduleSeed(Base, It));
  EXPECT_EQ(Seeds.size(), 150u);
}

TEST(GeneratorTest, EveryPresetIsStrictVerifierClean) {
  sir::VerifyOptions Strict;
  Strict.CheckDataflow = true;
  for (const std::string &Preset : testgen::presetNames()) {
    testgen::GenConfig Config = testgen::presetConfig(Preset);
    for (uint64_t It = 0; It < 12; ++It) {
      uint64_t Seed = testgen::moduleSeed(7, It);
      auto M = testgen::generateModule(Config, Seed);
      std::vector<std::string> Diags = sir::verify(*M, Strict);
      EXPECT_TRUE(Diags.empty())
          << "preset " << Preset << " seed " << Seed << ": "
          << (Diags.empty() ? "" : Diags.front());
    }
  }
}

TEST(GeneratorTest, EveryModuleRunsWithinTheStepCap) {
  // Four seeds in fpint-fuzz's order (preset It % 7). Before generation
  // bounded each function's steps, 3-12 modules per 3,000 of these ran
  // longer, the largest 4.4M steps.
  std::vector<std::string> Over;
  auto Check = [&](const std::string &Preset, uint64_t Seed) {
    auto M = testgen::generateModule(testgen::presetConfig(Preset), Seed);
    vm::VM::Options Opts;
    Opts.MaxSteps = testgen::MaxModuleSteps;
    vm::VM Machine(*M, Opts);
    if (!Machine.run().Ok)
      Over.push_back(Preset + " " + std::to_string(Seed));
  };
  const std::vector<std::string> &Presets = testgen::presetNames();
  for (uint64_t Base : {1, 3, 7, 9})
    for (uint64_t It = 0; It < 3200; ++It)
      Check(Presets[It % Presets.size()], testgen::moduleSeed(Base, It));
  // The two longest modules of seeds 3 and 9 before the cap.
  Check("calls", 0xa5a6c45e80e29accULL);
  Check("calls", 0xa424b262f67fdf00ULL);
  EXPECT_TRUE(Over.empty()) << Over.size() << " modules passed the cap, "
                            << "first: " << Over.front();
}

TEST(GeneratorTest, GeneratedTextRoundTripsThroughParser) {
  testgen::GenConfig Config;
  for (uint64_t It = 0; It < 6; ++It) {
    auto M = testgen::generateModule(Config, testgen::moduleSeed(11, It));
    std::string Text = sir::toString(*M);
    sir::ParseResult PR = sir::parseModule(Text);
    ASSERT_TRUE(PR.ok()) << PR.Error;
    EXPECT_EQ(Text, sir::toString(*PR.M));
  }
}

TEST(OracleTest, GeneratedModulesPassAllVariants) {
  // The real coverage lives in tools/fpint-fuzz (500 iterations in CI);
  // this is a smoke slice so plain ctest exercises the same path.
  testgen::GenConfig Config = testgen::presetConfig("tiny");
  for (uint64_t It = 0; It < 10; ++It) {
    uint64_t Seed = testgen::moduleSeed(3, It);
    auto M = testgen::generateModule(Config, Seed);
    testgen::OracleReport Report = testgen::runOracle(*M);
    EXPECT_FALSE(Report.BaselineSkipped) << "seed " << Seed;
    for (const std::string &Msg : Report.Mismatches)
      ADD_FAILURE() << "seed " << Seed << ": " << Msg;
  }
}

TEST(OracleTest, PaperVariantBatteryHasExpectedShape) {
  std::vector<testgen::VariantSpec> Variants = testgen::defaultVariants();
  ASSERT_GE(Variants.size(), 4u);
  std::set<std::string> Names;
  for (const testgen::VariantSpec &V : Variants)
    Names.insert(V.Name);
  EXPECT_TRUE(Names.count("none"));
  EXPECT_TRUE(Names.count("basic"));
  EXPECT_TRUE(Names.count("advanced"));
}

TEST(OracleTest, BatteryKeyIdentifiesTheResolvedBattery) {
  using testgen::batteryKey;
  std::vector<testgen::VariantSpec> Default = testgen::defaultVariants();
  EXPECT_EQ(batteryKey(Default), batteryKey(testgen::defaultVariants()));
  // Pinned: fuzz journals key their campaign on it.
  EXPECT_EQ(batteryKey(Default), "b7747d4d6c4bab3f");

  // Same names, one variant's pipeline text changed.
  std::vector<testgen::VariantSpec> Edited = Default;
  Edited.back().Config.Passes = "opt,profile,partition,regalloc";
  EXPECT_NE(batteryKey(Edited), batteryKey(Default));

  // fpint-fuzz --midend appends the mid-end battery.
  std::vector<testgen::VariantSpec> Midend = Default;
  for (testgen::VariantSpec &V : testgen::midendVariants())
    Midend.push_back(std::move(V));
  EXPECT_EQ(batteryKey(Midend), "af73b1724d76f44d");
}

TEST(OracleTest, CatchesInjectedMiscompile) {
  sir::ParseResult PR = sir::parseModule(AddChain);
  ASSERT_TRUE(PR.ok()) << PR.Error;

  testgen::OracleOptions Clean = fastOracle();
  ASSERT_TRUE(testgen::runOracle(*PR.M, Clean).ok());

  testgen::OracleOptions Buggy = fastOracle();
  Buggy.CompiledMutator = flipFirstAdd;
  testgen::OracleReport Report = testgen::runOracle(*PR.M, Buggy);
  EXPECT_FALSE(Report.BaselineSkipped);
  EXPECT_FALSE(Report.Mismatches.empty())
      << "oracle accepted a module whose compiled add was flipped to sub";
}

TEST(OracleTest, ChecksLongHandWrittenTracesInMemory) {
  // 120k dynamic instructions, more than a generated module may run:
  // hand-written inputs are not capped. The oracle keeps the whole
  // trace, and both cycle loops must retire exactly the counted
  // instructions.
  sir::ParseResult PR = sir::parseModule(R"(
global buf 1

func main() {
entry:
  li %i, 0
  li %n, 30000
  li %s, 0
  la %p, buf
loop:
  add %s, %s, %i
  addi %i, %i, 1
  slt %t, %i, %n
  bne %t, %zero, loop
  sw %s, 0(%p)
  out %s
  ret
}
)");
  ASSERT_TRUE(PR.ok()) << PR.Error;
  testgen::OracleReport Report = testgen::runOracle(*PR.M);
  EXPECT_EQ(Report.BaselineDynInstrs, 120007u);
  EXPECT_TRUE(Report.ok());
  for (const std::string &Msg : Report.Mismatches)
    ADD_FAILURE() << Msg;

  testgen::OracleOptions Buggy = fastOracle();
  Buggy.CompiledMutator = flipFirstAdd;
  EXPECT_FALSE(testgen::runOracle(*PR.M, Buggy).Mismatches.empty());
}

TEST(ReducerTest, ShrinksInjectedMiscompileToSmallRepro) {
  // The acceptance gate: a deliberate compiled-side bug must reduce to a
  // repro of at most 20 instructions.
  testgen::OracleOptions Buggy = fastOracle();
  Buggy.CompiledMutator = flipFirstAdd;
  testgen::InterestingPredicate StillFails =
      [&](const sir::Module &Candidate) {
        testgen::OracleReport R = testgen::runOracle(Candidate, Buggy);
        return !R.BaselineSkipped && !R.Mismatches.empty();
      };

  // Not every module observes its first add in the output, so scan a few
  // seeds for one where the injected bug actually bites.
  testgen::GenConfig Config; // Full-size default modules (~100+ instrs).
  std::string Text;
  for (uint64_t It = 0; It < 32 && Text.empty(); ++It) {
    auto M = testgen::generateModule(Config, testgen::moduleSeed(1, It));
    if (testgen::countInstructions(*M) > 20 && StillFails(*M))
      Text = sir::toString(*M);
  }
  ASSERT_FALSE(Text.empty())
      << "no seed in range observes the flipped add; loosen the mutator";

  testgen::ReducerOptions ROpts;
  ROpts.MaxProbes = 4000;
  testgen::ReduceOutcome Out = testgen::reduceModule(Text, StillFails, ROpts);
  EXPECT_TRUE(Out.Reduced);
  EXPECT_LE(Out.InstrCount, 20u) << Out.Text;

  sir::ParseResult PR = sir::parseModule(Out.Text);
  ASSERT_TRUE(PR.ok()) << PR.Error;
  EXPECT_TRUE(StillFails(*PR.M)) << "reduced repro no longer fails";
}

TEST(ReducerTest, LeavesAlreadyMinimalInputAlone) {
  const char *Minimal = "func main() {\nentry:\n  out %zero\n  ret\n}\n";
  sir::ParseResult PR = sir::parseModule(Minimal);
  ASSERT_TRUE(PR.ok()) << PR.Error;
  // "Interesting" = still prints exactly one value; nothing is deletable.
  testgen::InterestingPredicate Pred = [](const sir::Module &M) {
    unsigned Outs = 0;
    for (const auto &F : M.functions())
      F->forEachInstr([&](const sir::Instruction &I) {
        if (I.op() == sir::Opcode::Out)
          ++Outs;
      });
    return Outs == 1;
  };
  testgen::ReduceOutcome Out = testgen::reduceModule(Minimal, Pred);
  sir::ParseResult RPR = sir::parseModule(Out.Text);
  ASSERT_TRUE(RPR.ok());
  EXPECT_TRUE(Pred(*RPR.M));
  EXPECT_LE(Out.InstrCount, 2u);
}
