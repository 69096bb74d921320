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

#include "AnalysisCorpus.h"
#include "core/Pipeline.h"
#include "sir/Parser.h"
#include "sir/Printer.h"
#include "sir/Verifier.h"
#include "support/Hash.h"
#include "testgen/Generator.h"
#include "testgen/Oracle.h"
#include "testgen/Reducer.h"
#include "vm/VM.h"

#include <functional>
#include <map>
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

/// Simulates a scheduler bug that computes the same values with one
/// instruction more: the first `li` in main runs twice. The dynamic
/// counts no longer match the profile the stats were computed from.
void duplicateFirstLi(sir::Module &M) {
  sir::Function *Main = M.functionByName("main");
  if (!Main)
    return;
  for (auto &BB : Main->blocks())
    for (size_t K = 0; K < BB->instructions().size(); ++K)
      if (BB->instructions()[K]->op() == sir::Opcode::Li) {
        BB->insertAt(K + 1, std::make_unique<sir::Instruction>(
                                *BB->instructions()[K]));
        return;
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

/// Each variant's messages, with the "[variant] " prefix taken off.
std::map<std::string, std::vector<std::string>>
messagesByVariant(const testgen::OracleReport &Report) {
  std::map<std::string, std::vector<std::string>> By;
  for (const std::string &Msg : Report.Mismatches) {
    const size_t Close = Msg.find("] ");
    EXPECT_TRUE(Msg[0] == '[' && Close != std::string::npos) << Msg;
    By[Msg.substr(1, Close - 1)].push_back(Msg.substr(Close + 2));
  }
  return By;
}

/// The reference for sameCompiledProgram: equal printed modules, equal
/// architectural registers, and timing applying to both or neither.
bool samePrintedProgram(const core::PipelineRun &A,
                        const core::PipelineRun &B) {
  if (sir::toString(*A.Compiled) != sir::toString(*B.Compiled))
    return false;
  auto Timed = [](const core::PipelineRun &R) {
    return R.Allocated && R.Alloc.Errors.empty();
  };
  if (Timed(A) != Timed(B))
    return false;
  const auto &FA = A.Compiled->functions(), &FB = B.Compiled->functions();
  for (size_t K = 0; K < FA.size(); ++K) {
    auto IA = A.Alloc.Funcs.find(FA[K].get());
    auto IB = B.Alloc.Funcs.find(FB[K].get());
    const bool HasA = IA != A.Alloc.Funcs.end();
    const bool HasB = IB != B.Alloc.Funcs.end();
    if (HasA != HasB || (HasA && IA->second.ArchIndex != IB->second.ArchIndex))
      return false;
  }
  return true;
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

TEST(OracleTest, SharedProgramReportsUnderEveryVariant) {
  // `x` comes from memory, so the optimizer cannot fold the add away
  // and every variant keeps one for flipFirstAdd to flip.
  sir::ParseResult PR = sir::parseModule(R"(
global buf 4

func main() {
entry:
  la %p, buf
  lw %x, 4(%p)
  li %b, 23
  add %c, %x, %b
  sw %c, 0(%p)
  out %c
  ret
}
)");
  ASSERT_TRUE(PR.ok()) << PR.Error;
  testgen::OracleOptions Buggy; // The whole default battery.
  Buggy.CompiledMutator = flipFirstAdd;
  auto By = messagesByVariant(testgen::runOracle(*PR.M, Buggy));

  std::vector<core::PipelineRun> Runs;
  for (const testgen::VariantSpec &V : Buggy.Variants) {
    Runs.push_back(core::compileAndMeasure(*PR.M, V.Config));
    ASSERT_TRUE(Runs.back().Errors.empty()) << V.Name;
    flipFirstAdd(*Runs.back().Compiled);
    Runs.back().Compiled->renumber();
    EXPECT_FALSE(By[V.Name].empty())
        << V.Name << " did not report the flipped add";
  }
  unsigned Shared = 0;
  for (size_t I = 0; I < Runs.size(); ++I)
    for (size_t J = I + 1; J < Runs.size(); ++J) {
      const std::string &A = Buggy.Variants[I].Name;
      const std::string &B = Buggy.Variants[J].Name;
      ASSERT_EQ(testgen::sameCompiledProgram(Runs[I], Runs[J]),
                samePrintedProgram(Runs[I], Runs[J]))
          << A << " vs " << B;
      if (!samePrintedProgram(Runs[I], Runs[J]))
        continue;
      ++Shared;
      EXPECT_EQ(By[A], By[B]) << A << " and " << B << " share a program";
    }
  EXPECT_GE(Shared, 1u) << "no two variants compiled to one program";
}

TEST(OracleTest, MismatchReportsArePinned) {
  // Everything the oracle reports over the first 20 seed-1 modules of
  // every preset, in order: which variant, which check, what text. Each
  // module is checked clean, with the flipped add (functional findings)
  // and with the flipped add and a duplicated `li` (functional, then
  // stats findings). Computed before the oracle checked each distinct
  // compiled program once, which must not change it.
  const std::function<void(sir::Module &)> Mutators[] = {
      nullptr, flipFirstAdd, [](sir::Module &M) {
        flipFirstAdd(M);
        duplicateFirstLi(M);
      }};
  uint64_t H = support::fnv1a64("");
  size_t Messages = 0;
  for (const std::string &Preset : testgen::presetNames()) {
    testgen::GenConfig Gen = testgen::presetConfig(Preset);
    for (uint64_t It = 0; It < 20; ++It) {
      auto M = testgen::generateModule(Gen, testgen::moduleSeed(1, It));
      for (const auto &Mutator : Mutators) {
        testgen::OracleOptions Opts;
        Opts.CompiledMutator = Mutator;
        testgen::OracleReport Report = testgen::runOracle(*M, Opts);
        H = support::fnv1a64(Report.BaselineSkipped ? "skipped" : "ran", H);
        for (const std::string &Msg : Report.Mismatches)
          H = support::fnv1a64(Msg + "\n", H);
        Messages += Report.Mismatches.size();
      }
    }
  }
  EXPECT_EQ(Messages, 1289u);
  EXPECT_EQ(support::hex64(H), "b751ac9c064560c8");
}

TEST(OracleTest, SameCompiledProgramAgreesWithPrintedModules) {
  // Over the analysis corpus, each program compiled by the default
  // battery: every pair of its variants, and each variant against the
  // same variant of the previous program.
  const std::vector<testgen::VariantSpec> Variants =
      testgen::defaultVariants();
  std::vector<core::PipelineRun> Prev;
  unsigned Same = 0, Different = 0;
  fixtures::forEachCorpusSource(30, [&](const std::string &Name,
                                        const sir::Module &M,
                                        const std::vector<int32_t> &Train,
                                        const std::vector<int32_t> &Ref) {
    std::vector<core::PipelineConfig> Plan;
    for (const testgen::VariantSpec &V : Variants) {
      Plan.push_back(V.Config);
      Plan.back().TrainArgs = Train;
      Plan.back().RefArgs = Ref;
    }
    core::CompileMemo Memo(M, Plan);
    std::vector<core::PipelineRun> Runs;
    for (const core::PipelineConfig &C : Plan)
      Runs.push_back(core::compileAndMeasure(M, C, &Memo));
    auto Check = [&](const core::PipelineRun &A, const core::PipelineRun &B,
                     const std::string &What) {
      const bool Want = samePrintedProgram(A, B);
      EXPECT_EQ(testgen::sameCompiledProgram(A, B), Want)
          << Name << ": " << What;
      ++(Want ? Same : Different);
    };
    for (size_t I = 0; I < Runs.size(); ++I) {
      for (size_t J = I + 1; J < Runs.size(); ++J)
        Check(Runs[I], Runs[J], Variants[I].Name + " vs " + Variants[J].Name);
      if (!Prev.empty())
        Check(Prev[I], Runs[I], Variants[I].Name + " vs the previous program");
    }
    Prev = std::move(Runs);
  });
  EXPECT_GT(Same, 0u);
  EXPECT_GT(Different, 0u);
}

TEST(OracleTest, SameCompiledProgramSeesEachField) {
  // A change to any one field the checks read makes a different program.
  auto M = testgen::generateModule(testgen::presetConfig("fp"),
                                   testgen::moduleSeed(1, 0));
  core::PipelineConfig Config;
  auto Compile = [&] { return core::compileAndMeasure(*M, Config); };
  const core::PipelineRun Base = Compile();
  ASSERT_TRUE(Base.Errors.empty());
  ASSERT_TRUE(testgen::sameCompiledProgram(Base, Compile()));

  using Edit = std::function<void(core::PipelineRun &)>;
  auto ExpectDifferent = [&](const char *What, const Edit &Change) {
    core::PipelineRun Run = Compile();
    Change(Run);
    EXPECT_FALSE(testgen::sameCompiledProgram(Base, Run)) << What;
    EXPECT_FALSE(testgen::sameCompiledProgram(Run, Base)) << What;
  };
  auto Main = [](core::PipelineRun &R) {
    return R.Compiled->functionByName("main");
  };
  auto FirstWith = [&](core::PipelineRun &R, auto Pred) -> sir::Instruction * {
    for (const auto &F : R.Compiled->functions())
      for (const auto &BB : F->blocks())
        for (const auto &I : BB->instructions())
          if (Pred(*I))
            return I.get();
    ADD_FAILURE() << "no instruction to edit";
    static sir::Instruction Dummy;
    return &Dummy;
  };
  auto Any = [](const sir::Instruction &) { return true; };
  ExpectDifferent("opcode", [&](core::PipelineRun &R) {
    sir::Instruction *I = FirstWith(R, [](const sir::Instruction &I) {
      return I.op() == sir::Opcode::Add;
    });
    I->setOp(sir::Opcode::Sub);
  });
  ExpectDifferent("inFpa", [&](core::PipelineRun &R) {
    sir::Instruction *I = FirstWith(R, Any);
    I->setInFpa(!I->inFpa());
  });
  ExpectDifferent("imm", [&](core::PipelineRun &R) {
    sir::Instruction *I = FirstWith(R, Any);
    I->setImm(I->imm() + 1);
  });
  ExpectDifferent("fimm sign", [&](core::PipelineRun &R) {
    sir::Instruction *I = FirstWith(R, Any);
    I->setFImm(I->fimm() == 0.0f ? -0.0f : -I->fimm());
  });
  ExpectDifferent("mem offset", [&](core::PipelineRun &R) {
    FirstWith(R, Any)->mem().Offset += 4;
  });
  ExpectDifferent("callee", [&](core::PipelineRun &R) {
    sir::Instruction *I = FirstWith(R, Any);
    I->setCallee(I->callee() + "_");
  });
  ExpectDifferent("use", [&](core::PipelineRun &R) {
    sir::Instruction *I = FirstWith(R, [](const sir::Instruction &I) {
      return !I.uses().empty();
    });
    I->uses().push_back(I->uses().front());
  });
  ExpectDifferent("branch target", [&](core::PipelineRun &R) {
    sir::Instruction *I = FirstWith(R, [](const sir::Instruction &I) {
      return I.target() != nullptr;
    });
    sir::Function &F = *I->parent()->parent();
    I->setTarget(I->target() == F.entry() ? F.blocks().back().get()
                                          : F.entry());
  });
  ExpectDifferent("register class", [&](core::PipelineRun &R) {
    sir::Function &F = *Main(R);
    const sir::Reg Last(F.numRegs() - 1);
    F.setRegClass(Last, F.regClass(Last) == sir::RegClass::Fp
                            ? sir::RegClass::Int
                            : sir::RegClass::Fp);
  });
  ExpectDifferent("frame size", [&](core::PipelineRun &R) {
    Main(R)->setFrameWords(Main(R)->frameWords() + 1);
  });
  ExpectDifferent("globals", [&](core::PipelineRun &R) {
    R.Compiled->addGlobal("extra", 1, {7});
  });
  ExpectDifferent("architectural register", [&](core::PipelineRun &R) {
    std::vector<unsigned> &Arch = R.Alloc.Funcs.at(Main(R)).ArchIndex;
    ASSERT_GT(Arch.size(), 1u);
    Arch[1] ^= 1;
  });
  ExpectDifferent("timing applies", [&](core::PipelineRun &R) {
    R.Alloc.Errors.push_back("x");
  });
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
