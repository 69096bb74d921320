//===- tests/PassManagerTest.cpp - Pass framework tests -------------------===//
//
// Covers the pass-manager pipeline: pipeline-text parsing and
// round-tripping, per-pass telemetry, verify-each-pass attribution,
// the opt fixpoint cap telemetry, and -- most importantly -- that pipeline
// text compiles byte-identical code to the historical hard-coded flow
// for every combination of its stages.

#include "core/PassManager.h"
#include "core/Pipeline.h"
#include "opt/Passes.h"
#include "regalloc/RegAlloc.h"
#include "sir/Parser.h"
#include "sir/Printer.h"
#include "stats/Report.h"
#include "vm/VM.h"

#include "PaperExamples.h"

#include <gtest/gtest.h>

#include <cstdlib>

using namespace fpint;
using namespace fpint::core;

namespace {

std::unique_ptr<sir::Module> parse(const char *Src) {
  sir::ParseResult PR = sir::parseModule(Src);
  EXPECT_TRUE(PR.ok()) << PR.Error;
  return std::move(PR.M);
}

/// RAII environment variable setter.
struct ScopedEnv {
  ScopedEnv(const char *Name, const char *Value) : Name(Name) {
    setenv(Name, Value, 1);
  }
  ~ScopedEnv() { unsetenv(Name); }
  const char *Name;
};

//===----------------------------------------------------------------------===//
// Pipeline text.
//===----------------------------------------------------------------------===//

TEST(PipelineText, DefaultRoundTrips) {
  PassManager PM;
  std::string Error;
  ASSERT_TRUE(PM.parse(defaultPipelineText(), Error)) << Error;
  EXPECT_EQ(PM.text(), defaultPipelineText());
}

TEST(PipelineText, WhitespaceRoundTrips) {
  PassManager PM;
  std::string Error;
  ASSERT_TRUE(PM.parse("  opt ,profile,  partition ,\tregalloc ", Error))
      << Error;
  EXPECT_EQ(PM.text(), defaultPipelineText());

  // The round-tripped text parses back to the same shape.
  PassManager PM2;
  ASSERT_TRUE(PM2.parse(PM.text(), Error)) << Error;
  EXPECT_EQ(PM2.text(), PM.text());
}

TEST(PipelineText, RejectsUnknownAndMalformed) {
  std::vector<std::unique_ptr<ModulePass>> Out;
  std::string Error;
  EXPECT_FALSE(parsePipeline("opt,unheard-of-pass", Out, Error));
  EXPECT_NE(Error.find("unheard-of-pass"), std::string::npos) << Error;

  EXPECT_FALSE(parsePipeline("", Out, Error));
  EXPECT_FALSE(parsePipeline("opt,,profile", Out, Error));
  EXPECT_FALSE(parsePipeline("opt,", Out, Error));

  // Spellings of deleted passes fail by name, and a stale
  // $FPINT_PASSES naming one is a pipeline error on the run, never a
  // silent fall-back to the default text.
  auto M = parse(fixtures::IntVectorSum);
  for (const char *Gone :
       {"gvn", "unroll", "unroll<4>", "regalloc-linear", "fixpoint(dce)",
        "copy-prop", "const-fold", "cse", "dce", "verify"}) {
    const std::string Text =
        std::string("opt,") + Gone + ",profile,partition,regalloc";
    EXPECT_FALSE(parsePipeline(Text, Out, Error)) << Gone;
    EXPECT_NE(Error.find(Gone), std::string::npos) << Error;

    ScopedEnv Env("FPINT_PASSES", Text.c_str());
    PipelineRun Run = compileAndMeasure(*M, PipelineConfig());
    EXPECT_FALSE(Run.ok()) << Gone;
    EXPECT_EQ(Run.Config.Passes, Text);
    ASSERT_EQ(Run.Errors.size(), 1u) << Gone;
    EXPECT_EQ(Run.Errors[0].rfind("pipeline: ", 0), 0u) << Run.Errors[0];
    EXPECT_NE(Run.Errors[0].find(Gone), std::string::npos) << Run.Errors[0];
  }
}

TEST(PipelineText, EffectiveTextPrecedence) {
  PipelineConfig Config;
  EXPECT_STREQ(defaultPipelineText(), "opt,profile,partition,regalloc");
  EXPECT_EQ(effectivePipelineText(Config), defaultPipelineText());
  {
    ScopedEnv Env("FPINT_PASSES", "opt,profile,partition");
    EXPECT_EQ(effectivePipelineText(Config), "opt,profile,partition");
    Config.Passes = "profile,regalloc";
    EXPECT_EQ(effectivePipelineText(Config), "profile,regalloc");
  }
}

TEST(PipelineText, RunKeyStableForDefault) {
  // The key always carries the resolved text, so spelling out the
  // default keys the same as leaving it implicit, and any other text
  // keys separately.
  PipelineConfig Implicit;
  const std::string Key = runKey("w", Implicit);
  // Pinned: run ids and battery keys hash runKey text.
  EXPECT_EQ(Key,
            "w|2|0x1p+2|0x1.4p+1|0x1p+0|[]|[]|opt,profile,partition,regalloc");
  PipelineConfig Explicit;
  Explicit.Passes = defaultPipelineText();
  EXPECT_EQ(runKey("w", Explicit), Key);
  PipelineConfig Custom;
  Custom.Passes = "profile,partition,regalloc";
  EXPECT_NE(runKey("w", Custom), Key);
  // The key covers every config field: a cost and a pass list differ
  // from the default too.
  PipelineConfig Costs;
  Costs.Costs.CopyOverhead = 5.5;
  EXPECT_NE(runKey("w", Costs), Key);
  PipelineConfig FpArgs;
  FpArgs.Passes = "opt,profile,partition,fp-arg-passing,regalloc";
  EXPECT_NE(runKey("w", FpArgs), Key);
}

TEST(PipelineText, IdentityFollowsEnvOverride) {
  // An $FPINT_PASSES override compiles different code, so the run key,
  // the run id and the report must all name the text that ran.
  PipelineConfig Config;
  const timing::MachineConfig Machine = timing::MachineConfig::fourWay();
  const std::string Key = runKey("w", Config);
  const std::string Id = stats::runId("w", Config, Machine);
  EXPECT_EQ(stats::pipelineConfigToJson(Config).strOr("passes", ""),
            defaultPipelineText());
  ScopedEnv Env("FPINT_PASSES", "opt2");
  EXPECT_NE(runKey("w", Config), Key);
  EXPECT_NE(stats::runId("w", Config, Machine), Id);
  EXPECT_EQ(stats::pipelineConfigToJson(Config).strOr("passes", ""), "opt2");
}

//===----------------------------------------------------------------------===//
// Default pipeline == legacy flow (byte-identical compiled IR).
//===----------------------------------------------------------------------===//

/// Hand-rolled replica of the pre-pass-manager compile sequence.
std::string legacyCompile(const sir::Module &Original, partition::Scheme S,
                          bool Opt, bool FpArgs, bool RegAlloc) {
  std::unique_ptr<sir::Module> M = Original.clone();
  if (Opt)
    opt::optimizeModule(*M);
  vm::VM::Options ProfOpts;
  ProfOpts.CollectProfile = true;
  vm::VM Trainer(*M, ProfOpts);
  Trainer.run({});
  partition::ModuleRewrite RW = partition::partitionModule(
      *M, S, &Trainer.profile(), partition::CostParams());
  if (FpArgs && S == partition::Scheme::Advanced)
    partition::passArgsInFpRegisters(*M, RW);
  if (RegAlloc)
    regalloc::allocateModule(*M);
  return sir::toString(*M);
}

TEST(PassPipeline, DefaultMatchesLegacyFlow) {
  // Every (scheme, fpargs, opt, regalloc) flow, stated as pipeline text.
  const char *Sources[] = {fixtures::IntVectorSum,
                           fixtures::InvalidateForCall,
                           fixtures::MemoryFreeRand};
  const partition::Scheme Schemes[] = {partition::Scheme::None,
                                       partition::Scheme::Basic,
                                       partition::Scheme::Advanced};
  for (const char *Src : Sources) {
    auto M = parse(Src);
    for (partition::Scheme S : Schemes)
      for (bool FpArgs : {false, true})
        for (bool Opt : {false, true})
          for (bool RegAlloc : {false, true}) {
            PipelineConfig Config;
            Config.Scheme = S;
            Config.Passes = Opt ? "opt,profile,partition" : "profile,partition";
            if (FpArgs)
              Config.Passes += ",fp-arg-passing";
            if (RegAlloc)
              Config.Passes += ",regalloc";
            PipelineRun Run = compileAndMeasure(*M, Config);
            ASSERT_TRUE(Run.Errors.empty())
                << Run.Errors.front() << " text " << Config.Passes;
            EXPECT_EQ(Run.Allocated, RegAlloc);
            EXPECT_EQ(sir::toString(*Run.Compiled),
                      legacyCompile(*M, S, Opt, FpArgs, RegAlloc))
                << "scheme " << static_cast<int>(S) << " text "
                << Config.Passes;
          }
  }
}

TEST(PassPipeline, ExplicitDefaultTextMatchesImplicit) {
  auto M = parse(fixtures::InvalidateForCall);
  PipelineConfig Implicit;
  PipelineRun A = compileAndMeasure(*M, Implicit);
  PipelineConfig Explicit;
  Explicit.Passes = defaultPipelineText();
  PipelineRun B = compileAndMeasure(*M, Explicit);
  ASSERT_TRUE(A.ok());
  ASSERT_TRUE(B.ok());
  EXPECT_EQ(sir::toString(*A.Compiled), sir::toString(*B.Compiled));
}

TEST(PassPipeline, EnvOverrideIsHonored) {
  auto M = parse(fixtures::MemoryFreeRand);
  ScopedEnv Env("FPINT_PASSES", "profile,partition");
  PipelineConfig Config;
  PipelineRun Run = compileAndMeasure(*M, Config);
  ASSERT_TRUE(Run.ok()) << (Run.Errors.empty() ? "?" : Run.Errors[0]);
  ASSERT_EQ(Run.PassStats.size(), 2u);
  EXPECT_EQ(Run.PassStats[0].Name, "profile");
  EXPECT_EQ(Run.PassStats[1].Name, "partition");
}

TEST(PassPipeline, BadPipelineTextIsAnError) {
  auto M = parse(fixtures::MemoryFreeRand);
  PipelineConfig Config;
  Config.Passes = "opt,no-such-pass";
  PipelineRun Run = compileAndMeasure(*M, Config);
  ASSERT_FALSE(Run.ok());
  ASSERT_FALSE(Run.Errors.empty());
  EXPECT_NE(Run.Errors[0].find("pipeline:"), std::string::npos);
  EXPECT_NE(Run.Errors[0].find("no-such-pass"), std::string::npos);
}

TEST(PassPipeline, PerPassTelemetryIsRecorded) {
  auto M = parse(fixtures::InvalidateForCall);
  PipelineConfig Config; // Advanced scheme default.
  PipelineRun Run = compileAndMeasure(*M, Config);
  ASSERT_TRUE(Run.ok());
  ASSERT_EQ(Run.PassStats.size(), 4u);
  EXPECT_EQ(Run.PassStats[0].Name, "opt");
  EXPECT_EQ(Run.PassStats[2].Name, "partition");
  EXPECT_EQ(Run.PassStats[3].Name, "regalloc");
  // The partitioner rewrote at least one function, and regalloc
  // counts every function it lowered.
  EXPECT_GT(Run.PassStats[2].Changes, 0u);
  EXPECT_GT(Run.PassStats[3].Changes, 0u);
}

//===----------------------------------------------------------------------===//
// Verify-each-pass attribution.
//===----------------------------------------------------------------------===//

/// Deliberately corrupts the module: empties the final block of the
/// first function, so control falls off the end ("function may fall
/// off its final block").
class CorruptingPass : public ModulePass {
public:
  std::string name() const override { return "corrupt-for-test"; }
  unsigned run(sir::Module &M, PassState &) override {
    sir::Function &F = **M.functions().begin();
    F.blocks().back()->instructions().clear();
    return 1;
  }
};

TEST(VerifyEachPass, AttributesCorruptionToPass) {
  PassRegistry::global().registerPass(
      "corrupt-for-test", [] { return std::make_unique<CorruptingPass>(); });
  auto M = parse(fixtures::MemoryFreeRand);

  ScopedEnv Env("FPINT_VERIFY_EACH_PASS", "1");
  PipelineConfig Config;
  Config.Passes = "opt,corrupt-for-test,profile,partition,regalloc";
  PipelineRun Run = compileAndMeasure(*M, Config);
  ASSERT_FALSE(Run.ok());
  ASSERT_FALSE(Run.Errors.empty());
  EXPECT_NE(Run.Errors[0].find("verify after pass 'corrupt-for-test'"),
            std::string::npos)
      << Run.Errors[0];
  // The pipeline stopped at the corrupting pass: no later stages ran.
  ASSERT_EQ(Run.PassStats.size(), 2u);
  EXPECT_EQ(Run.PassStats.back().Name, "corrupt-for-test");
}

TEST(VerifyEachPass, CleanPipelineUnaffected) {
  auto M = parse(fixtures::IntVectorSum);
  ScopedEnv Env("FPINT_VERIFY_EACH_PASS", "1");
  PipelineConfig Config;
  PipelineRun Run = compileAndMeasure(*M, Config);
  EXPECT_TRUE(Run.ok()) << (Run.Errors.empty() ? "?" : Run.Errors[0]);
}

//===----------------------------------------------------------------------===//
// Fixpoint cap + telemetry.
//===----------------------------------------------------------------------===//

TEST(OptFixpoint, ReportsRoundsAndConvergence) {
  auto M = parse(fixtures::MemoryFreeRand);
  M->renumber();
  opt::OptReport R = opt::optimizeModule(*M);
  EXPECT_TRUE(R.converged());
  EXPECT_GE(R.TotalRounds, 1u);
  EXPECT_GE(R.MaxFunctionRounds, 1u);
  EXPECT_LE(R.MaxFunctionRounds, opt::OptOptions().MaxRounds);
}

/// A constant chain the optimizer has real work on: folding collapses
/// it to one li, DCE sweeps the leftovers, and a second round is
/// needed to prove the fixpoint.
const char *ConstChain = R"(
func main() {
entry:
  li %a, 6
  li %b, 7
  mul %c, %a, %b
  addi %d, %c, -2
  sll %e, %d, 1
  out %e
  ret
}
)";

TEST(OptFixpoint, CapCutsOffAndIsReported) {
  auto M = parse(ConstChain);
  M->renumber();
  opt::OptOptions Opts;
  Opts.MaxRounds = 1;
  opt::OptReport R = opt::optimizeModule(*M, Opts);
  EXPECT_EQ(R.MaxFunctionRounds, 1u);
  EXPECT_FALSE(R.converged());
  EXPECT_EQ(R.FunctionsHitCap, 1u);
}

} // namespace
