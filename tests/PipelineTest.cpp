//===- tests/PipelineTest.cpp - End-to-end core::Pipeline -----------------===//

#include "core/Pipeline.h"
#include "sir/Parser.h"
#include "sir/Printer.h"

#include "PaperExamples.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <stdexcept>
#include <sys/wait.h>

using namespace fpint;
using namespace fpint::core;

namespace {

std::unique_ptr<sir::Module> parseOrDie(const char *Src) {
  sir::ParseResult PR = sir::parseModule(Src);
  EXPECT_TRUE(PR.ok()) << PR.Error;
  return std::move(PR.M);
}

TEST(Pipeline, OriginalModuleIsUntouched) {
  auto M = parseOrDie(fixtures::InvalidateForCall);
  std::string Before = sir::toString(*M);
  PipelineConfig Cfg;
  Cfg.Scheme = partition::Scheme::Advanced;
  PipelineRun Run = compileAndMeasure(*M, Cfg);
  ASSERT_TRUE(Run.ok());
  EXPECT_EQ(sir::toString(*M), Before);
  EXPECT_NE(Run.Compiled.get(), M.get());
}

TEST(Pipeline, SchemeNoneIsIdentityPlusAllocation) {
  auto M = parseOrDie(fixtures::IntVectorSum);
  PipelineConfig Cfg;
  Cfg.Scheme = partition::Scheme::None;
  PipelineRun Run = compileAndMeasure(*M, Cfg);
  ASSERT_TRUE(Run.ok());
  EXPECT_EQ(Run.Stats.Fpa, 0u);
  EXPECT_EQ(Run.Rewrite.StaticCopies, 0u);
  EXPECT_TRUE(Run.Compiled->functionByName("main")->isAllocated());
}

TEST(Pipeline, TrainingInputDiffersFromRef) {
  // Profiles from the training input must still produce correct code
  // for a different measurement input (the paper's methodology).
  const char *Src = R"(
global acc 1

func main(%n) {
entry:
  li %i, 0
loop:
  lw %a, acc
  xor %b, %a, %i
  sll %c, %b, 1
  srl %d, %c, 2
  add %e, %d, %a
  sw %e, acc
  addi %i, %i, 1
  slt %t, %i, %n
  bne %t, %zero, loop
  lw %r, acc
  out %r
  ret
}
)";
  auto M = parseOrDie(Src);
  PipelineConfig Cfg;
  Cfg.Scheme = partition::Scheme::Advanced;
  Cfg.TrainArgs = {10};
  Cfg.RefArgs = {5000};
  PipelineRun Run = compileAndMeasure(*M, Cfg);
  ASSERT_TRUE(Run.ok()) << (Run.Errors.empty() ? "?" : Run.Errors[0]);
  EXPECT_TRUE(Run.OutputsMatchOriginal);
}

TEST(Pipeline, PreservesDeterministicTrap) {
  // A deterministic trap (here: out-of-bounds load) is a semantic
  // property of the program. The pipeline must compile it anyway and
  // verify the compiled program traps the same way.
  const char *Src = R"(
func main(%n) {
entry:
  li %p, -100
  lw %v, 0(%p)
  out %v
  ret
}
)";
  auto M = parseOrDie(Src);
  PipelineConfig Cfg;
  Cfg.Scheme = partition::Scheme::Advanced;
  Cfg.TrainArgs = {1};
  Cfg.RefArgs = {1};
  PipelineRun Run = compileAndMeasure(*M, Cfg);
  ASSERT_TRUE(Run.ok()) << (Run.Errors.empty() ? "?" : Run.Errors[0]);
  EXPECT_FALSE(Run.RefResult.Ok);
  EXPECT_EQ(Run.RefResult.Trap.Kind, vm::TrapKind::OobLoad);
  EXPECT_TRUE(Run.OutputsMatchOriginal);
}

TEST(Pipeline, ReportsTrainingFailure) {
  // A resource trap (unbounded recursion -> call-depth guard) says
  // nothing about the program's semantics; the pipeline reports the
  // training run as failed instead of compiling from a junk profile.
  const char *Src = R"(
func main(%n) {
entry:
  call %r, main(%n)
  out %r
  ret
}
)";
  auto M = parseOrDie(Src);
  PipelineConfig Cfg;
  Cfg.TrainArgs = {1};
  Cfg.RefArgs = {1};
  PipelineRun Run = compileAndMeasure(*M, Cfg);
  EXPECT_FALSE(Run.ok());
  ASSERT_FALSE(Run.Errors.empty());
  EXPECT_NE(Run.Errors[0].find("training run failed"), std::string::npos);
}

TEST(Pipeline, SkippingAllocationKeepsVirtualRegisters) {
  auto M = parseOrDie(fixtures::IntVectorSum);
  PipelineConfig Cfg;
  Cfg.Scheme = partition::Scheme::Basic;
  Cfg.Passes = "opt,profile,partition";
  PipelineRun Run = compileAndMeasure(*M, Cfg);
  ASSERT_TRUE(Run.ok());
  EXPECT_FALSE(Run.Allocated);
  EXPECT_FALSE(Run.Compiled->functionByName("main")->isAllocated());
}

TEST(Pipeline, SimulatingUnallocatedCodeIsTypedError) {
  auto M = parseOrDie(fixtures::IntVectorSum);
  PipelineConfig Cfg;
  Cfg.Passes = "profile,partition";
  PipelineRun Run = compileAndMeasure(*M, Cfg);
  ASSERT_TRUE(Run.ok());
  EXPECT_THROW(simulate(Run, timing::MachineConfig::fourWay()),
               std::invalid_argument);
}

TEST(Pipeline, FpintcSimulateWithoutRegallocExitsCleanly) {
  // A message and exit status 1, never an abort.
  std::FILE *P = popen(FPINTC_PATH " @compress --passes=profile,partition"
                                   " --simulate=4way 2>&1",
                       "r");
  ASSERT_NE(P, nullptr);
  std::string Out;
  for (int C; (C = std::fgetc(P)) != EOF;)
    Out += static_cast<char>(C);
  const int Status = pclose(P);
  EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 1) << Out;
  EXPECT_NE(Out.find("register-allocated"), std::string::npos) << Out;
}

TEST(Pipeline, SpeedupHelper) {
  timing::SimStats A, B;
  A.Cycles = 1000;
  B.Cycles = 800;
  EXPECT_DOUBLE_EQ(speedup(A, B), 1.25);
  EXPECT_DOUBLE_EQ(speedup(B, A), 0.8);
}

TEST(Pipeline, SimulationIsDeterministic) {
  auto M = parseOrDie(fixtures::InvalidateForCall);
  PipelineConfig Cfg;
  Cfg.Scheme = partition::Scheme::Advanced;
  PipelineRun Run = compileAndMeasure(*M, Cfg);
  ASSERT_TRUE(Run.ok());
  timing::MachineConfig Machine = timing::MachineConfig::fourWay();
  timing::SimStats S1 = simulate(Run, Machine);
  timing::SimStats S2 = simulate(Run, Machine);
  EXPECT_EQ(S1.Cycles, S2.Cycles);
  EXPECT_EQ(S1.Instructions, S2.Instructions);
  EXPECT_EQ(S1.Mispredicts, S2.Mispredicts);
}

TEST(Pipeline, CostParamsFlowThrough) {
  auto M = parseOrDie(fixtures::InvalidateForCall);
  PipelineConfig Loose;
  Loose.Scheme = partition::Scheme::Advanced;
  Loose.Costs.CopyOverhead = 1.5;
  Loose.Costs.DupOverhead = 1.0;
  PipelineRun LooseRun = compileAndMeasure(*M, Loose);
  ASSERT_TRUE(LooseRun.ok());

  PipelineConfig Tight;
  Tight.Scheme = partition::Scheme::Advanced;
  Tight.Costs.CopyOverhead = 50.0;
  Tight.Costs.DupOverhead = 25.0;
  PipelineRun TightRun = compileAndMeasure(*M, Tight);
  ASSERT_TRUE(TightRun.ok());

  // Prohibitive communication costs must shrink the partition.
  EXPECT_LE(TightRun.Stats.fpaFraction(), LooseRun.Stats.fpaFraction());
  EXPECT_LE(TightRun.Stats.Copies + TightRun.Stats.Dups,
            LooseRun.Stats.Copies + LooseRun.Stats.Dups);
}

} // namespace
