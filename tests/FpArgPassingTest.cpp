//===- tests/FpArgPassingTest.cpp - Section 6.6 interprocedural extension -===//

#include "core/Pipeline.h"
#include "sir/Parser.h"
#include "sir/Printer.h"
#include "sir/Verifier.h"
#include "vm/VM.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace fpint;
using namespace fpint::core;

namespace {

// A hot FPa-computed value crosses a call boundary into a callee that
// also consumes it in FPa: without the extension this costs a
// cp_to_int at each call site plus a cp_to_fp at the callee entry.
const char *Convertible = R"(
global data 8 = 3 1 4 1 5 9 2 6
global acc 1

func fold(%v) {
entry:
  sll %a, %v, 1
  xor %b, %a, %v
  andi %c, %b, 1023
  sll %d, %c, 2
  sub %e, %d, %c
  lw %t, acc
  add %t2, %t, %e
  sw %t2, acc
  ret
}

func main() {
entry:
  li %i, 0
loop:
  sll %off, %i, 2
  la %p, data
  add %ea, %p, %off
  lw %x, 0(%ea)
  sll %h1, %x, 3
  sub %h2, %h1, %x
  xor %h3, %h2, %x
  addi %h4, %h3, 11
  sll %h5, %h4, 1
  xor %h6, %h5, %h4
  call fold(%h6)
  addi %i, %i, 1
  slti %t, %i, 8
  bne %t, %zero, loop
  lw %r, acc
  out %r
  ret
}
)";

/// The default pipeline with the Section 6.6 extension added.
const char *const WithFpArgs = "opt,profile,partition,fp-arg-passing,regalloc";

PipelineRun runWith(const char *Src, bool Extension) {
  sir::ParseResult PR = sir::parseModule(Src);
  EXPECT_TRUE(PR.ok()) << PR.Error;
  PipelineConfig Cfg;
  Cfg.Scheme = partition::Scheme::Advanced;
  if (Extension)
    Cfg.Passes = WithFpArgs;
  PipelineRun Run = compileAndMeasure(*PR.M, Cfg);
  EXPECT_TRUE(Run.ok()) << (Run.Errors.empty() ? "output mismatch"
                                               : Run.Errors[0]);
  return Run;
}

TEST(FpArgPassing, ConvertsCopyRoundTrips) {
  PipelineRun Base = runWith(Convertible, false);
  PipelineRun Ext = runWith(Convertible, true);

  // The baseline pays call-boundary copies (if the h-chain offloaded).
  if (Base.Stats.CopyBacks == 0)
    GTEST_SKIP() << "partitioner kept the argument chain in INT";

  EXPECT_GT(Ext.FpArgs.ArgsConverted, 0u);
  EXPECT_GT(Ext.FpArgs.EntryCopiesRemoved, 0u);
  // The extension strictly reduces copy traffic.
  EXPECT_LT(Ext.Stats.CopyBacks + Ext.Stats.Copies,
            Base.Stats.CopyBacks + Base.Stats.Copies);
  // And both versions compute the same outputs as the original.
  EXPECT_TRUE(Ext.OutputsMatchOriginal);

  // The callee's formal now lives in the FP file.
  const sir::Function *Fold = Ext.Compiled->functionByName("fold");
  ASSERT_EQ(Fold->formals().size(), 1u);
  EXPECT_EQ(Fold->regClass(Fold->formals()[0]), sir::RegClass::Fp);
}

TEST(FpArgPassing, MixedCallSitesBlockConversion) {
  // A second call site passes a plain integer: the slot must stay in
  // the integer convention.
  std::string Src = std::string(Convertible);
  Src.insert(Src.find("  lw %r, acc"), "  li %plain, 5\n  call "
                                       "fold(%plain)\n");
  sir::ParseResult PR = sir::parseModule(Src);
  ASSERT_TRUE(PR.ok()) << PR.Error;
  PipelineConfig Cfg;
  Cfg.Scheme = partition::Scheme::Advanced;
  Cfg.Passes = WithFpArgs;
  PipelineRun Run = compileAndMeasure(*PR.M, Cfg);
  ASSERT_TRUE(Run.ok()) << (Run.Errors.empty() ? "?" : Run.Errors[0]);
  EXPECT_EQ(Run.FpArgs.ArgsConverted, 0u);
  const sir::Function *Fold = Run.Compiled->functionByName("fold");
  EXPECT_EQ(Fold->regClass(Fold->formals()[0]), sir::RegClass::Int);
}

TEST(FpArgPassing, SitesSharingOneCopyBack) {
  // Two sites in one caller pass the same argument register, so both
  // plans name the same copy-back: it must be erased once, not twice.
  std::string Src = std::string(Convertible);
  Src.insert(Src.find("  addi %i, %i, 1"), "  call fold(%h6)\n");
  PipelineRun Base = runWith(Src.c_str(), false);
  PipelineRun Ext = runWith(Src.c_str(), true);
  if (Base.Stats.CopyBacks == 0)
    GTEST_SKIP() << "partitioner kept the argument chain in INT";

  EXPECT_EQ(Ext.FpArgs.ArgsConverted, 1u);
  EXPECT_EQ(Ext.FpArgs.CopyBacksRemoved, 1u);
  EXPECT_TRUE(Ext.OutputsMatchOriginal);
  const sir::Function *Fold = Ext.Compiled->functionByName("fold");
  EXPECT_EQ(Fold->regClass(Fold->formals()[0]), sir::RegClass::Fp);
}

TEST(FpArgPassing, NoOpOnBasicAndConventional) {
  for (partition::Scheme S :
       {partition::Scheme::None, partition::Scheme::Basic}) {
    sir::ParseResult PR = sir::parseModule(Convertible);
    ASSERT_TRUE(PR.ok());
    PipelineConfig Cfg;
    Cfg.Scheme = S;
    Cfg.Passes = WithFpArgs; // No-op without an advanced partition.
    PipelineRun Run = compileAndMeasure(*PR.M, Cfg);
    ASSERT_TRUE(Run.ok());
    EXPECT_EQ(Run.FpArgs.ArgsConverted, 0u);
  }
}

TEST(FpArgPassing, WorksAcrossTheWorkloadSuite) {
  // The extension must never break equivalence, whatever it finds.
  for (const char *Name : {"li", "gcc", "compress"}) {
    workloads::Workload W = workloads::workloadByName(Name);
    PipelineConfig Cfg;
    Cfg.Scheme = partition::Scheme::Advanced;
    Cfg.Passes = WithFpArgs;
    Cfg.TrainArgs = W.TrainArgs;
    Cfg.RefArgs = W.RefArgs;
    PipelineRun Run = compileAndMeasure(*W.M, Cfg);
    EXPECT_TRUE(Run.ok()) << Name << ": "
                          << (Run.Errors.empty() ? "output mismatch"
                                                 : Run.Errors[0]);
  }
}

} // namespace
