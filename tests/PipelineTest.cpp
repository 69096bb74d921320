//===- tests/PipelineTest.cpp - End-to-end core::Pipeline -----------------===//

#include "core/PassManager.h"
#include "core/Pipeline.h"
#include "sir/Parser.h"
#include "sir/Printer.h"
#include "support/Hash.h"
#include "testgen/Generator.h"
#include "testgen/Oracle.h"
#include "workloads/Workloads.h"

#include "PaperExamples.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <sstream>
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

/// Runs \p Cmd through the shell, stderr folded into \p Out, and
/// returns its exit status (-1 when it did not exit normally).
int runCommand(const std::string &Cmd, std::string &Out) {
  std::FILE *P = popen((Cmd + " 2>&1").c_str(), "r");
  if (!P)
    return -1;
  for (int C; (C = std::fgetc(P)) != EOF;)
    Out += static_cast<char>(C);
  const int Status = pclose(P);
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
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
  std::string Out;
  EXPECT_EQ(runCommand(FPINTC_PATH " @compress --passes=profile,partition"
                                   " --simulate=4way",
                       Out),
            1)
      << Out;
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

  // Costs the cost model cannot take are a partition error, never an
  // abort: o_dupl >= o_copy, and a NaN overhead.
  for (double Dup : {2.0, std::nan("")}) {
    PipelineConfig Bad;
    Bad.Costs.CopyOverhead = 1.0;
    Bad.Costs.DupOverhead = Dup;
    PipelineRun BadRun = compileAndMeasure(*M, Bad);
    EXPECT_FALSE(BadRun.ok());
    ASSERT_EQ(BadRun.Errors.size(), 1u) << Dup;
    EXPECT_EQ(BadRun.Errors[0].rfind("partition: ", 0), 0u) << BadRun.Errors[0];
    EXPECT_NE(BadRun.Errors[0].find("o_dupl < o_copy"), std::string::npos)
        << BadRun.Errors[0];
  }
}

TEST(Pipeline, FpintcBadCostsExitCleanly) {
  // A message and exit status 1, never an abort, whether the costs
  // reach the pass pipeline or the --dot dump.
  for (const char *Extra : {" --stats", " --dot=main"}) {
    std::string Out;
    EXPECT_EQ(runCommand(std::string(FPINTC_PATH) +
                             " @compress --ocopy=1 --odupl=2" + Extra,
                         Out),
              1)
        << Out;
    EXPECT_NE(Out.find("partition: cost parameters need o_dupl < o_copy"),
              std::string::npos)
        << Out;
  }
}

TEST(Pipeline, ToolsRejectMalformedNumbers) {
  // Each flag's value must be all number: a typo exits 2 naming the
  // flag instead of running with the digits before it, or with 0.
  const std::string Fuzz = FPINT_FUZZ_PATH " --quiet --no-timing";
  const std::pair<std::string, const char *> Cases[] = {
      {Fuzz + " --iters 5OO --seed 1", "--iters"},
      {Fuzz + " --iters abc --seed 1", "--iters"},
      {Fuzz + " --iters 1 --seed 0x1g", "--seed"},
      {Fuzz + " --one 12z", "--one"},
      {Fuzz + " --iters 1 --timeout-ms 10s", "--timeout-ms"},
      {Fuzz + " --iters 1 --batch -3", "--batch"},
      {FPINTC_PATH " @compress --ocopy=4x", "--ocopy"},
      {FPINTC_PATH " @compress --odupl=", "--odupl"},
      {FPINTC_PATH " @compress --fpa-cap=nan", "--fpa-cap"},
      {FPINTC_PATH " @compress --trace=1e3", "--trace"},
      {FPINT_REPORT_PATH " --tolerance=0.1% a b", "--tolerance"},
  };
  for (const auto &[Cmd, Flag] : Cases) {
    std::string Out;
    EXPECT_EQ(runCommand(Cmd, Out), 2) << Cmd << "\n" << Out;
    EXPECT_NE(Out.find("bad value"), std::string::npos) << Out;
    EXPECT_NE(Out.find(Flag), std::string::npos) << Out;
  }
  // Seeds still read hex.
  std::string Out;
  EXPECT_EQ(runCommand(Fuzz + " --iters 1 --seed 0x10 --no-sandbox", Out), 0)
      << Out;
}

//===----------------------------------------------------------------------===//
// CompileMemo: a memoised compile must equal a lone one.
//===----------------------------------------------------------------------===//

/// Everything a caller can observe of a compile, as text, so a failing
/// comparison prints the difference.
std::string describe(const PipelineRun &R) {
  std::ostringstream OS;
  OS << (R.Compiled ? sir::toString(*R.Compiled) : "<no module>\n");
  for (const std::string &E : R.Errors)
    OS << "error: " << E << "\n";
  const vm::VM::Result &Ref = R.RefResult;
  OS << "ref: ok " << Ref.Ok << " steps " << Ref.Steps << " exit "
     << Ref.ExitValue << " trap " << vm::trapKindName(Ref.Trap.Kind)
     << " out";
  for (int32_t V : Ref.Output)
    OS << " " << V;
  OS << "\nmatch " << R.OutputsMatchOriginal << " allocated " << R.Allocated
     << "\n";
  const partition::DynStats &S = R.Stats;
  OS << "stats: " << S.Total << " " << S.Fpa << " " << S.NativeFp << " "
     << S.Copies << " " << S.Dups << " " << S.CopyBacks << " " << S.Loads
     << " " << S.Stores << "\n";
  unsigned Added = 0;
  for (const auto &KV : R.Rewrite.Reports)
    Added += KV.second.staticAdded();
  OS << "rewrite: " << R.Rewrite.StaticCopies << " " << R.Rewrite.StaticDups
     << " " << R.Rewrite.StaticCopyBacks << " reports "
     << R.Rewrite.Reports.size() << " added " << Added << "\n";
  OS << "fpargs: " << R.FpArgs.ArgsConverted << " "
     << R.FpArgs.EntryCopiesRemoved << " " << R.FpArgs.CopyBacksRemoved
     << "\n";
  const regalloc::ModuleAlloc &A = R.Alloc;
  OS << "alloc: " << A.Funcs.size() << " " << A.totalSpilledIntervals() << " "
     << A.totalSpillSlots() << " " << A.totalSpillLoads() << " "
     << A.totalSpillStores() << " " << A.totalCalleeSaveStores() << " "
     << A.totalCalleeSaveRestores() << " errors " << A.Errors.size() << "\n";
  OS << "passes:";
  for (const PassStat &P : R.PassStats)
    OS << " " << P.Name << "=" << P.Changes;
  OS << "\n";
  return OS.str();
}

/// The fuzz oracle's full battery (default + mid-end) on \p Train/\p Ref.
std::vector<PipelineConfig> batteryConfigs(const std::vector<int32_t> &Train,
                                           const std::vector<int32_t> &Ref) {
  std::vector<testgen::VariantSpec> Variants = testgen::defaultVariants();
  for (testgen::VariantSpec &V : testgen::midendVariants())
    Variants.push_back(std::move(V));
  std::vector<PipelineConfig> Configs;
  for (const testgen::VariantSpec &V : Variants) {
    PipelineConfig C = V.Config;
    C.TrainArgs = Train;
    C.RefArgs = Ref;
    Configs.push_back(C);
  }
  return Configs;
}

/// Compiles \p M under every config through one memo and alone, and
/// expects the two to agree.
void expectMemoMatchesLone(const sir::Module &M,
                           const std::vector<PipelineConfig> &Configs) {
  CompileMemo Memo(M, Configs);
  for (size_t I = 0; I < Configs.size(); ++I) {
    SCOPED_TRACE("variant " + std::to_string(I) + " '" + Configs[I].Passes +
                 "'");
    PipelineRun Memoised = compileAndMeasure(M, Configs[I], &Memo);
    PipelineRun Lone = compileAndMeasure(M, Configs[I]);
    EXPECT_EQ(describe(Memoised), describe(Lone));
  }
}

TEST(Pipeline, PrefixMemoMatchesFromScratch) {
  for (const std::string &Name : workloads::allWorkloadNames()) {
    SCOPED_TRACE(Name);
    workloads::Workload W = workloads::workloadByName(Name);
    expectMemoMatchesLone(*W.M, batteryConfigs(W.TrainArgs, W.RefArgs));
  }
  for (const std::string &Preset : testgen::presetNames()) {
    testgen::GenConfig Gen = testgen::presetConfig(Preset);
    for (uint64_t It = 0; It < 30; ++It) {
      const uint64_t Seed = testgen::moduleSeed(1, It);
      SCOPED_TRACE(Preset + " seed " + std::to_string(Seed));
      auto M = testgen::generateModule(Gen, Seed);
      expectMemoMatchesLone(*M, batteryConfigs({}, {}));
    }
  }
}

/// Compiles \p M under every config through a memo seeded with the
/// fuzz oracle's baseline run (its 20M-step budget) and through an
/// unseeded one, and expects the two to agree.
void expectSeededMemoMatchesUnseeded(const sir::Module &M,
                                     const std::vector<int32_t> &Args) {
  vm::VM::Options Budget;
  Budget.MaxSteps = testgen::OracleOptions().BaselineMaxSteps;
  const vm::VM::Result Baseline = vm::runModule(M, Args, Budget);
  ASSERT_TRUE(Baseline.Ok || vm::isDeterministicTrap(Baseline.Trap.Kind))
      << Baseline.Error;
  std::vector<PipelineConfig> Configs = batteryConfigs(Args, Args);
  CompileMemo Seeded(M, Configs), Unseeded(M, Configs);
  Seeded.seedOriginalRun(Args, Baseline);
  for (size_t I = 0; I < Configs.size(); ++I) {
    SCOPED_TRACE("variant " + std::to_string(I) + " '" + Configs[I].Passes +
                 "'");
    PipelineRun A = compileAndMeasure(M, Configs[I], &Seeded);
    PipelineRun B = compileAndMeasure(M, Configs[I], &Unseeded);
    EXPECT_EQ(A.RefResult.Error, B.RefResult.Error);
    EXPECT_EQ(describe(A), describe(B));
  }
}

TEST(Pipeline, SeededOriginalRunMatchesUnseeded) {
  // Traps after some output: every variant must reproduce the trap.
  auto Trapping = parseOrDie(R"(
func main() {
entry:
  li %a, 7
  out %a
  li %p, -4096
  lw %v, 0(%p)
  out %v
  ret
}
)");
  {
    SCOPED_TRACE("trapping module");
    ASSERT_EQ(vm::runModule(*Trapping).Trap.Kind, vm::TrapKind::OobLoad);
    expectSeededMemoMatchesUnseeded(*Trapping, {});
  }
  for (const std::string &Preset : testgen::presetNames()) {
    testgen::GenConfig Gen = testgen::presetConfig(Preset);
    for (uint64_t It = 0; It < 30; ++It) {
      const uint64_t Seed = testgen::moduleSeed(1, It);
      SCOPED_TRACE(Preset + " seed " + std::to_string(Seed));
      expectSeededMemoMatchesUnseeded(*testgen::generateModule(Gen, Seed), {});
    }
  }
}

/// Digest of what the pipeline emits for \p Variants: the printed
/// compiled module and the errors of every variant of the first 20
/// seed-1 modules of every generator preset.
static std::string batteryOutputDigest(
    const std::vector<testgen::VariantSpec> &Variants) {
  uint64_t H = support::fnv1a64("");
  for (const std::string &Preset : testgen::presetNames()) {
    testgen::GenConfig Gen = testgen::presetConfig(Preset);
    for (uint64_t It = 0; It < 20; ++It) {
      auto M = testgen::generateModule(Gen, testgen::moduleSeed(1, It));
      for (const testgen::VariantSpec &V : Variants) {
        PipelineRun Run = compileAndMeasure(*M, V.Config);
        H = support::fnv1a64(sir::toString(*Run.Compiled), H);
        for (const std::string &E : Run.Errors)
          H = support::fnv1a64(E, H);
      }
    }
  }
  return support::hex64(H);
}

TEST(Pipeline, DefaultBatteryOutputIsPinned) {
  // The fuzz oracle's default battery. A change to any analysis
  // result, partition or allocation moves this digest. It was computed
  // before liveness and reaching definitions moved to word bitsets and
  // id-indexed tables, which must not change it. It was re-pinned when
  // the generator's step cap changed `calls` module 11; over the other
  // modules the digest did not move.
  EXPECT_EQ(batteryOutputDigest(testgen::defaultVariants()),
            "eac63be31cb472b3");
  // The mid-end battery (`fpint-fuzz --midend`), which alone runs
  // licm and inline. Pinned before LICM stopped sharing cached
  // analyses across its hoisting rounds.
  EXPECT_EQ(batteryOutputDigest(testgen::midendVariants()),
            "5df2c40a4e0c19e8");
}

TEST(Pipeline, PrefixMemoRunsShareNoIR) {
  auto M = parseOrDie(fixtures::InvalidateForCall);
  std::vector<PipelineConfig> Configs = batteryConfigs({}, {});
  std::vector<std::string> Lone;
  for (const PipelineConfig &C : Configs)
    Lone.push_back(sir::toString(*compileAndMeasure(*M, C).Compiled));

  // Vandalise each run's module as soon as it is compiled: a sibling
  // that resumes from a shared prefix must not see it, and no later
  // compile may touch an earlier run's module.
  CompileMemo Memo(*M, Configs);
  std::vector<PipelineRun> Runs;
  std::vector<std::string> Vandalised;
  for (size_t I = 0; I < Configs.size(); ++I) {
    Runs.push_back(compileAndMeasure(*M, Configs[I], &Memo));
    sir::Module &Out = *Runs.back().Compiled;
    EXPECT_EQ(sir::toString(Out), Lone[I]) << "variant " << I;
    for (const auto &F : Out.functions())
      for (const auto &BB : F->blocks())
        for (const auto &Instr : BB->instructions()) {
          Instr->setImm(Instr->imm() + 1);
          Instr->setInFpa(!Instr->inFpa());
        }
    Vandalised.push_back(sir::toString(Out));
  }
  for (size_t I = 0; I < Runs.size(); ++I)
    EXPECT_EQ(sir::toString(*Runs[I].Compiled), Vandalised[I]) << I;
}

TEST(Pipeline, PrefixMemoSharesATrainingFailure) {
  // Every variant profiles this module first; the failed training run
  // a shared profile prefix records must reach each of them.
  auto M = parseOrDie(R"(
func main(%n) {
entry:
  call %r, main(%n)
  out %r
  ret
}
)");
  std::vector<PipelineConfig> Configs = batteryConfigs({1}, {1});
  CompileMemo Memo(*M, Configs);
  for (const PipelineConfig &C : Configs) {
    PipelineRun Memoised = compileAndMeasure(*M, C, &Memo);
    PipelineRun Lone = compileAndMeasure(*M, C);
    ASSERT_FALSE(Lone.Errors.empty());
    EXPECT_NE(Lone.Errors[0].find("training run failed"), std::string::npos);
    EXPECT_EQ(Memoised.Errors, Lone.Errors) << C.Passes;
    EXPECT_EQ(describe(Memoised), describe(Lone));
  }
}

/// Counts its runs in a counter it is given; reads no config field,
/// so its prefix key is the passes before it.
class CountingPass : public ModulePass {
public:
  CountingPass(const char *Name, unsigned &Runs) : Name(Name), Runs(Runs) {}
  std::string name() const override { return Name; }
  unsigned run(sir::Module &, PassState &) override {
    ++Runs;
    return 0;
  }

private:
  const char *Name;
  unsigned &Runs;
};

TEST(Pipeline, PrefixMemoRunsEachSharedPrefixOnce) {
  // Early runs before partition, Late after it.
  static unsigned Early = 0, Late = 0;
  PassRegistry::global().registerPass("test-count", [] {
    return std::make_unique<CountingPass>("test-count", Early);
  });
  PassRegistry::global().registerPass("test-count-late", [] {
    return std::make_unique<CountingPass>("test-count-late", Late);
  });
  auto M = parseOrDie(R"(
func main(%n) {
entry:
  li %s, 0
loop:
  sll %t, %n, 2
  add %s, %s, %t
  addi %n, %n, -1
  bgtz %n, loop
  out %s
  ret
}
)");
  auto Config = [](partition::Scheme S, int32_t Train, const char *Passes) {
    PipelineConfig C;
    C.Scheme = S;
    C.TrainArgs = {Train};
    C.RefArgs = {7};
    C.Passes = Passes;
    return C;
  };
  const char *Text = "profile,test-count,partition,test-count-late,regalloc";
  PipelineConfig OtherCosts = Config(partition::Scheme::Advanced, 5, Text);
  OtherCosts.Costs.CopyOverhead = 5.0;
  std::vector<PipelineConfig> Configs = {
      Config(partition::Scheme::Basic, 5, Text),
      Config(partition::Scheme::Advanced, 5, Text),
      Config(partition::Scheme::Advanced, 5,
             "profile,test-count,partition,test-count-late,fp-arg-passing,"
             "regalloc"),
      // Another training input is another profile: its prefix differs.
      Config(partition::Scheme::Advanced, 6, Text),
      // A repeat resumes after its last pass, allocation included.
      Config(partition::Scheme::Basic, 5, Text),
      // Other costs are another partition, but the same profile.
      OtherCosts,
  };

  Early = Late = 0;
  std::vector<std::string> Lone;
  for (const PipelineConfig &C : Configs)
    Lone.push_back(describe(compileAndMeasure(*M, C)));
  EXPECT_EQ(Early, 6u) << "a lone compile runs every pass";
  EXPECT_EQ(Late, 6u);

  Early = Late = 0;
  CompileMemo Memo(*M, Configs);
  for (size_t I = 0; I < Configs.size(); ++I)
    EXPECT_EQ(describe(compileAndMeasure(*M, Configs[I], &Memo)), Lone[I]);
  EXPECT_EQ(Early, 2u);
  EXPECT_EQ(Late, 4u) << "basic, advanced, train 6 and the other costs";

  // A compile past the plan shares nothing.
  compileAndMeasure(*M, Configs[0], &Memo);
  EXPECT_EQ(Early, 3u);
  EXPECT_EQ(Late, 5u);
}

} // namespace
