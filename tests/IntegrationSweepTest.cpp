//===- tests/IntegrationSweepTest.cpp - Cross-cutting sweeps --------------===//

#include "core/Pipeline.h"
#include "regalloc/RegAlloc.h"
#include "sir/Parser.h"
#include "timing/Simulator.h"
#include "sir/Printer.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

using namespace fpint;
using namespace fpint::core;

namespace {

/// Every operand of every compiled workload maps to a valid
/// architectural register, and the three schemes agree on outputs.
TEST(IntegrationSweep, ArchMappingIsTotalAcrossSuite) {
  for (const std::string &Name : workloads::allWorkloadNames()) {
    workloads::Workload W = workloads::workloadByName(Name);
    PipelineConfig Cfg;
    Cfg.Scheme = partition::Scheme::Advanced;
    Cfg.TrainArgs = W.TrainArgs;
    Cfg.RefArgs = W.RefArgs;
    PipelineRun Run = compileAndMeasure(*W.M, Cfg);
    ASSERT_TRUE(Run.ok()) << Name;
    for (const auto &F : Run.Compiled->functions()) {
      F->forEachInstr([&](const sir::Instruction &I) {
        if (I.def().isValid()) {
          EXPECT_LT(Run.Alloc.archIndexOf(F.get(), I.def()),
                    regalloc::ArchLayout::FileSize)
              << Name << "/" << F->name();
        }
        I.forEachUse([&](sir::Reg R, sir::UseKind) {
          EXPECT_LT(Run.Alloc.archIndexOf(F.get(), R),
                    regalloc::ArchLayout::FileSize)
              << Name << "/" << F->name();
        });
      });
    }
  }
}

/// Simulated instruction counts equal functional dynamic counts for
/// every workload and scheme: the simulator loses or invents nothing.
TEST(IntegrationSweep, SimulatorConservesInstructions) {
  timing::MachineConfig Machine = timing::MachineConfig::fourWay();
  for (const std::string &Name : workloads::allWorkloadNames()) {
    workloads::Workload W = workloads::workloadByName(Name);
    for (int S = 0; S < 3; ++S) {
      PipelineConfig Cfg;
      Cfg.Scheme = static_cast<partition::Scheme>(S);
      Cfg.TrainArgs = W.TrainArgs;
      Cfg.RefArgs = W.RefArgs;
      PipelineRun Run = compileAndMeasure(*W.M, Cfg);
      ASSERT_TRUE(Run.ok()) << Name;
      timing::MachineConfig M = Machine;
      M.FpaEnabled = Cfg.Scheme != partition::Scheme::None;
      timing::SimStats Stats = simulate(Run, M);
      EXPECT_EQ(Stats.Instructions, Run.RefResult.Steps)
          << Name << "/" << partition::schemeName(Cfg.Scheme);
      EXPECT_EQ(Stats.IntIssued + Stats.FpIssued, Stats.Instructions)
          << Name;
    }
  }
}

/// The load-balance cap flows through the pipeline and reduces offload
/// monotonically.
TEST(IntegrationSweep, LoadBalanceCapMonotone) {
  workloads::Workload W = workloads::workloadByName("compress");
  double Prev = 1.0;
  for (double Cap : {1.0, 0.5, 0.3, 0.1}) {
    PipelineConfig Cfg;
    Cfg.Scheme = partition::Scheme::Advanced;
    Cfg.Costs.FpaShareCap = Cap;
    Cfg.TrainArgs = W.TrainArgs;
    Cfg.RefArgs = W.RefArgs;
    PipelineRun Run = compileAndMeasure(*W.M, Cfg);
    ASSERT_TRUE(Run.ok()) << "cap " << Cap;
    EXPECT_LE(Run.Stats.fpaFraction(), Prev + 1e-9) << "cap " << Cap;
    Prev = Run.Stats.fpaFraction();
  }
}

/// Instruction-cache capacity: a loop over >64KB of code misses every
/// iteration; a small loop stays resident.
TEST(IntegrationSweep, ICacheCapacityMisses) {
  auto Build = [](unsigned BodyOps) {
    std::string Src = "func main() {\nentry:\n  li %a, 1\n  li %i, 0\n"
                      "loop:\n";
    for (unsigned I = 0; I < BodyOps; ++I)
      Src += "  addi %a, %a, 1\n";
    Src += "  addi %i, %i, 1\n  slti %t, %i, 6\n  bne %t, %zero, loop\n"
           "  out %a\n  ret\n}\n";
    return Src;
  };
  auto Compile = [](const std::string &Src) {
    sir::ParseResult PR = sir::parseModule(Src);
    EXPECT_TRUE(PR.ok()) << PR.Error;
    PipelineConfig Cfg;
    Cfg.Scheme = partition::Scheme::None;
    Cfg.Passes = "profile,partition,regalloc"; // Keep the giant body intact.
    PipelineRun Run = compileAndMeasure(*PR.M, Cfg);
    EXPECT_TRUE(Run.ok());
    return Run;
  };
  timing::MachineConfig M = timing::MachineConfig::fourWay();
  M.FpaEnabled = false;

  PipelineRun Small = Compile(Build(64));
  // 20000 instructions * 4B = 80KB of code > 64KB I-cache.
  PipelineRun Huge = Compile(Build(20000));
  timing::SimStats SS = simulate(Small, M);
  timing::SimStats SH = simulate(Huge, M);

  // The small loop warms up once (a handful of compulsory misses).
  EXPECT_LT(SS.ICacheMisses, 20u);
  // The huge loop thrashes: misses on every iteration, well beyond its
  // compulsory set (80KB / 128B lines = 625 compulsory misses).
  EXPECT_GT(SH.ICacheMisses, 2000u);
}

/// Cross-scheme determinism: compiling the same workload twice yields
/// byte-identical code and identical measurements.
TEST(IntegrationSweep, CompilationIsDeterministic) {
  for (const char *Name : {"gcc", "perl"}) {
    workloads::Workload W1 = workloads::workloadByName(Name);
    workloads::Workload W2 = workloads::workloadByName(Name);
    PipelineConfig Cfg;
    Cfg.Scheme = partition::Scheme::Advanced;
    Cfg.TrainArgs = W1.TrainArgs;
    Cfg.RefArgs = W1.RefArgs;
    PipelineRun R1 = compileAndMeasure(*W1.M, Cfg);
    PipelineRun R2 = compileAndMeasure(*W2.M, Cfg);
    ASSERT_TRUE(R1.ok() && R2.ok()) << Name;
    EXPECT_EQ(sir::toString(*R1.Compiled), sir::toString(*R2.Compiled))
        << Name;
    EXPECT_EQ(R1.Stats.Total, R2.Stats.Total);
    EXPECT_EQ(R1.Stats.Fpa, R2.Stats.Fpa);
  }
}

} // namespace
