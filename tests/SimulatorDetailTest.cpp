//===- tests/SimulatorDetailTest.cpp - Resource-limit behaviours ----------===//

#include "core/Pipeline.h"
#include "sir/Parser.h"
#include "timing/Simulator.h"

#include <gtest/gtest.h>

using namespace fpint;
using namespace fpint::core;
using namespace fpint::timing;

namespace {

PipelineRun compileSrc(const std::string &Src, partition::Scheme S) {
  sir::ParseResult PR = sir::parseModule(Src);
  EXPECT_TRUE(PR.ok()) << PR.Error;
  PipelineConfig Cfg;
  Cfg.Scheme = S;
  // These kernels probe the simulator with hand-shaped dependence
  // patterns; the optimizer would constant-fold them away.
  Cfg.Passes = "profile,partition,regalloc";
  PipelineRun Run = compileAndMeasure(*PR.M, Cfg);
  EXPECT_TRUE(Run.ok()) << (Run.Errors.empty() ? "?" : Run.Errors[0]);
  return Run;
}

/// Wide independent integer work: 16 parallel accumulator chains.
std::string wideKernel() {
  std::string Src = "func main() {\nentry:\n";
  for (int C = 0; C < 16; ++C)
    Src += "  li %a" + std::to_string(C) + ", " + std::to_string(C) + "\n";
  Src += "  li %i, 0\nloop:\n";
  for (int C = 0; C < 16; ++C)
    Src += "  addi %a" + std::to_string(C) + ", %a" + std::to_string(C) +
           ", 3\n";
  Src += "  addi %i, %i, 1\n  slti %t, %i, 200\n  bne %t, %zero, loop\n";
  for (int C = 0; C < 16; ++C)
    Src += "  out %a" + std::to_string(C) + "\n";
  Src += "  ret\n}\n";
  return Src;
}

TEST(SimulatorDetail, MoreIntUnitsHelpWideCode) {
  PipelineRun Run = compileSrc(wideKernel(), partition::Scheme::None);
  MachineConfig Two = MachineConfig::fourWay();
  Two.FpaEnabled = false;
  MachineConfig SixUnits = Two;
  SixUnits.IntUnits = 6;
  SixUnits.FetchWidth = SixUnits.DecodeWidth = SixUnits.RetireWidth = 8;
  SixUnits.IntWindow = 32;
  SixUnits.MaxInFlight = 64;
  SixUnits.IntPhysRegs = 96;
  SimStats S2 = simulate(Run, Two);
  SimStats S6 = simulate(Run, SixUnits);
  EXPECT_LT(S6.Cycles, S2.Cycles);
}

TEST(SimulatorDetail, PhysicalRegisterPressureStalls) {
  PipelineRun Run = compileSrc(wideKernel(), partition::Scheme::None);
  MachineConfig Normal = MachineConfig::fourWay();
  Normal.FpaEnabled = false;
  MachineConfig Starved = Normal;
  // 33 physical registers leave a single rename slot past the 32
  // architectural ones.
  Starved.IntPhysRegs = 33;
  SimStats SN = simulate(Run, Normal);
  SimStats SS = simulate(Run, Starved);
  EXPECT_GT(SS.Cycles, SN.Cycles);
  EXPECT_EQ(SS.Instructions, SN.Instructions);
}

TEST(SimulatorDetail, TinyWindowSerializes) {
  PipelineRun Run = compileSrc(wideKernel(), partition::Scheme::None);
  MachineConfig Normal = MachineConfig::fourWay();
  Normal.FpaEnabled = false;
  MachineConfig Tiny = Normal;
  Tiny.IntWindow = 2;
  SimStats SN = simulate(Run, Normal);
  SimStats ST = simulate(Run, Tiny);
  EXPECT_GT(ST.Cycles, SN.Cycles);
}

TEST(SimulatorDetail, LoadStorePortsGateMemoryTraffic) {
  std::string Src = R"(
global buf 64

func main() {
entry:
  li %i, 0
  la %b, buf
loop:
  sw %i, 0(%b)
  sw %i, 4(%b)
  sw %i, 8(%b)
  sw %i, 12(%b)
  addi %i, %i, 1
  slti %t, %i, 500
  bne %t, %zero, loop
  lw %o, buf
  out %o
  ret
}
)";
  PipelineRun Run = compileSrc(Src, partition::Scheme::None);
  // Give the machine enough ALUs that the load/store ports, not the
  // functional units, are the scarce resource.
  MachineConfig OnePort = MachineConfig::fourWay();
  OnePort.FpaEnabled = false;
  OnePort.IntUnits = 6;
  OnePort.FetchWidth = OnePort.DecodeWidth = OnePort.RetireWidth = 8;
  MachineConfig TwoPorts = OnePort;
  TwoPorts.LoadStorePorts = 2;
  SimStats S1 = simulate(Run, OnePort);
  SimStats S2 = simulate(Run, TwoPorts);
  EXPECT_GT(S1.Cycles, S2.Cycles);
}

TEST(SimulatorDetail, DividerIsUnpipelined) {
  // Independent divides: with one shared divider busy 12 cycles each,
  // throughput is ~12 cycles per divide even though they are
  // independent.
  std::string Src = "func main() {\nentry:\n  li %a, 1000000\n  li %b, "
                    "3\n";
  for (int I = 0; I < 100; ++I)
    Src += "  div %q" + std::to_string(I) + ", %a, %b\n";
  Src += "  out %q99\n  ret\n}\n";
  PipelineRun Run = compileSrc(Src, partition::Scheme::None);
  MachineConfig M = MachineConfig::fourWay();
  M.FpaEnabled = false;
  SimStats S = simulate(Run, M);
  // 100 divides on 2 INT units, each occupying its unit for 12 cycles:
  // at least ~600 cycles.
  EXPECT_GT(S.Cycles, 550u);
}

TEST(SimulatorDetail, LoadsWaitForPriorStoreAddresses) {
  // Table 1: "loads may execute when prior store addresses are known".
  // Two versions of the same loop: in Blocked, an independent load
  // follows a store whose address hangs off a slow multiply chain and
  // so must wait; in Free, the load precedes the store. The blocked
  // version must be measurably slower on an otherwise identical
  // machine.
  // The loaded value feeds the next iteration's slow store-address
  // chain, so when the load sits *behind* the store it inherits the
  // multiply latency every iteration; hoisted above the store it
  // issues immediately and the loop runs at dispatch pace.
  auto Build = [](bool StoreFirst) {
    std::string Store = "  sw %i, 0(%ea)\n";
    std::string Load = "  lw %v, 0(%o)\n";
    std::string Src = R"(
global buf 64
global other 4 = 77

func main() {
entry:
  li %i, 0
  li %v, 1
  la %b, buf
  la %o, other
loop:
  mul %slow1, %v, %v
  mul %slow2, %slow1, %v
  andi %off, %slow2, 63
  add %ea, %b, %off
)";
    Src += StoreFirst ? Store + Load : Load + Store;
    Src += R"(  addi %i, %i, 1
  slti %t, %i, 300
  bne %t, %zero, loop
  out %v
  ret
}
)";
    return Src;
  };
  MachineConfig M = MachineConfig::fourWay();
  M.FpaEnabled = false;
  PipelineRun Blocked = compileSrc(Build(true), partition::Scheme::None);
  PipelineRun Free = compileSrc(Build(false), partition::Scheme::None);
  SimStats SB = simulate(Blocked, M);
  SimStats SF = simulate(Free, M);
  EXPECT_GT(SB.Cycles, SF.Cycles + 1000)
      << "blocked=" << SB.Cycles << " free=" << SF.Cycles;
}

TEST(SimulatorDetail, FpaTrafficUsesFpWindowNotInt) {
  // A partitioned kernel's FPa instructions must not consume INT issue
  // slots: INT issue count equals the non-FPa instruction count.
  std::string Src = R"(
global g 4 = 3

func main() {
entry:
  li %i, 0
loop:
  lw %v, g
  addi %w, %v, 1
  sw %w, g
  addi %i, %i, 1
  slti %t, %i, 100
  bne %t, %zero, loop
  lw %o, g
  out %o
  ret
}
)";
  PipelineRun Run = compileSrc(Src, partition::Scheme::Basic);
  SimStats S = simulate(Run, MachineConfig::fourWay());
  EXPECT_GT(S.FpIssued, 0u);
  EXPECT_EQ(S.IntIssued + S.FpIssued, S.Instructions);
}

TEST(SimulatorDetail, EmptyTrace) {
  PipelineRun Run = compileSrc("func main() {\nentry:\n  ret\n}\n",
                               partition::Scheme::None);
  SimStats S = simulate(Run, MachineConfig::fourWay());
  EXPECT_EQ(S.Instructions, 1u); // Just the ret.
  EXPECT_GT(S.Cycles, 0u);
}

} // namespace
