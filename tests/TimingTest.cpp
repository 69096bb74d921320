//===- tests/TimingTest.cpp - Caches, predictors, cycle simulator ---------===//

#include "core/Pipeline.h"
#include "sir/Parser.h"
#include "timing/BranchPredictor.h"
#include "timing/Cache.h"
#include "timing/MachineConfig.h"
#include "timing/Simulator.h"

#include "PaperExamples.h"

#include <gtest/gtest.h>

using namespace fpint;
using namespace fpint::timing;
using namespace fpint::core;

namespace {

//===----------------------------------------------------------------------===//
// Cache model
//===----------------------------------------------------------------------===//

TEST(Cache, HitsAfterFill) {
  CacheConfig Cfg{1024, 2, 32, 1, 6};
  Cache C(Cfg);
  EXPECT_EQ(C.access(0x100), 7u); // Compulsory miss.
  EXPECT_EQ(C.access(0x104), 1u); // Same line.
  EXPECT_EQ(C.access(0x11F), 1u);
  EXPECT_EQ(C.access(0x120), 7u); // Next line.
  EXPECT_EQ(C.misses(), 2u);
}

TEST(Cache, LruEviction) {
  // 2-way, 2 sets of 32B lines: lines mapping to set 0 are multiples of
  // 64. Three distinct such lines thrash a 2-way set.
  CacheConfig Cfg{128, 2, 32, 1, 6};
  Cache C(Cfg);
  C.access(0);   // miss
  C.access(64);  // miss
  EXPECT_EQ(C.access(0), 1u);   // hit (LRU now 64)
  C.access(128);                // miss, evicts 64
  EXPECT_EQ(C.access(0), 1u);   // still resident
  EXPECT_EQ(C.access(64), 7u);  // was evicted
}

TEST(Cache, WritebackCounting) {
  CacheConfig Cfg{128, 2, 32, 1, 6};
  Cache C(Cfg);
  C.access(0, true); // Dirty line.
  C.access(64);
  C.access(128);              // Evicts LRU = line 0 (dirty).
  EXPECT_EQ(C.writebacks(), 1u);
}

TEST(Cache, ProbeDoesNotMutate) {
  CacheConfig Cfg{128, 2, 32, 1, 6};
  Cache C(Cfg);
  EXPECT_FALSE(C.probe(0));
  C.access(0);
  EXPECT_TRUE(C.probe(0));
  EXPECT_EQ(C.misses(), 1u); // The probe did not fill the line.
}

TEST(Cache, ShiftIndexingAtEveryLineSize) {
  // A 4-set 2-way cache at each line size the simulator's machines use,
  // against a model that splits addresses by division.
  for (uint32_t LineBytes : {32u, 64u, 128u, 256u}) {
    const uint32_t Sets = 4, Ways = 2;
    CacheConfig Cfg{Sets * Ways * LineBytes, Ways, LineBytes, 1, 6};
    Cache C(Cfg);
    EXPECT_EQ(C.lineOf(LineBytes - 1), 0u) << LineBytes;
    EXPECT_EQ(C.lineOf(LineBytes), 1u) << LineBytes;
    EXPECT_EQ(C.access(0), 7u) << LineBytes;
    EXPECT_EQ(C.access(LineBytes - 1), 1u) << LineBytes;
    EXPECT_EQ(C.access(LineBytes), 7u) << LineBytes; // Next set.

    struct Way {
      uint32_t Tag = 0;
      uint64_t LastUse = 0;
      bool Valid = false, Dirty = false;
    };
    std::vector<Way> Model(Sets * Ways);
    uint64_t Tick = 0, Misses = 0, Writebacks = 0;
    auto ModelAccess = [&](uint32_t Addr, bool Write) {
      ++Tick;
      const uint32_t Line = Addr / LineBytes;
      const uint32_t Set = Line % Sets, Tag = Line / Sets;
      Way *Base = &Model[Set * Ways];
      for (uint32_t W = 0; W < Ways; ++W)
        if (Base[W].Valid && Base[W].Tag == Tag) {
          Base[W].LastUse = Tick;
          Base[W].Dirty |= Write;
          return 1u;
        }
      ++Misses;
      Way *Victim = Base;
      for (uint32_t W = 1; W < Ways; ++W)
        if (!Base[W].Valid ||
            (Victim->Valid && Base[W].LastUse < Victim->LastUse))
          Victim = &Base[W];
      if (Victim->Valid && Victim->Dirty)
        ++Writebacks;
      *Victim = Way{Tag, Tick, true, Write};
      return 7u;
    };
    ModelAccess(0, false);
    ModelAccess(LineBytes - 1, false);
    ModelAccess(LineBytes, false);

    uint32_t X = 12345;
    for (int K = 0; K < 4000; ++K) {
      X = X * 1103515245u + 12345u;
      // Addresses over four times the capacity, so sets thrash.
      const uint32_t Addr = (X >> 8) % (4 * Cfg.SizeBytes);
      const bool Write = (X >> 4) & 1;
      ASSERT_EQ(C.access(Addr, Write), ModelAccess(Addr, Write))
          << LineBytes << "-byte lines, access " << K;
    }
    EXPECT_EQ(C.misses(), Misses) << LineBytes;
    EXPECT_EQ(C.writebacks(), Writebacks) << LineBytes;
    EXPECT_GT(Writebacks, 0u) << LineBytes;
  }
}

//===----------------------------------------------------------------------===//
// Branch predictors
//===----------------------------------------------------------------------===//

TEST(BranchPredictor, GshareLearnsLoopPattern) {
  GsharePredictor P;
  // A loop branch: taken 15 times, not-taken once, repeated.
  unsigned Correct = 0, Total = 0;
  for (int Rep = 0; Rep < 40; ++Rep)
    for (int I = 0; I < 16; ++I) {
      bool Taken = I != 15;
      Correct += P.predictAndUpdate(0x4000, Taken);
      ++Total;
    }
  // After warmup, gshare's history disambiguates the exit iteration.
  EXPECT_GT(static_cast<double>(Correct) / Total, 0.95);
}

TEST(BranchPredictor, GshareBeatsStaticOnAlternating) {
  GsharePredictor G;
  StaticNotTakenPredictor S;
  unsigned GCorrect = 0, SCorrect = 0;
  for (int I = 0; I < 2000; ++I) {
    bool Taken = (I % 2) == 0;
    GCorrect += G.predictAndUpdate(0x1234, Taken);
    SCorrect += S.predictAndUpdate(0x1234, Taken);
  }
  EXPECT_GT(GCorrect, SCorrect);
  EXPECT_GT(G.accuracy(), 0.95);
}

TEST(BranchPredictor, McFarlingAtLeastMatchesComponentsOnMixed) {
  McFarlingPredictor M;
  unsigned Correct = 0, Total = 0;
  // Two branches: one strongly biased, one history-correlated.
  bool Last = false;
  for (int I = 0; I < 4000; ++I) {
    Correct += M.predictAndUpdate(0x100, true); // Always taken.
    ++Total;
    bool T = !Last;
    Correct += M.predictAndUpdate(0x200, T);
    Last = T;
    ++Total;
  }
  EXPECT_GT(static_cast<double>(Correct) / Total, 0.95);
}

TEST(BranchPredictor, TwoBitCounterSaturates) {
  uint8_t C = 0;
  C = counterUpdate(C, true);
  C = counterUpdate(C, true);
  C = counterUpdate(C, true);
  C = counterUpdate(C, true);
  EXPECT_EQ(C, 3);
  EXPECT_TRUE(counterPredict(C));
  C = counterUpdate(C, false);
  EXPECT_TRUE(counterPredict(C)); // Hysteresis.
  C = counterUpdate(C, false);
  EXPECT_FALSE(counterPredict(C));
}

//===----------------------------------------------------------------------===//
// Simulator behavior
//===----------------------------------------------------------------------===//

PipelineRun compileSrc(const char *Src, partition::Scheme S) {
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

TEST(Simulator, IndependentOpsReachIssueWidth) {
  // Long stretches of independent 1-cycle integer ops: IPC should
  // approach the 2-unit INT issue limit on the 4-way machine.
  std::string Src = "func main() {\nentry:\n  li %a, 1\n  li %b, 2\n";
  for (int I = 0; I < 400; ++I)
    Src += "  add %x" + std::to_string(I) + ", %a, %b\n";
  Src += "  out %a\n  ret\n}\n";
  PipelineRun Run = compileSrc(Src.c_str(), partition::Scheme::None);
  SimStats St = simulate(Run, MachineConfig::fourWay());
  EXPECT_GT(St.ipc(), 1.6);
  EXPECT_LE(St.ipc(), 2.3);
}

TEST(Simulator, DependentChainSerializes) {
  std::string Src = "func main() {\nentry:\n  li %a, 1\n";
  for (int I = 0; I < 400; ++I)
    Src += "  addi %a, %a, 1\n";
  Src += "  out %a\n  ret\n}\n";
  PipelineRun Run = compileSrc(Src.c_str(), partition::Scheme::None);
  SimStats St = simulate(Run, MachineConfig::fourWay());
  EXPECT_LT(St.ipc(), 1.2);
  EXPECT_GT(St.ipc(), 0.8);
}

TEST(Simulator, MultipliesAreSlowerThanAdds) {
  auto Build = [](const char *Op) {
    std::string Src = "func main() {\nentry:\n  li %a, 3\n";
    for (int I = 0; I < 300; ++I)
      Src += std::string("  ") + Op + " %a, %a, %a\n";
    Src += "  out %a\n  ret\n}\n";
    return Src;
  };
  PipelineRun AddRun = compileSrc(Build("add").c_str(),
                                  partition::Scheme::None);
  PipelineRun MulRun = compileSrc(Build("mul").c_str(),
                                  partition::Scheme::None);
  SimStats AddStats = simulate(AddRun, MachineConfig::fourWay());
  SimStats MulStats = simulate(MulRun, MachineConfig::fourWay());
  // A dependent multiply chain pays ~6 cycles per op.
  EXPECT_GT(MulStats.Cycles, AddStats.Cycles * 4);
}

TEST(Simulator, MispredictionsCostCycles) {
  // Data-dependent branme on pseudo-random bits vs. an always-taken
  // pattern of the same instruction count.
  const char *Random = R"(
func main() {
entry:
  li %seed, 987
  li %i, 0
  li %acc, 0
loop:
  sll %a, %seed, 13
  xor %b, %seed, %a
  srl %c, %b, 17
  xor %d, %b, %c
  sll %e, %d, 5
  xor %seed, %d, %e
  andi %bit, %seed, 1
  beq %bit, %zero, skip
  addi %acc, %acc, 1
skip:
  addi %i, %i, 1
  slti %t, %i, 3000
  bne %t, %zero, loop
  out %acc
  ret
}
)";
  const char *Biased = R"(
func main() {
entry:
  li %seed, 987
  li %i, 0
  li %acc, 0
loop:
  sll %a, %seed, 13
  xor %b, %seed, %a
  srl %c, %b, 17
  xor %d, %b, %c
  sll %e, %d, 5
  xor %seed, %d, %e
  andi %bit, %seed, 0
  beq %bit, %zero, skip
  addi %acc, %acc, 1
skip:
  addi %i, %i, 1
  slti %t, %i, 3000
  bne %t, %zero, loop
  out %acc
  ret
}
)";
  PipelineRun RandomRun = compileSrc(Random, partition::Scheme::None);
  PipelineRun BiasedRun = compileSrc(Biased, partition::Scheme::None);
  SimStats RandomStats = simulate(RandomRun, MachineConfig::fourWay());
  SimStats BiasedStats = simulate(BiasedRun, MachineConfig::fourWay());
  EXPECT_GT(RandomStats.Mispredicts, BiasedStats.Mispredicts * 5);
  EXPECT_GT(RandomStats.Cycles, BiasedStats.Cycles);
  EXPECT_LT(BiasedStats.branchAccuracy(), 1.01);
  EXPECT_GT(BiasedStats.branchAccuracy(), 0.98);
}

TEST(Simulator, CacheMissesCostCycles) {
  // A pointer chase keeps the load on the critical path. The cold ring
  // spans 64KB (> 32KB D-cache, new 32B line each hop); the hot ring
  // fits in a few lines.
  auto Build = [](int RingEntries) {
    std::string Src = "global ring 16384\nfunc main() {\nentry:\n"
                      "  la %base, ring\n  li %i, 0\n";
    // ring[j*16] = byte offset of the next entry (64B stride).
    Src += "init:\n  sll %off, %i, 6\n  add %ea, %base, %off\n"
           "  addi %i1, %i, 1\n";
    Src += "  andi %iw, %i1, " + std::to_string(RingEntries - 1) + "\n";
    Src += "  sll %noff, %iw, 6\n  sw %noff, 0(%ea)\n  move %i, %i1\n";
    Src += "  slti %t, %i, " + std::to_string(RingEntries) + "\n";
    Src += "  bne %t, %zero, init\n";
    Src += "  li %cur, 0\n  li %n, 0\nchase:\n"
           "  add %p, %base, %cur\n  lw %cur, 0(%p)\n"
           "  addi %n, %n, 1\n  slti %c, %n, 2000\n  bne %c, %zero, chase\n"
           "  out %cur\n  ret\n}\n";
    return Src;
  };
  PipelineRun HotRun = compileSrc(Build(4).c_str(), partition::Scheme::None);
  PipelineRun ColdRun =
      compileSrc(Build(1024).c_str(), partition::Scheme::None);
  SimStats Hot = simulate(HotRun, MachineConfig::fourWay());
  SimStats Cold = simulate(ColdRun, MachineConfig::fourWay());
  EXPECT_GT(Cold.DCacheMisses, Hot.DCacheMisses + 1000);
  EXPECT_GT(Cold.Cycles, Hot.Cycles + 5000);
}

TEST(Simulator, StoreForwardingHappens) {
  const char *Src = R"(
global slot 1

func main() {
entry:
  li %i, 0
loop:
  sw %i, slot
  lw %v, slot
  addi %i, %v, 1
  slti %t, %i, 500
  bne %t, %zero, loop
  out %i
  ret
}
)";
  PipelineRun Run = compileSrc(Src, partition::Scheme::None);
  SimStats St = simulate(Run, MachineConfig::fourWay());
  EXPECT_GT(St.StoreForwards, 100u);
}

TEST(Simulator, EightWayNotSlowerThanFourWay) {
  PipelineRun Run =
      compileSrc(fixtures::InvalidateForCall, partition::Scheme::None);
  SimStats Four = simulate(Run, MachineConfig::fourWay());
  SimStats Eight = simulate(Run, MachineConfig::eightWay());
  EXPECT_LE(Eight.Cycles, Four.Cycles);
  EXPECT_EQ(Eight.Instructions, Four.Instructions);
}

TEST(Simulator, InstructionCountMatchesTrace) {
  PipelineRun Run =
      compileSrc(fixtures::IntVectorSum, partition::Scheme::None);
  vm::VM::Options Opts;
  Opts.CollectTrace = true;
  vm::VM Machine(*Run.Compiled, Opts);
  auto R = Machine.run();
  ASSERT_TRUE(R.Ok);
  Simulator Sim(MachineConfig::fourWay(), Run.Alloc);
  SimStats St = Sim.run(Machine.trace());
  EXPECT_EQ(St.Instructions, Machine.trace().size());
  EXPECT_GT(St.Cycles, 0u);
}

//===----------------------------------------------------------------------===//
// The headline effect: offloading speeds up integer code.
//===----------------------------------------------------------------------===//

TEST(Simulator, PartitionedCodeUsesTheFpSubsystem) {
  PipelineRun Conv =
      compileSrc(fixtures::InvalidateForCall, partition::Scheme::None);
  PipelineRun Adv =
      compileSrc(fixtures::InvalidateForCall, partition::Scheme::Advanced);
  SimStats ConvStats = simulate(Conv, MachineConfig::fourWay());
  SimStats AdvStats = simulate(Adv, MachineConfig::fourWay());

  EXPECT_EQ(ConvStats.FpIssued, 0u);
  EXPECT_GT(AdvStats.FpIssued, 0u);
}

TEST(Simulator, OffloadingImprovesIntBoundKernel) {
  // A kernel with more integer ILP than 2 INT units can absorb, split
  // between an address-bound chain and an offloadable value chain.
  const char *Src = R"(
global src 256
global dst 256

func main(%n) {
entry:
  li %i, 0
  la %ps, src
  la %pd, dst
loop:
  andi %ix, %i, 255
  sll %off, %ix, 2
  add %ea, %ps, %off
  lw %v, 0(%ea)
  xor %h1, %v, %i
  sll %h2, %h1, 3
  add %h3, %h2, %h1
  srl %h4, %h3, 5
  xor %h5, %h4, %h3
  andi %h6, %h5, 8191
  add %eb, %pd, %off
  sw %h6, 0(%eb)
  addi %i, %i, 1
  slt %t, %i, %n
  bne %t, %zero, loop
  la %pz, dst
  lw %r, 40(%pz)
  out %r
  ret
}
)";
  sir::ParseResult PR = sir::parseModule(Src);
  ASSERT_TRUE(PR.ok()) << PR.Error;
  PipelineConfig ConvCfg;
  ConvCfg.Scheme = partition::Scheme::None;
  ConvCfg.TrainArgs = {400};
  ConvCfg.RefArgs = {2000};
  PipelineRun Conv = compileAndMeasure(*PR.M, ConvCfg);
  ASSERT_TRUE(Conv.ok()) << (Conv.Errors.empty() ? "?" : Conv.Errors[0]);

  PipelineConfig AdvCfg = ConvCfg;
  AdvCfg.Scheme = partition::Scheme::Advanced;
  PipelineRun Adv = compileAndMeasure(*PR.M, AdvCfg);
  ASSERT_TRUE(Adv.ok()) << (Adv.Errors.empty() ? "?" : Adv.Errors[0]);
  EXPECT_GT(Adv.Stats.fpaFraction(), 0.15);

  SimStats ConvStats = simulate(Conv, MachineConfig::fourWay());
  SimStats AdvStats = simulate(Adv, MachineConfig::fourWay());
  double Speedup = core::speedup(ConvStats, AdvStats);
  EXPECT_GT(Speedup, 1.0) << "offloading should win on this kernel; "
                          << "conv=" << ConvStats.Cycles
                          << " adv=" << AdvStats.Cycles;
}

TEST(Simulator, ConventionalMachineRejectsPartitionedBinary) {
  PipelineRun Adv =
      compileSrc(fixtures::InvalidateForCall, partition::Scheme::Advanced);
  MachineConfig Conv = MachineConfig::fourWay();
  Conv.FpaEnabled = false;
  EXPECT_DEATH(simulate(Adv, Conv), "conventional");
}

} // namespace
