//===- tests/PartitionTest.cpp - Basic & advanced partitioning ------------===//

#include "analysis/CFG.h"
#include "analysis/ExecutionEstimate.h"
#include "analysis/RDG.h"
#include "opt/Passes.h"
#include "partition/AdvancedPartitioner.h"
#include "partition/BasicPartitioner.h"
#include "partition/Partitioner.h"
#include "sir/Parser.h"
#include "sir/Printer.h"
#include "sir/Verifier.h"
#include "support/Hash.h"
#include "support/Rng.h"
#include "testgen/Generator.h"
#include "vm/VM.h"
#include "workloads/Workloads.h"

#include "PaperExamples.h"

#include <gtest/gtest.h>

using namespace fpint;
using namespace fpint::partition;
using namespace fpint::sir;

namespace {

std::unique_ptr<Module> parseOrDie(const char *Src) {
  ParseResult PR = parseModule(Src);
  EXPECT_TRUE(PR.ok()) << PR.Error << " at line " << PR.Line;
  return std::move(PR.M);
}

/// Profiles \p M with the VM (training run).
vm::Profile profileOf(const Module &M) {
  vm::VM::Options Opts;
  Opts.CollectProfile = true;
  vm::VM Machine(M, Opts);
  auto R = Machine.run();
  EXPECT_TRUE(R.Ok) << R.Error;
  return Machine.profile();
}

/// Partitions a clone of \p Src with \p S and checks:
///  - assignment validation and module verification are clean,
///  - the partitioned module produces the same output as the original.
/// Returns the partitioned module.
std::unique_ptr<Module> partitionAndCheck(const char *Src, Scheme S,
                                          ModuleRewrite *OutRewrite = nullptr) {
  auto Original = parseOrDie(Src);
  auto M = Original->clone();
  vm::Profile Prof = profileOf(*M);

  ModuleRewrite RW = partitionModule(*M, S, &Prof);
  EXPECT_TRUE(RW.Errors.empty()) << RW.Errors[0];
  auto Verify = verify(*M);
  EXPECT_TRUE(Verify.empty()) << Verify[0] << "\n" << toString(*M);

  auto OrigRun = vm::runModule(*Original);
  auto PartRun = vm::runModule(*M);
  EXPECT_TRUE(OrigRun.Ok) << OrigRun.Error;
  EXPECT_TRUE(PartRun.Ok) << PartRun.Error;
  EXPECT_EQ(OrigRun.Output, PartRun.Output)
      << "partitioned program diverged:\n"
      << toString(*M);

  if (OutRewrite)
    *OutRewrite = std::move(RW);
  return M;
}

unsigned countFpa(const Module &M) {
  unsigned Count = 0;
  for (const auto &F : M.functions())
    F->forEachInstr([&](const Instruction &I) { Count += I.inFpa(); });
  return Count;
}

//===----------------------------------------------------------------------===//
// Basic scheme
//===----------------------------------------------------------------------===//

TEST(BasicScheme, OffloadsVectorSumValues) {
  auto M = partitionAndCheck(fixtures::IntVectorSum, Scheme::Basic);
  const Function &F = *M->functionByName("main");

  // The c[i] = a[i] + b[i] add executes in FPa; its loads/stores use the
  // FP file (the paper's Figure 2 offloading).
  const Instruction *SumAdd = nullptr;
  unsigned FpLoads = 0, FpStores = 0;
  F.forEachInstr([&](const Instruction &I) {
    if (I.op() == Opcode::Add && I.inFpa())
      SumAdd = &I;
    if (I.isLoad() && F.regClass(I.def()) == RegClass::Fp)
      ++FpLoads;
    if (I.isStore() && F.regClass(I.uses()[0]) == RegClass::Fp)
      ++FpStores;
  });
  ASSERT_NE(SumAdd, nullptr) << toString(F);
  EXPECT_EQ(FpLoads, 3u); // a[i], b[i], and the checking loop's c[j].
  EXPECT_EQ(FpStores, 1u);

  // Induction/addressing stays INT.
  F.forEachInstr([&](const Instruction &I) {
    if (I.op() == Opcode::Sll) {
      EXPECT_FALSE(I.inFpa());
    }
  });
}

TEST(BasicScheme, MatchesPaperFigure4) {
  auto M = partitionAndCheck(fixtures::InvalidateForCall, Scheme::Basic);
  const Function &F = *M->functionByName("main");

  // Figure 4: the reg_tick increment component {I11v, I12, I13, I14v}
  // offloads; the branch slices through regno do not.
  const Instruction *Bltz = nullptr, *Bne17 = nullptr, *Beq5 = nullptr;
  F.forEachInstr([&](const Instruction &I) {
    if (I.op() == Opcode::Bltz)
      Bltz = &I;
    if (I.op() == Opcode::Bne && I.parent()->name() == "skip")
      Bne17 = &I;
    if (I.op() == Opcode::Beq)
      Beq5 = &I;
  });
  ASSERT_NE(Bltz, nullptr);
  ASSERT_NE(Bne17, nullptr);
  ASSERT_NE(Beq5, nullptr);
  EXPECT_TRUE(Bltz->inFpa()) << toString(F);
  EXPECT_FALSE(Bne17->inFpa());
  EXPECT_FALSE(Beq5->inFpa());

  // FP-file data memory ops: the reg_tick load and store in the hot
  // loop (Figure 4's l.s/s.s pair) plus the dump loop's load, whose
  // value feeds only "out".
  unsigned FpDataMemOps = 0;
  F.forEachInstr([&](const Instruction &I) {
    if (I.op() == Opcode::Lw && I.mem().Base.isValid() &&
        F.regClass(I.def()) == RegClass::Fp)
      ++FpDataMemOps;
    if (I.op() == Opcode::Sw && F.regClass(I.uses()[0]) == RegClass::Fp)
      ++FpDataMemOps;
  });
  EXPECT_EQ(FpDataMemOps, 3u) << toString(F);
}

TEST(BasicScheme, NeverInsertsInstructions) {
  auto Original = parseOrDie(fixtures::InvalidateForCall);
  unsigned Before = 0;
  for (const auto &F : Original->functions())
    Before += F->numInstrIds();

  ModuleRewrite RW;
  auto M = partitionAndCheck(fixtures::InvalidateForCall, Scheme::Basic, &RW);
  unsigned After = 0;
  for (const auto &F : M->functions())
    After += F->numInstrIds();
  EXPECT_EQ(Before, After);
  EXPECT_EQ(RW.StaticCopies, 0u);
  EXPECT_EQ(RW.StaticDups, 0u);
  EXPECT_EQ(RW.StaticCopyBacks, 0u);
}

TEST(BasicScheme, SatisfiesPartitioningConditions) {
  for (const char *Src : {fixtures::IntVectorSum, fixtures::InvalidateForCall,
                          fixtures::MemoryFreeRand}) {
    auto M = parseOrDie(Src);
    for (const auto &F : M->functions()) {
      F->renumber();
      analysis::CFG Cfg(*F);
      analysis::RDG G(*F, Cfg);
      Assignment A = partitionBasic(G);
      EXPECT_TRUE(satisfiesBasicConditions(A)) << F->name();
      EXPECT_TRUE(validateAssignment(A).empty()) << F->name();
    }
  }
}

/// Section 5.1's conditions 2 and 3 checked literally: no FPa node's
/// backward or forward slice holds an INT node. The reference for
/// satisfiesBasicConditions' edge-local check.
bool basicConditionsBySlices(const Assignment &A) {
  const analysis::RDG &G = *A.G;
  for (unsigned N = 0; N < G.numNodes(); ++N) {
    if (!A.isFpa(N))
      continue;
    std::vector<bool> Back, Fwd;
    G.backwardSlice(N, Back);
    G.forwardSlice(N, Fwd);
    for (unsigned V = 0; V < G.numNodes(); ++V)
      if ((Back[V] || Fwd[V]) && !A.isFpa(V))
        return false;
  }
  return true;
}

/// Compares the edge-local and the slice-based check on every RDG of
/// \p Src (optimised and profiled as the pipeline does) under the basic
/// and advanced assignments and seeded random ones; counts the outcomes
/// in \p Held and \p Failed.
void expectBasicCheckMatchesSlices(const Module &Src,
                                   const std::vector<int32_t> &TrainArgs,
                                   uint64_t Seed, unsigned &Held,
                                   unsigned &Failed) {
  auto M = Src.clone();
  opt::optimizeModule(*M);
  vm::VM::Options Opts;
  Opts.CollectProfile = true;
  vm::VM Machine(*M, Opts);
  Machine.run(TrainArgs);
  analysis::BlockWeights W(*M, &Machine.profile());
  Rng R(Seed);
  auto Expect = [&](const Assignment &A, const std::string &What) {
    const bool Edge = satisfiesBasicConditions(A);
    EXPECT_EQ(Edge, basicConditionsBySlices(A)) << What;
    ++(Edge ? Held : Failed);
  };
  for (const auto &F : M->functions()) {
    analysis::CFG Cfg(*F);
    analysis::RDG G(*F, Cfg);
    Expect(partitionBasic(G), F->name() + " basic");
    Expect(partitionAdvanced(G, W), F->name() + " advanced");
    for (unsigned Trial = 0; Trial < 4; ++Trial) {
      // Random node sides: almost always split an edge.
      Assignment Nodes(G);
      for (unsigned N = 0; N < G.numNodes(); ++N)
        Nodes.NodeSide[N] = R.chance(1, 2) ? Side::Fpa : Side::Int;
      Expect(Nodes, F->name() + " random nodes");
      // Random whole components: never split an edge, until one node
      // flips side.
      std::vector<bool> CompFpa(G.numComponents());
      for (unsigned C = 0; C < G.numComponents(); ++C)
        CompFpa[C] = R.chance(1, 2);
      Assignment Comps(G);
      for (unsigned N = 0; N < G.numNodes(); ++N)
        Comps.NodeSide[N] =
            CompFpa[G.componentOf()[N]] ? Side::Fpa : Side::Int;
      Expect(Comps, F->name() + " random components");
      if (G.numNodes() == 0)
        continue;
      const unsigned Flip = static_cast<unsigned>(R.nextBelow(G.numNodes()));
      Comps.NodeSide[Flip] = Comps.isFpa(Flip) ? Side::Int : Side::Fpa;
      Expect(Comps, F->name() + " random components, node " +
                        std::to_string(Flip) + " flipped");
    }
  }
}

TEST(BasicScheme, EdgeLocalCheckMatchesSlices) {
  unsigned Held = 0, Failed = 0;
  for (const std::string &Name : workloads::allWorkloadNames()) {
    SCOPED_TRACE(Name);
    workloads::Workload Wl = workloads::workloadByName(Name);
    expectBasicCheckMatchesSlices(*Wl.M, Wl.TrainArgs, 1, Held, Failed);
  }
  for (const std::string &Preset : testgen::presetNames()) {
    testgen::GenConfig Config = testgen::presetConfig(Preset);
    for (uint64_t It = 0; It < 30; ++It) {
      const uint64_t Seed = testgen::moduleSeed(1, It);
      SCOPED_TRACE(Preset + " seed " + std::to_string(Seed));
      auto M = testgen::generateModule(Config, Seed);
      expectBasicCheckMatchesSlices(*M, {}, Seed, Held, Failed);
    }
  }
  // Both outcomes occur often.
  EXPECT_GT(Held, 1000u);
  EXPECT_GT(Failed, 1000u);
}

TEST(BasicScheme, MemoryFreeCodeFullyOffloads) {
  // Section 6.6: compress's memory-free rand function moves entirely to
  // FPa (here already under the basic scheme: nothing touches memory).
  auto M = partitionAndCheck(fixtures::MemoryFreeRand, Scheme::Basic);
  const Function &F = *M->functionByName("main");
  unsigned Fpa = 0, Offloadable = 0;
  F.forEachInstr([&](const Instruction &I) {
    if (fpaSupports(I.op()) || I.op() == Opcode::Out) {
      ++Offloadable;
      Fpa += I.inFpa();
    }
  });
  EXPECT_EQ(Fpa, Offloadable) << toString(F);
  EXPECT_GT(Fpa, 8u);
}

//===----------------------------------------------------------------------===//
// Advanced scheme
//===----------------------------------------------------------------------===//

TEST(AdvancedScheme, OffloadsBranchSlicesWithDuplication) {
  // Figures 5/6: with copies/duplication the regno branch slices
  // ({2v,3,4,5} and {16,17}) move to FPa too.
  ModuleRewrite RW;
  auto M = partitionAndCheck(fixtures::InvalidateForCall, Scheme::Advanced,
                             &RW);
  const Function &F = *M->functionByName("main");

  const Instruction *Bne17 = nullptr, *Beq5 = nullptr, *Srav = nullptr;
  F.forEachInstr([&](const Instruction &I) {
    if (I.op() == Opcode::Bne && I.parent()->name() == "skip")
      Bne17 = &I;
    if (I.op() == Opcode::Beq)
      Beq5 = &I;
    if (I.op() == Opcode::SraV)
      Srav = &I;
  });
  ASSERT_NE(Bne17, nullptr);
  ASSERT_NE(Beq5, nullptr);
  ASSERT_NE(Srav, nullptr);
  EXPECT_TRUE(Bne17->inFpa()) << toString(F);
  EXPECT_TRUE(Beq5->inFpa()) << toString(F);
  EXPECT_TRUE(Srav->inFpa()) << toString(F);

  // Communication for the regno chain was inserted (copies or dups).
  EXPECT_GT(RW.StaticCopies + RW.StaticDups, 0u);
}

TEST(AdvancedScheme, StrictlyLargerThanBasicOnPaperExample) {
  auto BasicM = partitionAndCheck(fixtures::InvalidateForCall, Scheme::Basic);
  auto AdvM =
      partitionAndCheck(fixtures::InvalidateForCall, Scheme::Advanced);
  EXPECT_GT(countFpa(*AdvM), countFpa(*BasicM));
}

TEST(AdvancedScheme, DynStatsShowLargerFpaPartition) {
  for (const char *Src :
       {fixtures::IntVectorSum, fixtures::InvalidateForCall}) {
    auto BasicM = partitionAndCheck(Src, Scheme::Basic);
    ModuleRewrite AdvRW;
    auto AdvM = partitionAndCheck(Src, Scheme::Advanced, &AdvRW);

    vm::Profile BasicProf = profileOf(*BasicM);
    vm::Profile AdvProf = profileOf(*AdvM);
    DynStats BasicStats = computeDynStats(*BasicM, BasicProf, nullptr);
    DynStats AdvStats = computeDynStats(*AdvM, AdvProf, &AdvRW);

    EXPECT_GE(AdvStats.fpaFraction(), BasicStats.fpaFraction());
    // The paper reports small overheads (max 4% dynamic increase).
    EXPECT_LT(AdvStats.copyFraction() + AdvStats.dupFraction(), 0.10)
        << Src;
  }
}

TEST(AdvancedScheme, CallArgumentProducersGetCopyBacks) {
  // A hot computation that both feeds a call argument and is otherwise
  // offloadable: the advanced scheme keeps it in FPa and pays one
  // cp_to_int per call (Section 6.4), or keeps it INT if unprofitable --
  // either way the output must match and validation must pass.
  const char *Src = R"(
global acc 1

func sink(%v) {
entry:
  lw %a, acc
  add %a2, %a, %v
  sw %a2, acc
  ret
}

func main() {
entry:
  li %i, 0
loop:
  sll %x, %i, 3
  xor %y, %x, %i
  addi %arg, %y, 7
  call sink(%arg)
  addi %i, %i, 1
  slti %t, %i, 40
  bne %t, %zero, loop
  lw %r, acc
  out %r
  ret
}
)";
  partitionAndCheck(Src, Scheme::Advanced);
}

TEST(AdvancedScheme, FormalParameterCopies) {
  // A leaf function whose formal feeds pure branch computation: the
  // advanced scheme may copy the formal into the FP file at entry.
  const char *Src = R"(
func classify(%v) {
entry:
  andi %b, %v, 7
  slti %t, %b, 4
  beq %t, %zero, big
  ret %v
big:
  li %m1, -1
  ret %m1
}

func main() {
entry:
  li %i, 0
  li %acc, 0
loop:
  call %c, classify(%i)
  add %acc, %acc, %c
  addi %i, %i, 1
  slti %t, %i, 30
  bne %t, %zero, loop
  out %acc
  ret
}
)";
  partitionAndCheck(Src, Scheme::Advanced);
}

TEST(AdvancedScheme, RespectsUnsupportedOpcodes) {
  // Multiplies pin their backward slices to INT.
  const char *Src = R"(
func main() {
entry:
  li %i, 1
  li %acc, 0
loop:
  mul %sq, %i, %i
  add %acc, %acc, %sq
  addi %i, %i, 1
  slti %t, %i, 20
  bne %t, %zero, loop
  out %acc
  ret
}
)";
  auto M = partitionAndCheck(Src, Scheme::Advanced);
  const Function &F = *M->functionByName("main");
  F.forEachInstr([&](const Instruction &I) {
    if (I.op() == Opcode::Mul) {
      EXPECT_FALSE(I.inFpa());
    }
  });
}

TEST(AdvancedScheme, CostParametersGateDuplication) {
  // With a tiny copy overhead, copies dominate; with the default
  // parameters the loop-carried counter duplicates (paper Figure 6).
  auto M = parseOrDie(fixtures::InvalidateForCall);
  vm::Profile Prof = profileOf(*M);

  auto CloneA = M->clone();
  vm::Profile ProfA = profileOf(*CloneA);
  CostParams Cheap;
  Cheap.CopyOverhead = 1.0;
  Cheap.DupOverhead = 0.5;
  ModuleRewrite RWA = partitionModule(*CloneA, Scheme::Advanced, &ProfA, Cheap);
  EXPECT_TRUE(RWA.Errors.empty());

  auto CloneB = M->clone();
  vm::Profile ProfB = profileOf(*CloneB);
  ModuleRewrite RWB = partitionModule(*CloneB, Scheme::Advanced, &ProfB);
  EXPECT_TRUE(RWB.Errors.empty());

  // Both settings partition successfully and produce correct code.
  auto RunA = vm::runModule(*CloneA);
  auto RunB = vm::runModule(*CloneB);
  auto RunO = vm::runModule(*M);
  ASSERT_TRUE(RunA.Ok && RunB.Ok && RunO.Ok);
  EXPECT_EQ(RunA.Output, RunO.Output);
  EXPECT_EQ(RunB.Output, RunO.Output);
  // Default parameters duplicate the induction chain.
  EXPECT_GT(RWB.StaticDups, 0u) << "expected Figure 6 style duplication";
}

TEST(AdvancedScheme, UnprofitableComponentsStayInt) {
  // A once-executed branch slice behind a copy is not worth the copy:
  // Phase 2 must evict it (profit < 0 with o_copy > 1).
  const char *Src = R"(
global buf 4

func main() {
entry:
  la %p, buf
  lw %v, 0(%p)
  addi %w, %v, 3
  sw %w, 4(%p)
  slti %t, %w, 100
  bne %t, %zero, done
  out %w
done:
  ret
}
)";
  ModuleRewrite RW;
  auto M = partitionAndCheck(Src, Scheme::Advanced, &RW);
  // Everything runs once; copies cost more than they save, so no copies
  // remain and the branch slice stays INT.
  EXPECT_EQ(RW.StaticCopies + RW.StaticDups, 0u) << toString(*M);
}

//===----------------------------------------------------------------------===//
// Decision pin: the advanced scheme's choices over a fixed corpus.
//===----------------------------------------------------------------------===//

/// Folds the advanced Assignment of every function of \p Src (optimized
/// and profiled as the default pipeline does) under each of \p Params
/// into \p H.
void hashAdvancedDecisions(const Module &Src,
                           const std::vector<int32_t> &TrainArgs,
                           const std::vector<CostParams> &Params,
                           uint64_t &H) {
  auto M = Src.clone();
  opt::optimizeModule(*M);
  vm::VM::Options Opts;
  Opts.CollectProfile = true;
  vm::VM Machine(*M, Opts);
  ASSERT_TRUE(Machine.run(TrainArgs).Ok);
  analysis::BlockWeights W(*M, &Machine.profile());

  for (const auto &F : M->functions()) {
    analysis::CFG Cfg(*F);
    analysis::RDG G(*F, Cfg);
    for (const CostParams &P : Params) {
      Assignment A = partitionAdvanced(G, W, P);
      std::string Bits = F->name() + ":";
      for (unsigned N = 0; N < G.numNodes(); ++N)
        Bits += static_cast<char>('0' + (A.isFpa(N) ? 1 : 0) +
                                  (A.Copy[N] ? 2 : 0) + (A.Dup[N] ? 4 : 0) +
                                  (A.CopyBack[N] ? 8 : 0));
      H = support::fnv1a64(Bits, H);
    }
  }
}

TEST(AdvancedScheme, DecisionsArePinned) {
  // Any change to the advanced heuristic's decisions -- a different
  // FPa set, copy, duplicate or copy-back on any node -- changes this
  // digest. The corpus is every built-in workload plus the modules of
  // the first 200 seed-1 module seeds under every generator preset,
  // each under the default costs, a swept cost point (Section 6.1) and
  // the Section 6.6 share cap. A deliberate heuristic change must
  // re-pin it. It was re-pinned when the generator's step cap changed
  // the `calls` modules 11, 76, 78, 80, 167 and 173; over the other
  // modules the digest did not move.
  const std::vector<CostParams> Params = {
      CostParams(), CostParams{6.0, 1.5, 1.0}, CostParams{4.0, 2.5, 0.5}};
  uint64_t H = support::fnv1a64("");
  for (const std::string &Name : workloads::allWorkloadNames()) {
    workloads::Workload Wl = workloads::workloadByName(Name);
    hashAdvancedDecisions(*Wl.M, Wl.TrainArgs, Params, H);
  }
  for (const std::string &Preset : testgen::presetNames()) {
    testgen::GenConfig Config = testgen::presetConfig(Preset);
    for (uint64_t It = 0; It < 200; ++It) {
      auto M = testgen::generateModule(Config, testgen::moduleSeed(1, It));
      hashAdvancedDecisions(*M, {}, Params, H);
    }
  }
  EXPECT_EQ(support::hex64(H), "e292b52db77d6cd8");
}

TEST(AdvancedScheme, BudgetBoundPhase1DecisionsArePinned) {
  // Generated modules in which, before Phase 1 gained its early exit,
  // at least one Phase 1 run (of a function, at one of the three cost
  // points) ended by using up its work budget rather than by emptying
  // its queue: zero-loss slices kept re-queueing one another. The exit
  // must leave exactly the decisions that budget-bound loop made. The
  // digest was computed before the exit was added; the modules lie
  // outside DecisionsArePinned's seed-1 corpus.
  struct Pick {
    const char *Preset;
    uint64_t Seed, Iteration;
  };
  const Pick Picks[] = {
      {"default", 2, 1}, {"default", 2, 2},  {"default", 3, 0},
      {"branchy", 2, 0}, {"branchy", 2, 2},  {"branchy", 3, 7},
      {"memory", 2, 0},  {"memory", 2, 7},   {"memory", 3, 15},
      {"fp", 2, 3},      {"fp", 3, 0},       {"fp", 3, 1},
      {"calls", 2, 10},  {"calls", 3, 6},    {"calls", 3, 8},
      {"tiny", 3, 4},    {"tiny", 3, 15},    {"intonly", 2, 0},
      {"intonly", 2, 3}, {"intonly", 2, 14},
  };
  const std::vector<CostParams> Params = {
      CostParams(), CostParams{6.0, 1.5, 1.0}, CostParams{4.0, 2.5, 0.5}};
  uint64_t H = support::fnv1a64("");
  for (const Pick &P : Picks) {
    auto M = testgen::generateModule(testgen::presetConfig(P.Preset),
                                     testgen::moduleSeed(P.Seed, P.Iteration));
    hashAdvancedDecisions(*M, {}, Params, H);
  }
  EXPECT_EQ(support::hex64(H), "386813cfd1bab990");
}

//===----------------------------------------------------------------------===//
// Randomized property tests: partitioning must never change semantics.
//===----------------------------------------------------------------------===//

/// Generates a random but well-formed integer program with loops,
/// branches, memory traffic, and calls.
std::string randomProgram(uint64_t Seed) {
  Rng R(Seed);
  std::string Src = "global data 64 = ";
  for (int I = 0; I < 32; ++I)
    Src += std::to_string(R.nextInRange(-50, 50)) + " ";
  Src += "\n";

  // A small helper function.
  Src += R"(
func helper(%a, %b) {
entry:
  add %s, %a, %b
  andi %m, %s, 255
  ret %m
}
)";

  Src += "func main() {\nentry:\n";
  unsigned NumVals = 4;
  auto Val = [&](unsigned I) { return "%v" + std::to_string(I); };
  for (unsigned I = 0; I < NumVals; ++I)
    Src += "  li " + Val(I) + ", " + std::to_string(R.nextInRange(1, 9)) +
           "\n";
  Src += "  li %i, 0\n  la %base, data\nloop:\n";

  unsigned Steps = 6 + R.nextBelow(10);
  for (unsigned S = 0; S < Steps; ++S) {
    unsigned A = R.nextBelow(NumVals), B = R.nextBelow(NumVals),
             D = R.nextBelow(NumVals);
    switch (R.nextBelow(8)) {
    case 0:
      Src += "  add " + Val(D) + ", " + Val(A) + ", " + Val(B) + "\n";
      break;
    case 1:
      Src += "  xor " + Val(D) + ", " + Val(A) + ", " + Val(B) + "\n";
      break;
    case 2:
      Src += "  sll " + Val(D) + ", " + Val(A) + ", " +
             std::to_string(R.nextBelow(4)) + "\n";
      break;
    case 3: {
      // Bounded indexed load.
      Src += "  andi %off" + std::to_string(S) + ", " + Val(A) + ", 63\n";
      Src += "  sll %sc" + std::to_string(S) + ", %off" + std::to_string(S) +
             ", 2\n";
      Src += "  add %ea" + std::to_string(S) + ", %base, %sc" +
             std::to_string(S) + "\n";
      Src += "  lw " + Val(D) + ", 0(%ea" + std::to_string(S) + ")\n";
      break;
    }
    case 4: {
      Src += "  andi %soff" + std::to_string(S) + ", " + Val(A) + ", 63\n";
      Src += "  sll %ssc" + std::to_string(S) + ", %soff" + std::to_string(S) +
             ", 2\n";
      Src += "  add %sea" + std::to_string(S) + ", %base, %ssc" +
             std::to_string(S) + "\n";
      Src += "  sw " + Val(B) + ", 0(%sea" + std::to_string(S) + ")\n";
      break;
    }
    case 5:
      Src += "  call %r" + std::to_string(S) + ", helper(" + Val(A) + ", " +
             Val(B) + ")\n";
      Src += "  move " + Val(D) + ", %r" + std::to_string(S) + "\n";
      break;
    case 6:
      Src += "  slti %c" + std::to_string(S) + ", " + Val(A) + ", " +
             std::to_string(R.nextInRange(-20, 120)) + "\n";
      Src += "  beq %c" + std::to_string(S) + ", %zero, skip" +
             std::to_string(S) + "\n";
      Src += "  addi " + Val(D) + ", " + Val(D) + ", 1\n";
      Src += "skip" + std::to_string(S) + ":\n";
      break;
    case 7:
      Src += "  mul " + Val(D) + ", " + Val(A) + ", " + Val(B) + "\n";
      Src += "  andi " + Val(D) + ", " + Val(D) + ", 1023\n";
      break;
    }
  }
  Src += "  addi %i, %i, 1\n  slti %t, %i, 25\n  bne %t, %zero, loop\n";
  for (unsigned I = 0; I < NumVals; ++I)
    Src += "  out " + Val(I) + "\n";
  Src += "  lw %final, data+16\n  out %final\n  ret\n}\n";
  return Src;
}

class PartitionProperty : public ::testing::TestWithParam<int> {};

TEST_P(PartitionProperty, RandomProgramsStayEquivalent) {
  std::string Src = randomProgram(static_cast<uint64_t>(GetParam()) * 7919);
  ParseResult PR = parseModule(Src);
  ASSERT_TRUE(PR.ok()) << PR.Error << "\n" << Src;
  auto &Original = *PR.M;
  auto OrigRun = vm::runModule(Original);
  ASSERT_TRUE(OrigRun.Ok) << OrigRun.Error << "\n" << Src;

  for (Scheme S : {Scheme::Basic, Scheme::Advanced}) {
    auto Clone = Original.clone();
    vm::Profile Prof = profileOf(*Clone);
    ModuleRewrite RW = partitionModule(*Clone, S, &Prof);
    ASSERT_TRUE(RW.Errors.empty())
        << schemeName(S) << ": " << RW.Errors[0] << "\n"
        << Src;
    auto Verify = verify(*Clone);
    ASSERT_TRUE(Verify.empty())
        << schemeName(S) << ": " << Verify[0] << "\n"
        << toString(*Clone);
    auto Run = vm::runModule(*Clone);
    ASSERT_TRUE(Run.Ok) << Run.Error;
    ASSERT_EQ(Run.Output, OrigRun.Output)
        << schemeName(S) << " diverged for seed " << GetParam() << "\n"
        << Src << "\n"
        << toString(*Clone);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PartitionProperty, ::testing::Range(0, 40));

} // namespace
