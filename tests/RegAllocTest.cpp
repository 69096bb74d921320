//===- tests/RegAllocTest.cpp - Linear-scan register allocation -----------===//

#include "core/Pipeline.h"
#include "partition/Partitioner.h"
#include "regalloc/LiveIntervals.h"
#include "regalloc/RegAlloc.h"
#include "sir/Parser.h"
#include "sir/Printer.h"
#include "sir/Verifier.h"
#include "stats/Report.h"
#include "support/Rng.h"
#include "vm/VM.h"

#include "AnalysisCorpus.h"
#include "PaperExamples.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace fpint;
using namespace fpint::regalloc;
using namespace fpint::sir;

namespace {

std::unique_ptr<Module> parseOrDie(const char *Src) {
  ParseResult PR = parseModule(Src);
  EXPECT_TRUE(PR.ok()) << PR.Error << " at line " << PR.Line;
  return std::move(PR.M);
}

/// Allocates a clone of \p M and checks verification + VM equivalence.
std::unique_ptr<Module> allocateAndCheck(const Module &Original,
                                         ModuleAlloc *OutAlloc = nullptr) {
  auto M = Original.clone();
  ModuleAlloc Alloc = allocateModule(*M);
  EXPECT_TRUE(Alloc.Errors.empty()) << Alloc.Errors[0];
  auto Verify = verify(*M);
  EXPECT_TRUE(Verify.empty()) << Verify[0] << "\n" << toString(*M);

  auto OrigRun = vm::runModule(Original);
  auto AllocRun = vm::runModule(*M);
  EXPECT_TRUE(OrigRun.Ok) << OrigRun.Error;
  EXPECT_TRUE(AllocRun.Ok) << AllocRun.Error << "\n" << toString(*M);
  EXPECT_EQ(OrigRun.Output, AllocRun.Output)
      << "allocated program diverged:\n"
      << toString(*M);
  if (OutAlloc)
    *OutAlloc = std::move(Alloc);
  return M;
}

TEST(RegAlloc, StraightLineCode) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %a, 5
  li %b, 7
  add %c, %a, %b
  mul %d, %c, %c
  out %d
  ret
}
)");
  ModuleAlloc Alloc;
  auto A = allocateAndCheck(*M, &Alloc);
  const Function *F = A->functionByName("main");
  EXPECT_TRUE(F->isAllocated());
  const FuncAlloc &FA = Alloc.Funcs.at(F);
  EXPECT_EQ(FA.SpilledIntervals, 0u);
  // Every operand register is mapped to an architectural index < 32.
  F->forEachInstr([&](const Instruction &I) {
    if (I.def().isValid()) {
      EXPECT_LT(Alloc.archIndexOf(F, I.def()), ArchLayout::FileSize);
    }
    I.forEachUse([&](Reg R, UseKind) {
      EXPECT_LT(Alloc.archIndexOf(F, R), ArchLayout::FileSize);
    });
  });
}

TEST(RegAlloc, CallsUseArgumentRegisters) {
  auto M = parseOrDie(R"(
func add3(%x, %y, %z) {
entry:
  add %s, %x, %y
  add %s2, %s, %z
  ret %s2
}

func main() {
entry:
  li %a, 10
  li %b, 20
  li %c, 12
  call %r, add3(%a, %b, %c)
  out %r
  ret
}
)");
  ModuleAlloc Alloc;
  auto A = allocateAndCheck(*M, &Alloc);

  // Callee formals are the architectural argument registers 0..2.
  const Function *Callee = A->functionByName("add3");
  ASSERT_EQ(Callee->formals().size(), 3u);
  for (unsigned I = 0; I < 3; ++I)
    EXPECT_EQ(Alloc.archIndexOf(Callee, Callee->formals()[I]), I);

  // The caller's call instruction passes those same indices, and its
  // result arrives in the return register.
  const Function *Main = A->functionByName("main");
  const Instruction *Call = nullptr;
  Main->forEachInstr([&](const Instruction &I) {
    if (I.op() == Opcode::Call)
      Call = &I;
  });
  ASSERT_NE(Call, nullptr);
  for (unsigned I = 0; I < 3; ++I)
    EXPECT_EQ(Alloc.archIndexOf(Main, Call->uses()[I]), I);
  EXPECT_EQ(Alloc.archIndexOf(Main, Call->def()), ArchLayout::RetReg);
}

TEST(RegAlloc, HighPressureSpills) {
  // 30 simultaneously live values exceed the 24 allocatable integer
  // registers; the allocator must spill yet preserve results.
  std::string Src = "func main() {\nentry:\n";
  for (int I = 0; I < 30; ++I)
    Src += "  li %v" + std::to_string(I) + ", " + std::to_string(I * 3 + 1) +
           "\n";
  // Consume them in reverse so every interval spans the block.
  Src += "  li %acc, 0\n";
  for (int I = 29; I >= 0; --I)
    Src += "  add %acc, %acc, %v" + std::to_string(I) + "\n";
  Src += "  out %acc\n  ret\n}\n";

  ParseResult PR = parseModule(Src);
  ASSERT_TRUE(PR.ok()) << PR.Error;
  ModuleAlloc Alloc;
  auto A = allocateAndCheck(*PR.M, &Alloc);
  const FuncAlloc &FA = Alloc.Funcs.at(A->functionByName("main"));
  EXPECT_GT(FA.SpilledIntervals, 0u);
  EXPECT_GT(FA.SpillCode, 0u);
  EXPECT_GT(FA.SpillSlots, 0u);
  EXPECT_EQ(FA.SpillLoads + FA.SpillStores + FA.CalleeSaveStores +
                FA.CalleeSaveRestores,
            FA.SpillCode);
}

TEST(RegAlloc, SummaryIsEmittedOnlyWhenRegallocRan) {
  auto M = parseOrDie(fixtures::IntVectorSum);
  core::PipelineConfig Cfg;
  core::PipelineRun Run = core::compileAndMeasure(*M, Cfg);
  ASSERT_TRUE(Run.ok());
  stats::RegAllocSummary S = stats::RegAllocSummary::of(Run);
  EXPECT_TRUE(S.valid());
  EXPECT_EQ(S.Functions, Run.Alloc.Funcs.size());
  EXPECT_EQ(S.SpilledIntervals, Run.Alloc.totalSpilledIntervals());
  json::Value V = stats::regAllocSummaryToJson(S);
  EXPECT_EQ(V.find("allocator"), nullptr);

  Cfg.Passes = "opt,profile,partition";
  core::PipelineRun Unallocated = core::compileAndMeasure(*M, Cfg);
  ASSERT_TRUE(Unallocated.ok());
  EXPECT_FALSE(stats::RegAllocSummary::of(Unallocated).valid());
}

TEST(RegAlloc, ValuesLiveAcrossCallsUseCalleeSaved) {
  auto M = parseOrDie(R"(
func leaf(%x) {
entry:
  addi %r, %x, 1
  ret %r
}

func main() {
entry:
  li %keep, 1000
  li %i, 0
loop:
  call %t, leaf(%i)
  add %keep, %keep, %t
  addi %i, %i, 1
  slti %c, %i, 10
  bne %c, %zero, loop
  out %keep
  ret
}
)");
  ModuleAlloc Alloc;
  auto A = allocateAndCheck(*M, &Alloc);
  const FuncAlloc &FA = Alloc.Funcs.at(A->functionByName("main"));
  // %keep and %i survive calls: callee-saved registers get used and
  // saved/restored (real loads/stores).
  EXPECT_GT(FA.CalleeSavedUsedInt, 0u);
  EXPECT_GT(FA.SpillCode, 0u);
}

TEST(RegAlloc, NeverDefinedRegistersReadZero) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %a, 3
  add %b, %a, %phantom
  out %b
  beq %a, %other, skip
  out %a
skip:
  ret
}
)");
  auto A = allocateAndCheck(*M);
  auto R = vm::runModule(*A);
  ASSERT_TRUE(R.Ok);
  EXPECT_EQ(R.Output, (std::vector<int32_t>{3, 3}));
}

TEST(RegAlloc, PartitionedCodeAllocatesBothFiles) {
  // The paper's flow: partition first, then allocate; FPa operands get
  // FP registers.
  auto Original = parseOrDie(fixtures::InvalidateForCall);
  auto M = Original->clone();
  vm::VM::Options ProfOpts;
  ProfOpts.CollectProfile = true;
  vm::VM Prof(*M, ProfOpts);
  ASSERT_TRUE(Prof.run().Ok);
  auto RW = partition::partitionModule(*M, partition::Scheme::Advanced,
                                       &Prof.profile());
  ASSERT_TRUE(RW.Errors.empty());

  ModuleAlloc Alloc;
  auto A = allocateAndCheck(*M, &Alloc);
  const Function *F = A->functionByName("main");
  unsigned FpaOps = 0;
  F->forEachInstr([&](const Instruction &I) {
    if (!I.inFpa())
      return;
    ++FpaOps;
    if (I.def().isValid()) {
      EXPECT_EQ(F->regClass(I.def()), RegClass::Fp);
    }
  });
  EXPECT_GT(FpaOps, 0u);
}

TEST(RegAlloc, FpWorkloadAllocation) {
  const char *Src = R"(
global vec 8 = 0 0 0 0 0 0 0 0

func main() {
entry:
  li %i, 0
  fli %sum, 0.0
loop:
  cp_to_fp %fb, %i
  cvtif %fi, %fb
  fmul %sq, %fi, %fi
  fadd %sum, %sum, %sq
  sll %off, %i, 2
  la %vp, vec
  add %ea, %vp, %off
  s.s %sq, 0(%ea)
  addi %i, %i, 1
  slti %t, %i, 8
  bne %t, %zero, loop
  cp_to_int %bits, %sum
  out %bits
  ret
}
)";
  auto M = parseOrDie(Src);
  ModuleAlloc Alloc;
  auto A = allocateAndCheck(*M, &Alloc);
  // Every FP-class register maps into the FP file's index space and
  // every INT-class one into the INT file's; the verifier has already
  // checked operand classes, so here we only need the map to be total.
  const Function *F = A->functionByName("main");
  F->forEachInstr([&](const Instruction &I) {
    if (I.def().isValid()) {
      EXPECT_LT(Alloc.archIndexOf(F, I.def()), ArchLayout::FileSize);
    }
  });
}

//===----------------------------------------------------------------------===//
// Randomized property: allocation never changes semantics, with and
// without prior partitioning.
//===----------------------------------------------------------------------===//

std::string randomAllocProgram(uint64_t Seed) {
  Rng R(Seed);
  std::string Src = "global arr 32 = ";
  for (int I = 0; I < 16; ++I)
    Src += std::to_string(R.nextInRange(0, 99)) + " ";
  Src += "\nfunc mix(%a, %b) {\nentry:\n  xor %x, %a, %b\n  andi %m, %x, "
         "31\n  ret %m\n}\n";
  Src += "func main() {\nentry:\n";
  unsigned NumVals = 3 + R.nextBelow(8); // Up to 10 locals.
  for (unsigned I = 0; I < NumVals; ++I)
    Src += "  li %v" + std::to_string(I) + ", " +
           std::to_string(R.nextInRange(0, 63)) + "\n";
  Src += "  li %i, 0\n  la %p, arr\nloop:\n";
  unsigned Steps = 4 + R.nextBelow(8);
  for (unsigned S = 0; S < Steps; ++S) {
    unsigned A = R.nextBelow(NumVals), B = R.nextBelow(NumVals),
             D = R.nextBelow(NumVals);
    std::string SA = "%v" + std::to_string(A), SB = "%v" + std::to_string(B),
                SD = "%v" + std::to_string(D);
    switch (R.nextBelow(6)) {
    case 0:
      Src += "  add " + SD + ", " + SA + ", " + SB + "\n";
      break;
    case 1:
      Src += "  sub " + SD + ", " + SA + ", " + SB + "\n";
      break;
    case 2:
      Src += "  andi %x" + std::to_string(S) + ", " + SA + ", 31\n  sll %y" +
             std::to_string(S) + ", %x" + std::to_string(S) +
             ", 2\n  add %e" + std::to_string(S) + ", %p, %y" +
             std::to_string(S) + "\n  lw " + SD + ", 0(%e" +
             std::to_string(S) + ")\n";
      break;
    case 3:
      Src += "  andi %x" + std::to_string(S) + ", " + SA + ", 31\n  sll %y" +
             std::to_string(S) + ", %x" + std::to_string(S) +
             ", 2\n  add %e" + std::to_string(S) + ", %p, %y" +
             std::to_string(S) + "\n  sw " + SB + ", 0(%e" +
             std::to_string(S) + ")\n";
      break;
    case 4:
      Src += "  call %r" + std::to_string(S) + ", mix(" + SA + ", " + SB +
             ")\n  add " + SD + ", " + SD + ", %r" + std::to_string(S) + "\n";
      break;
    case 5:
      Src += "  slti %c" + std::to_string(S) + ", " + SA + ", 32\n";
      Src += "  beq %c" + std::to_string(S) + ", %zero, sk" +
             std::to_string(S) + "\n";
      Src += "  xori " + SD + ", " + SD + ", 5\n";
      Src += "sk" + std::to_string(S) + ":\n";
      break;
    }
  }
  Src += "  addi %i, %i, 1\n  slti %t, %i, 12\n  bne %t, %zero, loop\n";
  for (unsigned I = 0; I < NumVals; ++I)
    Src += "  out %v" + std::to_string(I) + "\n";
  Src += "  ret\n}\n";
  return Src;
}

class RegAllocProperty : public ::testing::TestWithParam<int> {};

TEST_P(RegAllocProperty, RandomProgramsStayEquivalent) {
  std::string Src = randomAllocProgram(static_cast<uint64_t>(GetParam()) *
                                       104729);
  ParseResult PR = parseModule(Src);
  ASSERT_TRUE(PR.ok()) << PR.Error << "\n" << Src;
  auto OrigRun = vm::runModule(*PR.M);
  ASSERT_TRUE(OrigRun.Ok) << OrigRun.Error << "\n" << Src;

  // Plain allocation.
  allocateAndCheck(*PR.M);

  // Partition (advanced), then allocate: the paper's full compilation
  // flow.
  auto M2 = PR.M->clone();
  vm::VM::Options ProfOpts;
  ProfOpts.CollectProfile = true;
  vm::VM Prof(*M2, ProfOpts);
  ASSERT_TRUE(Prof.run().Ok);
  auto RW = partition::partitionModule(*M2, partition::Scheme::Advanced,
                                       &Prof.profile());
  ASSERT_TRUE(RW.Errors.empty()) << RW.Errors[0];
  auto A2 = allocateAndCheck(*M2);
  auto Run2 = vm::runModule(*A2);
  ASSERT_TRUE(Run2.Ok) << Run2.Error;
  ASSERT_EQ(Run2.Output, OrigRun.Output)
      << "partition+alloc diverged for seed " << GetParam() << "\n"
      << Src;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RegAllocProperty, ::testing::Range(0, 30));

} // namespace

namespace {

//===----------------------------------------------------------------------===//
// LiveIntervals: construction.
//===----------------------------------------------------------------------===//

/// Builds LiveIntervals for \p Name.
LiveIntervals buildIntervals(Module &M, const char *Name,
                             Function **OutF = nullptr) {
  Function *F = M.functionByName(Name);
  EXPECT_NE(F, nullptr);
  F->renumber();
  analysis::CFG Cfg(*F);
  Liveness Live(*F, Cfg);
  if (OutF)
    *OutF = F;
  return LiveIntervals(*F, Cfg, Live);
}

TEST(LiveIntervals, StraightLineHulls) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %a, 5
  li %b, 7
  add %c, %a, %b
  out %c
  ret
}
)");
  Function *F = nullptr;
  LiveIntervals LI = buildIntervals(*M, "main", &F);

  // Positions are 2 apart in block order.
  unsigned Prev = ~0u;
  F->forEachInstr([&](const Instruction &I) {
    unsigned P = LI.instrPos(I.id());
    if (Prev != ~0u) {
      EXPECT_EQ(P, Prev + 2);
    }
    Prev = P;
  });

  // %a: defined by the first li, last used by the add; the hull spans
  // exactly def..use and carries both event flags.
  const Instruction *DefA = nullptr, *Add = nullptr;
  F->forEachInstr([&](const Instruction &I) {
    if (!DefA)
      DefA = &I;
    if (I.op() == Opcode::Add)
      Add = &I;
  });
  ASSERT_NE(Add, nullptr);
  const LiveIntervals::Range &A = LI.range(DefA->def());
  EXPECT_EQ(A.Start, LI.instrPos(DefA->id()));
  EXPECT_EQ(A.End, LI.instrPos(Add->id()));
  EXPECT_TRUE(A.Defined);
  EXPECT_TRUE(A.Used);
  EXPECT_FALSE(A.CrossesCall);
  EXPECT_TRUE(LI.callPositions().empty());
}

TEST(LiveIntervals, CallCrossingIsStrictlyInside) {
  auto M = parseOrDie(R"(
func leaf(%x) {
entry:
  addi %r, %x, 1
  ret %r
}

func main() {
entry:
  li %keep, 100
  li %dead, 1
  out %dead
  call %t, leaf(%dead)
  add %s, %keep, %t
  out %s
  ret
}
)");
  Function *F = nullptr;
  LiveIntervals LI = buildIntervals(*M, "main", &F);
  ASSERT_EQ(LI.callPositions().size(), 1u);

  const Instruction *DefKeep = nullptr, *Call = nullptr;
  F->forEachInstr([&](const Instruction &I) {
    if (!DefKeep)
      DefKeep = &I;
    if (I.op() == Opcode::Call)
      Call = &I;
  });
  ASSERT_NE(Call, nullptr);
  // %keep is defined before and used after the call: crossing.
  EXPECT_TRUE(LI.range(DefKeep->def()).CrossesCall);
  // %dead's last use is the call itself (an endpoint, not strictly
  // inside), and the call's own def starts at the call: no crossing.
  EXPECT_FALSE(LI.range(Call->uses()[0]).CrossesCall);
  EXPECT_FALSE(LI.range(Call->def()).CrossesCall);
}

//===----------------------------------------------------------------------===//
// Liveness: the word-bitset kernel against the set-per-block reference.
//===----------------------------------------------------------------------===//

/// Live-in/live-out sets as the allocator computed them before its sets
/// became flat word arrays: one vector<bool> per block, fresh sets per
/// block visit, visited in reverse layout order until nothing changes.
struct ReferenceLiveness {
  std::vector<std::vector<bool>> In, Out;

  ReferenceLiveness(const Function &F, const analysis::CFG &Cfg) {
    const unsigned NumBlocks = Cfg.numBlocks();
    const unsigned NumRegs = F.numRegs();
    In.assign(NumBlocks, std::vector<bool>(NumRegs, false));
    Out.assign(NumBlocks, std::vector<bool>(NumRegs, false));
    std::vector<std::vector<bool>> Use(NumBlocks,
                                       std::vector<bool>(NumRegs, false));
    std::vector<std::vector<bool>> Def(NumBlocks,
                                       std::vector<bool>(NumRegs, false));
    for (unsigned B = 0; B < NumBlocks; ++B) {
      for (const auto &I : F.blocks()[B]->instructions()) {
        I->forEachUse([&](Reg R, UseKind) {
          if (!Def[B][R.id()])
            Use[B][R.id()] = true;
        });
        if (I->def().isValid())
          Def[B][I->def().id()] = true;
      }
    }
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (unsigned B = NumBlocks; B-- > 0;) {
        std::vector<bool> NewOut(NumRegs, false);
        for (unsigned S : Cfg.successors(B))
          for (unsigned R = 0; R < NumRegs; ++R)
            if (In[S][R])
              NewOut[R] = true;
        std::vector<bool> NewIn = Use[B];
        for (unsigned R = 0; R < NumRegs; ++R)
          if (NewOut[R] && !Def[B][R])
            NewIn[R] = true;
        if (NewOut != Out[B] || NewIn != In[B]) {
          Out[B] = std::move(NewOut);
          In[B] = std::move(NewIn);
          Changed = true;
        }
      }
    }
  }
};

/// Registers set in \p Set, ascending.
std::vector<uint32_t> setBits(const std::vector<bool> &Set) {
  std::vector<uint32_t> Ids;
  for (uint32_t R = 0; R < Set.size(); ++R)
    if (Set[R])
      Ids.push_back(R);
  return Ids;
}

TEST(Liveness, MatchesReferenceOnCorpus) {
  unsigned Functions = 0, MaxRegs = 0, LiveBits = 0;
  for (const fixtures::CorpusModule &Entry : fixtures::analysisCorpus()) {
    SCOPED_TRACE(Entry.first);
    for (const auto &F : Entry.second->functions()) {
      analysis::CFG Cfg(*F);
      Liveness Live(*F, Cfg);
      ReferenceLiveness Ref(*F, Cfg);
      for (unsigned B = 0; B < Cfg.numBlocks(); ++B) {
        for (uint32_t R = 1; R < F->numRegs(); ++R) {
          ASSERT_EQ(Live.liveIn(B, Reg(R)), Ref.In[B][R])
              << F->name() << " block " << B << " reg " << R;
          ASSERT_EQ(Live.liveOut(B, Reg(R)), Ref.Out[B][R])
              << F->name() << " block " << B << " reg " << R;
        }
        std::vector<uint32_t> In, Out;
        Live.forEachLiveIn(B, [&](Reg R) { In.push_back(R.id()); });
        Live.forEachLiveOut(B, [&](Reg R) { Out.push_back(R.id()); });
        ASSERT_EQ(In, setBits(Ref.In[B])) << F->name() << " block " << B;
        ASSERT_EQ(Out, setBits(Ref.Out[B])) << F->name() << " block " << B;
        LiveBits += static_cast<unsigned>(In.size() + Out.size());
      }
      ++Functions;
      MaxRegs = std::max(MaxRegs, F->numRegs());
    }
  }
  // The corpus reaches sets of more than one word and is not vacuous.
  EXPECT_GT(Functions, 600u);
  EXPECT_GT(MaxRegs, 64u);
  EXPECT_GT(LiveBits, 10000u);
}

TEST(RegAlloc, PaperCorpusStaysEquivalent) {
  for (const char *Src : {fixtures::IntVectorSum, fixtures::InvalidateForCall,
                          fixtures::MemoryFreeRand}) {
    auto Original = parseOrDie(Src);
    auto BaseRun = vm::runModule(*Original);
    ASSERT_TRUE(BaseRun.Ok) << BaseRun.Error;
    auto A = allocateAndCheck(*Original);
    auto Run = vm::runModule(*A);
    ASSERT_TRUE(Run.Ok) << Run.Error;
    EXPECT_EQ(Run.Output, BaseRun.Output);
    EXPECT_EQ(Run.ExitValue, BaseRun.ExitValue);
  }
}

TEST(ArchLayout, RegionsPartitionTheFile) {
  // Argument, return, caller-saved, callee-saved, scratch, and zero
  // regions must tile the 32-entry file without overlap.
  using L = regalloc::ArchLayout;
  EXPECT_EQ(L::NumArgRegs, 4u);
  EXPECT_EQ(L::RetReg, 4u);
  EXPECT_EQ(L::CallerBase, 5u);
  EXPECT_EQ(L::CallerBase + L::NumCaller, L::CalleeBase);
  EXPECT_EQ(L::CalleeBase + L::NumCallee, L::ScratchBase);
  EXPECT_LE(L::ScratchBase + L::NumScratch, L::FileSize);
  // 24 allocatable registers per file, as documented.
  EXPECT_EQ(L::NumCaller + L::NumCallee, 24u);
}

} // namespace
