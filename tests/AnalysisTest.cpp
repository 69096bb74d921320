//===- tests/AnalysisTest.cpp - CFG, reaching defs, RDG, slices -----------===//

#include "analysis/CFG.h"
#include "analysis/ExecutionEstimate.h"
#include "analysis/RDG.h"
#include "analysis/ReachingDefs.h"
#include "sir/Parser.h"
#include "vm/VM.h"

#include "AnalysisCorpus.h"
#include "PaperExamples.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

using namespace fpint;
using namespace fpint::analysis;
using namespace fpint::sir;

namespace {

std::unique_ptr<Module> parseOrDie(const char *Src) {
  ParseResult PR = parseModule(Src);
  EXPECT_TRUE(PR.ok()) << PR.Error << " at line " << PR.Line;
  return std::move(PR.M);
}

/// Finds the unique instruction with opcode \p Op in \p F.
const Instruction *findOnly(const Function &F, Opcode Op) {
  const Instruction *Found = nullptr;
  F.forEachInstr([&](const Instruction &I) {
    if (I.op() == Op) {
      EXPECT_EQ(Found, nullptr) << "opcode not unique in function";
      Found = &I;
    }
  });
  EXPECT_NE(Found, nullptr) << "opcode not found";
  return Found;
}

//===----------------------------------------------------------------------===//
// CFG
//===----------------------------------------------------------------------===//

TEST(CFG, LoopStructure) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %i, 0
outer:
  li %j, 0
inner:
  addi %j, %j, 1
  slti %tj, %j, 10
  bne %tj, %zero, inner
  addi %i, %i, 1
  slti %ti, %i, 10
  bne %ti, %zero, outer
  ret
}
)");
  const Function &F = *M->functionByName("main");
  CFG Cfg(F);
  // Conditional branches end blocks, so the parser introduces anonymous
  // fallthrough blocks: entry=0, outer=1, inner=2, after-inner=3 (holds
  // the outer latch), after-outer=4 (holds the ret).
  ASSERT_EQ(Cfg.numBlocks(), 5u);
  EXPECT_EQ(Cfg.loopDepth(0), 0u);
  EXPECT_EQ(Cfg.loopDepth(1), 1u);
  EXPECT_EQ(Cfg.loopDepth(2), 2u);
  EXPECT_EQ(Cfg.loopDepth(3), 1u);
  EXPECT_EQ(Cfg.loopDepth(4), 0u);
  EXPECT_TRUE(Cfg.dominates(0, 2));
  EXPECT_TRUE(Cfg.dominates(1, 2));
  EXPECT_FALSE(Cfg.dominates(2, 1));
  EXPECT_TRUE(Cfg.isBackEdge(2, 2));
  EXPECT_TRUE(Cfg.isBackEdge(3, 1));
  EXPECT_EQ(Cfg.loopHeaders().size(), 2u);
}

TEST(CFG, DiamondAndUnreachable) {
  auto M = parseOrDie(R"(
func main(%x) {
entry:
  blez %x, left
right:
  jmp join
left:
  jmp join
dead:
  jmp join
join:
  ret
}
)");
  const Function &F = *M->functionByName("main");
  CFG Cfg(F);
  // entry=0 right=1 left=2 dead=3 join=4; entry falls through to right.
  EXPECT_TRUE(Cfg.isReachable(0));
  EXPECT_TRUE(Cfg.isReachable(1));
  EXPECT_TRUE(Cfg.isReachable(2));
  EXPECT_FALSE(Cfg.isReachable(3));
  EXPECT_TRUE(Cfg.isReachable(4));
  EXPECT_EQ(Cfg.idom(4), 0u); // Join is dominated only by entry.
  EXPECT_EQ(Cfg.idom(1), 0u);
  EXPECT_EQ(Cfg.idom(2), 0u);
  // RPO starts at the entry and covers all blocks.
  EXPECT_EQ(Cfg.reversePostOrder().size(), 5u);
  EXPECT_EQ(Cfg.reversePostOrder()[0], 0u);
}

//===----------------------------------------------------------------------===//
// Reaching definitions
//===----------------------------------------------------------------------===//

TEST(ReachingDefs, SeesThroughJoinPoints) {
  auto M = parseOrDie(R"(
func main(%x) {
entry:
  li %v, 1
  blez %x, other
  jmp join
other:
  li %v, 2
join:
  out %v
  ret
}
)");
  const Function &F = *M->functionByName("main");
  CFG Cfg(F);
  ReachingDefs RD(F, Cfg);

  // Find the use site of the Out instruction.
  unsigned OutUse = ~0u;
  for (unsigned U = 0; U < RD.useSites().size(); ++U)
    if (RD.useSites()[U].I->op() == Opcode::Out)
      OutUse = U;
  ASSERT_NE(OutUse, ~0u);
  // Both li definitions reach it.
  EXPECT_EQ(RD.reachingDefsOf(OutUse).size(), 2u);
}

TEST(ReachingDefs, LocalKills) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %v, 1
  li %v, 2
  out %v
  ret
}
)");
  const Function &F = *M->functionByName("main");
  CFG Cfg(F);
  ReachingDefs RD(F, Cfg);
  unsigned OutUse = ~0u;
  for (unsigned U = 0; U < RD.useSites().size(); ++U)
    if (RD.useSites()[U].I->op() == Opcode::Out)
      OutUse = U;
  ASSERT_NE(OutUse, ~0u);
  auto Reaching = RD.reachingDefsOf(OutUse);
  ASSERT_EQ(Reaching.size(), 1u);
  EXPECT_EQ(RD.defSites()[Reaching[0]].I->imm(), 2);
}

TEST(ReachingDefs, FormalsAreEntryDefs) {
  auto M = parseOrDie(R"(
func main(%a) {
entry:
  out %a
  ret
}
)");
  const Function &F = *M->functionByName("main");
  CFG Cfg(F);
  ReachingDefs RD(F, Cfg);
  ASSERT_EQ(RD.defSites().size(), 1u);
  EXPECT_EQ(RD.defSites()[0].I, nullptr); // Formal dummy def.
  ASSERT_EQ(RD.edges().size(), 1u);
}

TEST(ReachingDefs, LoopCarriedDefs) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %i, 0
loop:
  addi %i, %i, 1
  slti %t, %i, 5
  bne %t, %zero, loop
  out %i
  ret
}
)");
  const Function &F = *M->functionByName("main");
  CFG Cfg(F);
  ReachingDefs RD(F, Cfg);
  // The addi's use of %i sees both the initial li and itself (around
  // the back edge).
  unsigned AddiUse = ~0u;
  for (unsigned U = 0; U < RD.useSites().size(); ++U)
    if (RD.useSites()[U].I->op() == Opcode::AddI)
      AddiUse = U;
  ASSERT_NE(AddiUse, ~0u);
  EXPECT_EQ(RD.reachingDefsOf(AddiUse).size(), 2u);
}

/// Reaching definitions as computed before the analysis moved to
/// id-indexed tables: hashed per-register def lists and a per-block
/// LastDef map, fresh bit vectors per block per iteration. Fills the
/// same def sites, use sites and edges, in the same order.
struct ReferenceReachingDefs {
  std::vector<DefSite> Defs;
  std::vector<UseSite> Uses;
  std::vector<std::pair<unsigned, unsigned>> Edges;

  ReferenceReachingDefs(const Function &F, const CFG &Cfg) {
    using Bits = std::vector<bool>;
    std::unordered_map<uint32_t, std::vector<unsigned>> DefsOfReg;
    for (Reg Formal : F.formals()) {
      DefsOfReg[Formal.id()].push_back(static_cast<unsigned>(Defs.size()));
      Defs.push_back(DefSite{nullptr, Formal});
    }
    std::unordered_map<const Instruction *, unsigned> DefIdxOf;
    F.forEachInstr([&](const Instruction &I) {
      if (!I.def().isValid())
        return;
      DefIdxOf[&I] = static_cast<unsigned>(Defs.size());
      DefsOfReg[I.def().id()].push_back(static_cast<unsigned>(Defs.size()));
      Defs.push_back(DefSite{&I, I.def()});
    });
    const unsigned NumDefs = static_cast<unsigned>(Defs.size());
    const unsigned NumBlocks = Cfg.numBlocks();
    std::vector<Bits> Gen(NumBlocks, Bits(NumDefs)), Kill(NumBlocks,
                                                          Bits(NumDefs));
    for (unsigned B = 0; B < NumBlocks; ++B) {
      std::unordered_map<uint32_t, unsigned> LastDef;
      for (const auto &I : F.blocks()[B]->instructions())
        if (I->def().isValid())
          LastDef[I->def().id()] = DefIdxOf[I.get()];
      for (const auto &[RegId, DefIdx] : LastDef) {
        Gen[B][DefIdx] = true;
        for (unsigned Other : DefsOfReg[RegId])
          if (Other != DefIdx)
            Kill[B][Other] = true;
      }
    }
    std::vector<Bits> In(NumBlocks, Bits(NumDefs)), Out(NumBlocks,
                                                        Bits(NumDefs));
    Bits EntryIn(NumDefs);
    for (unsigned D = 0; D < F.formals().size(); ++D)
      EntryIn[D] = true;
    if (NumBlocks > 0)
      In[0] = EntryIn;
    bool Changed = true;
    while (Changed) {
      Changed = false;
      for (unsigned B : Cfg.reversePostOrder()) {
        Bits NewIn = B == 0 ? EntryIn : Bits(NumDefs);
        for (unsigned P : Cfg.predecessors(B))
          for (unsigned D = 0; D < NumDefs; ++D)
            if (Out[P][D])
              NewIn[D] = true;
        Bits NewOut = NewIn;
        for (unsigned D = 0; D < NumDefs; ++D)
          NewOut[D] = (NewOut[D] && !Kill[B][D]) || Gen[B][D];
        if (NewIn != In[B] || NewOut != Out[B]) {
          In[B] = NewIn;
          Out[B] = NewOut;
          Changed = true;
        }
      }
    }
    for (unsigned B = 0; B < NumBlocks; ++B) {
      Bits Cur = In[B];
      for (const auto &I : F.blocks()[B]->instructions()) {
        I->forEachUse([&](Reg R, UseKind Kind) {
          unsigned UseIdx = static_cast<unsigned>(Uses.size());
          Uses.push_back(UseSite{I.get(), R, Kind});
          auto It = DefsOfReg.find(R.id());
          if (It == DefsOfReg.end())
            return;
          for (unsigned D : It->second)
            if (Cur[D])
              Edges.emplace_back(D, UseIdx);
        });
        if (I->def().isValid()) {
          for (unsigned D : DefsOfReg[I->def().id()])
            Cur[D] = false;
          Cur[DefIdxOf[I.get()]] = true;
        }
      }
    }
  }
};

TEST(ReachingDefs, MatchesReferenceOnCorpus) {
  size_t Functions = 0, MaxDefs = 0, TotalEdges = 0;
  for (const fixtures::CorpusModule &Entry : fixtures::analysisCorpus()) {
    SCOPED_TRACE(Entry.first);
    for (const auto &F : Entry.second->functions()) {
      CFG Cfg(*F);
      ReachingDefs RD(*F, Cfg);
      ReferenceReachingDefs Ref(*F, Cfg);
      ASSERT_EQ(RD.defSites().size(), Ref.Defs.size()) << F->name();
      for (size_t D = 0; D < Ref.Defs.size(); ++D) {
        ASSERT_EQ(RD.defSites()[D].I, Ref.Defs[D].I) << F->name() << " " << D;
        ASSERT_EQ(RD.defSites()[D].R, Ref.Defs[D].R) << F->name() << " " << D;
      }
      ASSERT_EQ(RD.useSites().size(), Ref.Uses.size()) << F->name();
      for (size_t U = 0; U < Ref.Uses.size(); ++U) {
        ASSERT_EQ(RD.useSites()[U].I, Ref.Uses[U].I) << F->name() << " " << U;
        ASSERT_EQ(RD.useSites()[U].R, Ref.Uses[U].R) << F->name() << " " << U;
        ASSERT_EQ(RD.useSites()[U].Kind, Ref.Uses[U].Kind)
            << F->name() << " " << U;
      }
      // The edge order sets the order of the RDG's Preds and Succs.
      ASSERT_EQ(RD.edges(), Ref.Edges) << F->name();
      ++Functions;
      MaxDefs = std::max(MaxDefs, Ref.Defs.size());
      TotalEdges += Ref.Edges.size();
    }
  }
  // The corpus reaches sets of more than one word and is not vacuous.
  EXPECT_GT(Functions, 600u);
  EXPECT_GT(MaxDefs, 64u);
  EXPECT_GT(TotalEdges, 10000u);
}

//===----------------------------------------------------------------------===//
// RDG structure
//===----------------------------------------------------------------------===//

TEST(RDG, SplitsLoadsAndStores) {
  auto M = parseOrDie(R"(
global g 2 = 5

func main() {
entry:
  la %p, g
  lw %v, 0(%p)
  addi %w, %v, 1
  sw %w, 4(%p)
  ret
}
)");
  const Function &F = *M->functionByName("main");
  CFG Cfg(F);
  RDG G(F, Cfg);

  const Instruction *Load = findOnly(F, Opcode::Lw);
  const Instruction *Store = findOnly(F, Opcode::Sw);
  const Instruction *La = findOnly(F, Opcode::La);
  const Instruction *Addi = findOnly(F, Opcode::AddI);

  unsigned LoadA = G.addressNode(*Load), LoadV = G.valueNode(*Load);
  unsigned StoreA = G.addressNode(*Store), StoreV = G.valueNode(*Store);
  ASSERT_NE(LoadA, ~0u);
  ASSERT_NE(LoadV, ~0u);

  // The split decouples address from value: the load's value node has no
  // predecessors, and its address node no successors.
  EXPECT_TRUE(G.node(LoadV).Preds.empty());
  EXPECT_TRUE(G.node(LoadA).Succs.empty());

  // la feeds both address nodes; addi feeds the store value.
  unsigned LaN = G.primaryNode(*La);
  auto HasEdge = [&](unsigned From, unsigned To) {
    const auto &S = G.node(From).Succs;
    return std::find(S.begin(), S.end(), To) != S.end();
  };
  EXPECT_TRUE(HasEdge(LaN, LoadA));
  EXPECT_TRUE(HasEdge(LaN, StoreA));
  EXPECT_TRUE(HasEdge(G.primaryNode(*Addi), StoreV));
  EXPECT_TRUE(HasEdge(LoadV, G.primaryNode(*Addi)));
}

TEST(RDG, LdStSliceStopsAtLoadValues) {
  auto M = parseOrDie(fixtures::IntVectorSum);
  const Function &F = *M->functionByName("main");
  CFG Cfg(F);
  RDG G(F, Cfg);

  std::vector<bool> LdSt = G.ldstSlice();

  // Loop induction and address arithmetic are in the LdSt slice.
  unsigned InSlice = 0, LoadVals = 0;
  for (unsigned N = 0; N < G.numNodes(); ++N) {
    if (LdSt[N])
      ++InSlice;
    if (G.node(N).Kind == NodeKind::LoadVal) {
      ++LoadVals;
      EXPECT_FALSE(LdSt[N]) << "a load value fed an address transitively "
                               "through a split node";
    }
  }
  EXPECT_GT(InSlice, 0u);
  EXPECT_EQ(LoadVals, 3u);

  // The vector-sum add (va + vb -> vc) computes only a store value: it
  // must not be in the LdSt slice. It is the unique Add fed by two
  // load values.
  const Instruction *SumAdd = nullptr;
  F.forEachInstr([&](const Instruction &I) {
    if (I.op() != Opcode::Add)
      return;
    unsigned N = G.primaryNode(I);
    unsigned LoadPreds = 0;
    for (unsigned P : G.node(N).Preds)
      LoadPreds += G.node(P).Kind == NodeKind::LoadVal;
    if (LoadPreds == 2)
      SumAdd = &I;
  });
  ASSERT_NE(SumAdd, nullptr);
  EXPECT_FALSE(LdSt[G.primaryNode(*SumAdd)]);
}

TEST(RDG, PaperFigure3Components) {
  auto M = parseOrDie(fixtures::InvalidateForCall);
  const Function &F = *M->functionByName("main");
  CFG Cfg(F);
  RDG G(F, Cfg);

  // Identify the paper's instructions. I11 is the reg_tick load (the
  // load with a register base inside the loop, before any "out").
  const Instruction *I11 = nullptr, *I12 = nullptr, *I13 = nullptr,
                    *I14 = nullptr;
  F.forEachInstr([&](const Instruction &I) {
    if (I.op() == Opcode::Bltz)
      I12 = &I;
  });
  ASSERT_NE(I12, nullptr);
  // I13 is the addi feeding the store; I14 the register-based store.
  F.forEachInstr([&](const Instruction &I) {
    if (I.op() == Opcode::Sw && I.mem().Base.isValid())
      I14 = &I;
  });
  ASSERT_NE(I14, nullptr);
  F.forEachInstr([&](const Instruction &I) {
    if (I.op() == Opcode::AddI && I.imm() == 1 && !I14->uses().empty() &&
        I.def() == I14->uses()[0])
      I13 = &I;
  });
  ASSERT_NE(I13, nullptr);
  F.forEachInstr([&](const Instruction &I) {
    if (I.isLoad() && I.mem().Base.isValid() && I13->uses()[0] == I.def())
      I11 = &I;
  });
  ASSERT_NE(I11, nullptr);

  // The paper: {I11v, I12, I13, I14v} form one connected component with
  // no address nodes -- the FPa component of Figure 4.
  const auto &Comp = G.componentOf();
  unsigned C = Comp[G.valueNode(*I11)];
  EXPECT_EQ(Comp[G.primaryNode(*I12)], C);
  EXPECT_EQ(Comp[G.primaryNode(*I13)], C);
  EXPECT_EQ(Comp[G.valueNode(*I14)], C);

  for (unsigned N = 0; N < G.numNodes(); ++N) {
    if (Comp[N] != C)
      continue;
    EXPECT_NE(G.node(N).Kind, NodeKind::LoadAddr);
    EXPECT_NE(G.node(N).Kind, NodeKind::StoreAddr);
    EXPECT_NE(G.node(N).Kind, NodeKind::CallNode);
  }

  // The loop-termination branch slice contains I15 (regno++), which is
  // also in the LdSt slice (regno feeds the sll/add addressing).
  const Instruction *I17 = nullptr;
  F.forEachInstr([&](const Instruction &I) {
    if (I.op() == Opcode::Bne && I.parent()->name() == "skip")
      I17 = &I;
  });
  ASSERT_NE(I17, nullptr);
  std::vector<bool> BrSlice = G.branchSlice(*I17);
  std::vector<bool> LdSt = G.ldstSlice();
  bool Overlaps = false;
  for (unsigned N = 0; N < G.numNodes(); ++N)
    if (BrSlice[N] && LdSt[N])
      Overlaps = true;
  EXPECT_TRUE(Overlaps)
      << "branch slice should share the induction variable with the "
         "LdSt slice, as in the paper's Figure 4";
}

TEST(RDG, CallArgumentFeedersAreFlagged) {
  auto M = parseOrDie(fixtures::InvalidateForCall);
  const Function &F = *M->functionByName("main");
  CFG Cfg(F);
  RDG G(F, Cfg);

  const Instruction *MoveArg = findOnly(F, Opcode::Move);
  EXPECT_TRUE(G.feedsCallOrRet(G.primaryNode(*MoveArg)));

  const Instruction *Bltz = findOnly(F, Opcode::Bltz);
  EXPECT_FALSE(G.feedsCallOrRet(G.primaryNode(*Bltz)));
}

TEST(RDG, FormalNodesDefineParameters) {
  auto M = parseOrDie(R"(
func f(%a, %b) {
entry:
  add %s, %a, %b
  ret %s
}

func main() {
entry:
  li %x, 1
  li %y, 2
  call %r, f(%x, %y)
  out %r
  ret
}
)");
  const Function &F = *M->functionByName("f");
  CFG Cfg(F);
  RDG G(F, Cfg);
  unsigned F0 = G.formalNode(0), F1 = G.formalNode(1);
  EXPECT_EQ(G.node(F0).Kind, NodeKind::Formal);
  const Instruction *Add = findOnly(F, Opcode::Add);
  unsigned AddN = G.primaryNode(*Add);
  auto &P = G.node(AddN).Preds;
  EXPECT_NE(std::find(P.begin(), P.end(), F0), P.end());
  EXPECT_NE(std::find(P.begin(), P.end(), F1), P.end());
  // The add feeds the return node.
  EXPECT_TRUE(G.feedsCallOrRet(AddN));
}

//===----------------------------------------------------------------------===//
// Execution estimates
//===----------------------------------------------------------------------===//

TEST(ExecutionEstimate, StaticLoopWeighting) {
  auto M = parseOrDie(R"(
func main(%x) {
entry:
  li %i, 0
loop:
  addi %i, %i, 1
  blez %x, skip
  addi %q, %i, 0
skip:
  slti %t, %i, 10
  bne %t, %zero, loop
  ret
}
)");
  const Function &F = *M->functionByName("main");
  CFG Cfg(F);
  auto Est = staticEstimate(F, Cfg);
  // entry=0 loop=1 body=2 skip=3 exit-side in skip.
  EXPECT_DOUBLE_EQ(Est[0], 1.0);
  EXPECT_DOUBLE_EQ(Est[1], 5.0); // p=1 in loop of depth 1.
  EXPECT_DOUBLE_EQ(Est[2], 2.5); // 50% branch, depth 1.
  EXPECT_DOUBLE_EQ(Est[3], 5.0);
}

TEST(ExecutionEstimate, ProfiledFunctionsUseExactCounts) {
  auto M = parseOrDie(fixtures::InvalidateForCall);
  vm::VM::Options Opts;
  Opts.CollectProfile = true;
  vm::VM Machine(*M, Opts);
  auto R = Machine.run();
  ASSERT_TRUE(R.Ok) << R.Error;

  BlockWeights W(*M, &Machine.profile());
  const Function *Main = M->functionByName("main");
  EXPECT_TRUE(W.isProfiled(Main));
  // The loop header runs 66 times.
  const sir::BasicBlock *Loop = nullptr;
  for (const auto &BB : Main->blocks())
    if (BB->name() == "loop")
      Loop = BB.get();
  ASSERT_NE(Loop, nullptr);
  EXPECT_DOUBLE_EQ(W.weightOf(Loop), 66.0);
}

TEST(ExecutionEstimate, UnprofiledFunctionsFallBackToStatic) {
  auto M = parseOrDie(R"(
func never() {
entry:
  li %x, 1
loop:
  addi %x, %x, 1
  slti %t, %x, 3
  bne %t, %zero, loop
  ret
}

func main() {
entry:
  ret
}
)");
  vm::VM::Options Opts;
  Opts.CollectProfile = true;
  vm::VM Machine(*M, Opts);
  auto R = Machine.run();
  ASSERT_TRUE(R.Ok) << R.Error;

  BlockWeights W(*M, &Machine.profile());
  const Function *Never = M->functionByName("never");
  EXPECT_FALSE(W.isProfiled(Never));
  // Static estimate gives the loop block weight 5 (p=1, depth 1).
  EXPECT_DOUBLE_EQ(W.weightOf(Never->blocks()[1].get()), 5.0);
}

} // namespace
