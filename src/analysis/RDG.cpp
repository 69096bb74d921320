//===- analysis/RDG.cpp - Register dependence graph -----------------------===//

#include "analysis/RDG.h"

#include <algorithm>
#include <cassert>
#include <numeric>

using namespace fpint;
using namespace fpint::analysis;
using sir::Instruction;
using sir::Opcode;
using sir::Reg;
using sir::UseKind;

unsigned RDG::addNode(const Instruction *I, NodeKind Kind, Reg Def,
                      const sir::BasicBlock *BB) {
  Nodes.push_back(RDGNode{I, Kind, Def, BB, {}, {}});
  return static_cast<unsigned>(Nodes.size() - 1);
}

void RDG::addEdge(unsigned From, unsigned To) {
  Nodes[From].Succs.push_back(To);
  Nodes[To].Preds.push_back(From);
}

RDG::RDG(const sir::Function &F, const CFG &Cfg) : F(F) {
  ReachingDefs RD(F, Cfg);
  build(RD);
}

void RDG::build(const ReachingDefs &RD) {
  const unsigned NumInstrs = F.numInstrIds();
  Primary.assign(NumInstrs, ~0u);
  Address.assign(NumInstrs, ~0u);
  Value.assign(NumInstrs, ~0u);

  // Dummy definition nodes for formal parameters (attributed to entry).
  const sir::BasicBlock *Entry = F.entry();
  for (Reg Formal : F.formals())
    Formals.push_back(addNode(nullptr, NodeKind::Formal, Formal, Entry));

  // Create nodes. Loads and stores split into address/value halves.
  F.forEachInstr([&](const Instruction &I) {
    const sir::BasicBlock *BB = I.parent();
    const unsigned Id = I.id();
    switch (I.op()) {
    case Opcode::Lw:
    case Opcode::Lb:
    case Opcode::Lbu:
      Address[Id] = addNode(&I, NodeKind::LoadAddr, Reg(), BB);
      Value[Id] = addNode(&I, NodeKind::LoadVal, I.def(), BB);
      break;
    case Opcode::Sw:
    case Opcode::Sb:
      Address[Id] = addNode(&I, NodeKind::StoreAddr, Reg(), BB);
      Value[Id] = addNode(&I, NodeKind::StoreVal, Reg(), BB);
      break;
    case Opcode::Call:
      Primary[Id] = addNode(&I, NodeKind::CallNode, I.def(), BB);
      break;
    case Opcode::Ret:
      Primary[Id] = addNode(&I, NodeKind::RetNode, Reg(), BB);
      break;
    case Opcode::Out:
      Primary[Id] = addNode(&I, NodeKind::OutVal, Reg(), BB);
      break;
    default:
      Primary[Id] = addNode(&I, NodeKind::Plain, I.def(), BB);
      break;
    }
  });

  // Wire def-use edges through the split-node mapping. A formal's def
  // site names its register; the first formal naming it owns the node.
  std::vector<unsigned> FormalNodeOf(F.numRegs(), ~0u);
  for (size_t FI = Formals.size(); FI-- > 0;)
    FormalNodeOf[F.formals()[FI].id()] = Formals[FI];
  auto ProducerNode = [&](const DefSite &DS) -> unsigned {
    if (!DS.I) {
      assert(FormalNodeOf[DS.R.id()] != ~0u &&
             "formal def site without formal node");
      return FormalNodeOf[DS.R.id()];
    }
    const unsigned Id = DS.I->id();
    if (DS.I->isLoad())
      return Value[Id];
    return Primary[Id];
  };
  auto ConsumerNode = [&](const UseSite &US) -> unsigned {
    const unsigned Id = US.I->id();
    switch (US.Kind) {
    case UseKind::Address:
      return Address[Id];
    case UseKind::StoreValue:
      return US.I->op() == Opcode::Out ? Primary[Id] : Value[Id];
    case UseKind::Plain:
      return Primary[Id];
    }
    return ~0u;
  };

  // A def may reach one consumer node through several operand slots;
  // keep one edge. Edges come grouped by use site, and the use sites
  // that feed one consumer node are adjacent (an instruction's operands,
  // then its address base), so a repeated edge always repeats the
  // producer's latest consumer: LastTo[From] == To.
  std::vector<unsigned> LastTo(Nodes.size(), ~0u);
  for (const auto &[DefIdx, UseIdx] : RD.edges()) {
    unsigned From = ProducerNode(RD.defSites()[DefIdx]);
    unsigned To = ConsumerNode(RD.useSites()[UseIdx]);
    if (From == ~0u || To == ~0u || LastTo[From] == To)
      continue;
    LastTo[From] = To;
    addEdge(From, To);
  }

  computeComponents();
}

unsigned RDG::primaryNode(const Instruction &I) const {
  return Primary[I.id()];
}
unsigned RDG::addressNode(const Instruction &I) const {
  return Address[I.id()];
}
unsigned RDG::valueNode(const Instruction &I) const { return Value[I.id()]; }

unsigned RDG::formalNode(unsigned FormalIdx) const {
  assert(FormalIdx < Formals.size() && "formal index out of range");
  return Formals[FormalIdx];
}

std::vector<unsigned> RDG::nodesOf(const Instruction &I) const {
  std::vector<unsigned> Result;
  const unsigned Id = I.id();
  if (Primary[Id] != ~0u)
    Result.push_back(Primary[Id]);
  if (Address[Id] != ~0u)
    Result.push_back(Address[Id]);
  if (Value[Id] != ~0u)
    Result.push_back(Value[Id]);
  return Result;
}

void RDG::backwardSlice(unsigned From, std::vector<bool> &InSlice) const {
  InSlice.resize(Nodes.size(), false);
  std::vector<unsigned> Work;
  if (!InSlice[From]) {
    InSlice[From] = true;
    Work.push_back(From);
  }
  while (!Work.empty()) {
    unsigned Cur = Work.back();
    Work.pop_back();
    for (unsigned P : Nodes[Cur].Preds) {
      if (InSlice[P])
        continue;
      InSlice[P] = true;
      Work.push_back(P);
    }
  }
}

void RDG::forwardSlice(unsigned From, std::vector<bool> &InSlice) const {
  InSlice.resize(Nodes.size(), false);
  std::vector<unsigned> Work;
  if (!InSlice[From]) {
    InSlice[From] = true;
    Work.push_back(From);
  }
  while (!Work.empty()) {
    unsigned Cur = Work.back();
    Work.pop_back();
    for (unsigned S : Nodes[Cur].Succs) {
      if (InSlice[S])
        continue;
      InSlice[S] = true;
      Work.push_back(S);
    }
  }
}

std::vector<bool> RDG::ldstSlice() const {
  std::vector<bool> Slice(Nodes.size(), false);
  for (unsigned N = 0; N < Nodes.size(); ++N)
    if (Nodes[N].Kind == NodeKind::LoadAddr ||
        Nodes[N].Kind == NodeKind::StoreAddr)
      backwardSlice(N, Slice);
  return Slice;
}

std::vector<bool> RDG::branchSlice(const Instruction &Br) const {
  assert(Br.isCondBranch() && "branch slice of a non-branch");
  std::vector<bool> Slice(Nodes.size(), false);
  backwardSlice(Primary[Br.id()], Slice);
  return Slice;
}

bool RDG::feedsCallOrRet(unsigned NodeId) const {
  for (unsigned S : Nodes[NodeId].Succs) {
    NodeKind K = Nodes[S].Kind;
    if (K == NodeKind::CallNode || K == NodeKind::RetNode)
      return true;
  }
  return false;
}

void RDG::computeComponents() {
  // Union-find over undirected edges.
  std::vector<unsigned> Parent(Nodes.size());
  std::iota(Parent.begin(), Parent.end(), 0u);
  std::vector<unsigned> Rank(Nodes.size(), 0);

  std::vector<unsigned> PathBuf;
  auto Find = [&](unsigned X) {
    PathBuf.clear();
    while (Parent[X] != X) {
      PathBuf.push_back(X);
      X = Parent[X];
    }
    for (unsigned P : PathBuf)
      Parent[P] = X;
    return X;
  };
  auto Union = [&](unsigned A, unsigned B) {
    A = Find(A);
    B = Find(B);
    if (A == B)
      return;
    if (Rank[A] < Rank[B])
      std::swap(A, B);
    Parent[B] = A;
    if (Rank[A] == Rank[B])
      ++Rank[A];
  };

  for (unsigned N = 0; N < Nodes.size(); ++N)
    for (unsigned S : Nodes[N].Succs)
      Union(N, S);

  Component.assign(Nodes.size(), 0);
  std::vector<unsigned> CompId(Nodes.size(), ~0u);
  NumComponents = 0;
  for (unsigned N = 0; N < Nodes.size(); ++N) {
    unsigned Root = Find(N);
    if (CompId[Root] == ~0u)
      CompId[Root] = NumComponents++;
    Component[N] = CompId[Root];
  }
}
