//===- partition/AdvancedPartitioner.cpp - The paper's advanced scheme ----===//

#include "partition/AdvancedPartitioner.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <functional>
#include <numeric>
#include <string>
#include <unordered_map>

using namespace fpint;
using namespace fpint::partition;
using analysis::NodeKind;
using analysis::RDG;

namespace {

/// True if the pinned node \p N also pins its entire backward slice.
/// Memory addresses and unsupported consumers need their producers in
/// integer registers; calls/returns instead take copy-backs (6.4), and
/// pinned pure definitions (formals, byte load values) have no register
/// ancestors to pin.
bool pinsBackwardSlice(const RDG &G, unsigned N) {
  const analysis::RDGNode &Node = G.node(N);
  switch (Node.Kind) {
  case NodeKind::LoadAddr:
  case NodeKind::StoreAddr:
    return true;
  case NodeKind::StoreVal:
    return pinnedToInt(G, N); // Byte stores keep integer producers.
  case NodeKind::Plain:
    return pinnedToInt(G, N); // Unsupported opcodes consume int regs.
  default:
    return false;
  }
}

class AdvancedImpl {
public:
  AdvancedImpl(const RDG &G, const analysis::BlockWeights &W,
               CostParams Params)
      : G(G), A(G), Cost(G, W, Params) {}

  Assignment run();

private:
  void initialAssignment();
  void phase1();
  void phase2();
  void balanceLoad();
  void markCopyBacks();
  void computeCopyDupSets();

  void collectFpaSlice(unsigned U);
  double lossOfMoving();
  void pushFpaChildren(unsigned N, std::deque<unsigned> &Queue,
                       std::vector<bool> &Queued);

  const RDG &G;
  Assignment A;
  CostModel Cost;

  // Phase 1 scratch, sized once per function. Each worklist item sets
  // and then clears only the entries it touches, so an item costs time
  // proportional to its backward slice, not to the whole graph.
  std::vector<bool> InSlice, InP, Seen;
  std::vector<unsigned> SliceNodes, SeenNodes;
  std::vector<unsigned> P; ///< FPa nodes of the current slice, ascending.
};

void AdvancedImpl::initialAssignment() {
  // Everything starts in FPa except the pinned nodes and the backward
  // closures of the slice-pinning consumers.
  for (unsigned N = 0; N < G.numNodes(); ++N)
    A.NodeSide[N] = pinnedToInt(G, N) ? Side::Int : Side::Fpa;

  std::vector<bool> Closure(G.numNodes(), false);
  for (unsigned N = 0; N < G.numNodes(); ++N)
    if (pinsBackwardSlice(G, N))
      G.backwardSlice(N, Closure);
  for (unsigned N = 0; N < G.numNodes(); ++N)
    if (Closure[N])
      A.NodeSide[N] = Side::Int;
}

void AdvancedImpl::pushFpaChildren(unsigned N, std::deque<unsigned> &Queue,
                                   std::vector<bool> &Queued) {
  for (unsigned S : G.node(N).Succs)
    if (A.isFpa(S) && !Queued[S]) {
      Queued[S] = true;
      Queue.push_back(S);
    }
}

void AdvancedImpl::collectFpaSlice(unsigned U) {
  // Walk U's backward slice and keep its FPa members. The walk uses
  // SliceNodes as its own work list instead of RDG::backwardSlice,
  // whose per-call work list allocation made Phase 1 measurably
  // slower. Sorting P ascending fixes the summation order in
  // lossOfMoving, so the loss is the same double whatever order the
  // walk visited the slice in.
  SliceNodes.clear();
  P.clear();
  InSlice[U] = true;
  SliceNodes.push_back(U);
  for (size_t I = 0; I < SliceNodes.size(); ++I)
    for (unsigned Q : G.node(SliceNodes[I]).Preds)
      if (!InSlice[Q]) {
        InSlice[Q] = true;
        SliceNodes.push_back(Q);
      }
  for (unsigned N : SliceNodes) {
    InSlice[N] = false;
    if (A.isFpa(N)) {
      InP[N] = true;
      P.push_back(N);
    }
  }
  std::sort(P.begin(), P.end());
}

double AdvancedImpl::lossOfMoving() {
  double Loss = 0.0;
  for (unsigned V : P) {
    if (G.feedsCallOrRet(V)) {
      // Actual-parameter producers: moving them to INT removes the
      // copy-back they would otherwise need (Section 6.4).
      Loss -= Cost.copyingCost(V);
      continue;
    }
    Loss += Cost.execCount(V);
    // alpha(v): once INT, v must be copied/duplicated if it still has
    // FPa children outside P.
    bool FpaChildOutside = false;
    for (unsigned S : G.node(V).Succs)
      if (A.isFpa(S) && !InP[S])
        FpaChildOutside = true;
    if (FpaChildOutside)
      Loss += Cost.commCost(V);
  }

  // delta(q) over boundary parents of P: a parent whose FPa children all
  // lie inside P no longer needs its copy/duplicate.
  SeenNodes.clear();
  for (unsigned V : P) {
    for (unsigned Q : G.node(V).Preds) {
      if (A.isFpa(Q) || Seen[Q])
        continue;
      Seen[Q] = true;
      SeenNodes.push_back(Q);
      bool AllInsideP = true;
      bool AnyFpaChild = false;
      for (unsigned S : G.node(Q).Succs) {
        if (!A.isFpa(S))
          continue;
        AnyFpaChild = true;
        if (!InP[S])
          AllInsideP = false;
      }
      if (AnyFpaChild && AllInsideP)
        Loss -= Cost.commCost(Q);
    }
  }
  for (unsigned Q : SeenNodes)
    Seen[Q] = false;
  return Loss;
}

void AdvancedImpl::phase1() {
  Cost.recompute(A);

  std::deque<unsigned> Queue;
  std::vector<bool> Queued(G.numNodes(), false);
  for (unsigned N = 0; N < G.numNodes(); ++N)
    if (!A.isFpa(N))
      pushFpaChildren(N, Queue, Queued);
  // Also seed FPa nodes with no INT parents (e.g. load values feeding a
  // return): their copy-back cost can make moving them to INT a win.
  for (unsigned N = 0; N < G.numNodes(); ++N)
    if (A.isFpa(N) && G.feedsCallOrRet(N) && !Queued[N]) {
      Queued[N] = true;
      Queue.push_back(N);
    }

  // Safety valve: the worklist is monotone in practice (moves only
  // shrink FPa; deferrals walk forward), but RDG cycles could in theory
  // re-enqueue nodes, so bound the total work.
  uint64_t Budget = static_cast<uint64_t>(G.numNodes() + 1) * 64;

  InSlice.assign(G.numNodes(), false);
  InP.assign(G.numNodes(), false);
  Seen.assign(G.numNodes(), false);
  while (!Queue.empty() && Budget-- > 0) {
    unsigned U = Queue.front();
    Queue.pop_front();
    Queued[U] = false;
    if (!A.isFpa(U))
      continue;

    // P = FPa nodes in the backward slice of U.
    collectFpaSlice(U);
    double Loss = lossOfMoving();
    for (unsigned N : P)
      InP[N] = false;
    if (Loss < 0.0) {
      for (unsigned N : P)
        A.NodeSide[N] = Side::Int;
      Cost.recompute(A);
      for (unsigned N : P)
        pushFpaChildren(N, Queue, Queued);
    } else if (Loss == 0.0) {
      // Not enough information; revisit when the children are examined.
      for (unsigned N : P)
        pushFpaChildren(N, Queue, Queued);
    }
  }
}

void AdvancedImpl::computeCopyDupSets() {
  Cost.recompute(A);

  // Boundary nodes: INT definitions with at least one FPa consumer.
  std::vector<unsigned> Work;
  for (unsigned N = 0; N < G.numNodes(); ++N) {
    if (A.isFpa(N))
      continue;
    bool HasFpaChild = false;
    for (unsigned S : G.node(N).Succs)
      HasFpaChild |= A.isFpa(S);
    if (!HasFpaChild)
      continue;
    assert(copyEligible(G, N) && "boundary node without a def");
    if (dupEligible(G, N) && Cost.preferDuplicate(N))
      A.Dup[N] = true;
    else
      A.Copy[N] = true;
    Work.push_back(N);
  }

  // Duplicates need their own INT parents available in FPa: close the
  // set (the prepass costs already priced this chain).
  while (!Work.empty()) {
    unsigned V = Work.back();
    Work.pop_back();
    if (!A.Dup[V])
      continue;
    for (unsigned U : G.node(V).Preds) {
      if (A.isFpa(U) || A.Copy[U] || A.Dup[U])
        continue;
      if (dupEligible(G, U) && Cost.preferDuplicate(U))
        A.Dup[U] = true;
      else
        A.Copy[U] = true;
      Work.push_back(U);
    }
  }
}

void AdvancedImpl::markCopyBacks() {
  for (unsigned N = 0; N < G.numNodes(); ++N) {
    A.CopyBack[N] = false;
    if (A.isFpa(N) && G.feedsCallOrRet(N))
      A.CopyBack[N] = true;
  }
}

void AdvancedImpl::phase2() {
  computeCopyDupSets();
  markCopyBacks();

  // Connected components of the "disconnected" graph: FPa-FPa edges plus
  // the attachment of each tentative copy/duplicate to the FPa (or
  // duplicated) consumers it serves. The INT originals stay outside.
  std::vector<unsigned> Parent(G.numNodes());
  std::iota(Parent.begin(), Parent.end(), 0u);
  std::function<unsigned(unsigned)> Find = [&](unsigned X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  };
  auto Union = [&](unsigned X, unsigned Y) { Parent[Find(X)] = Find(Y); };

  auto InCommSet = [&](unsigned N) { return A.Copy[N] || A.Dup[N]; };
  for (unsigned N = 0; N < G.numNodes(); ++N) {
    for (unsigned S : G.node(N).Succs) {
      bool NIn = A.isFpa(N) || InCommSet(N);
      bool SIn = A.isFpa(S) || InCommSet(S);
      if (NIn && SIn)
        Union(N, S);
    }
  }

  // Profit per component holding at least one copy/duplicate.
  std::vector<double> Profit(G.numNodes(), 0.0);
  std::vector<bool> HasComm(G.numNodes(), false);
  for (unsigned N = 0; N < G.numNodes(); ++N) {
    unsigned Root = Find(N);
    if (A.isFpa(N)) {
      Profit[Root] += Cost.execCount(N);
      if (A.CopyBack[N]) {
        Profit[Root] -= Cost.copyingCost(N);
        // Copy-backs are communication too: components kept alive only
        // by call-argument/return-value copies must also justify
        // themselves (Section 6.4).
        HasComm[Root] = true;
      }
    }
    if (A.Copy[N]) {
      Profit[Root] -= Cost.copyingCost(N);
      HasComm[Root] = true;
    }
    if (A.Dup[N]) {
      Profit[Root] -= Cost.params().DupOverhead * Cost.execCount(N);
      HasComm[Root] = true;
    }
  }

  for (unsigned N = 0; N < G.numNodes(); ++N) {
    unsigned Root = Find(N);
    if (!HasComm[Root] || Profit[Root] >= 0.0)
      continue;
    // Unprofitable: move the component's FPa nodes to INT and drop its
    // copies and duplicates.
    if (A.isFpa(N))
      A.NodeSide[N] = Side::Int;
    A.Copy[N] = false;
    A.Dup[N] = false;
  }
  markCopyBacks();
}

void AdvancedImpl::balanceLoad() {
  const double Cap = Cost.params().FpaShareCap;
  if (Cap >= 1.0)
    return;

  // Weighted share of the instruction stream assigned to FPa.
  double TotalWeight = 0.0, FpaWeight = 0.0;
  for (unsigned N = 0; N < G.numNodes(); ++N) {
    TotalWeight += Cost.execCount(N);
    if (A.isFpa(N))
      FpaWeight += Cost.execCount(N);
  }
  if (TotalWeight == 0.0 || FpaWeight / TotalWeight <= Cap)
    return;

  // Group the FPa side into components (same construction as Phase 2).
  std::vector<unsigned> Parent(G.numNodes());
  std::iota(Parent.begin(), Parent.end(), 0u);
  std::function<unsigned(unsigned)> Find = [&](unsigned X) {
    while (Parent[X] != X) {
      Parent[X] = Parent[Parent[X]];
      X = Parent[X];
    }
    return X;
  };
  auto InGroup = [&](unsigned N) {
    return A.isFpa(N) || A.Copy[N] || A.Dup[N];
  };
  for (unsigned N = 0; N < G.numNodes(); ++N)
    for (unsigned S : G.node(N).Succs)
      if (InGroup(N) && InGroup(S))
        Parent[Find(N)] = Find(S);

  struct Group {
    double Benefit = 0.0; ///< Weighted FPa instructions gained.
    double Overhead = 0.0;
    std::vector<unsigned> Nodes;
  };
  std::unordered_map<unsigned, Group> Groups;
  for (unsigned N = 0; N < G.numNodes(); ++N) {
    if (!InGroup(N))
      continue;
    Group &Grp = Groups[Find(N)];
    Grp.Nodes.push_back(N);
    if (A.isFpa(N)) {
      Grp.Benefit += Cost.execCount(N);
      if (A.CopyBack[N])
        Grp.Overhead += Cost.copyingCost(N);
    }
    if (A.Copy[N])
      Grp.Overhead += Cost.copyingCost(N);
    if (A.Dup[N])
      Grp.Overhead += Cost.params().DupOverhead * Cost.execCount(N);
  }

  // Evict in ascending net-profit order until the cap is met.
  std::vector<Group *> Order;
  Order.reserve(Groups.size());
  for (auto &[Root, Grp] : Groups) {
    (void)Root;
    Order.push_back(&Grp);
  }
  std::sort(Order.begin(), Order.end(), [](const Group *L, const Group *R) {
    return (L->Benefit - L->Overhead) < (R->Benefit - R->Overhead);
  });
  for (Group *Grp : Order) {
    if (FpaWeight / TotalWeight <= Cap)
      break;
    for (unsigned N : Grp->Nodes) {
      if (A.isFpa(N)) {
        FpaWeight -= Cost.execCount(N);
        A.NodeSide[N] = Side::Int;
      }
      A.Copy[N] = false;
      A.Dup[N] = false;
    }
  }
  markCopyBacks();
}

Assignment AdvancedImpl::run() {
  initialAssignment();
  phase1();
  phase2();
  balanceLoad();
  return std::move(A);
}

} // namespace

Assignment partition::partitionAdvanced(const RDG &G,
                                        const analysis::BlockWeights &W,
                                        CostParams Params) {
  return AdvancedImpl(G, W, Params).run();
}

std::vector<std::string> partition::validateAssignment(const Assignment &A) {
  std::vector<std::string> Errors;
  const RDG &G = *A.G;
  auto NodeDesc = [&](unsigned N) {
    const analysis::RDGNode &Node = G.node(N);
    std::string S = "node " + std::to_string(N);
    if (Node.I)
      S += " (" + std::string(sir::opcodeName(Node.I->op())) + ")";
    return S;
  };

  for (unsigned N = 0; N < G.numNodes(); ++N) {
    if (A.isFpa(N) && pinnedToInt(G, N))
      Errors.push_back(NodeDesc(N) + ": pinned node assigned to FPa");
    if (A.Dup[N] && !dupEligible(G, N))
      Errors.push_back(NodeDesc(N) + ": ineligible node duplicated");
    if ((A.Copy[N] || A.Dup[N]) && A.isFpa(N))
      Errors.push_back(NodeDesc(N) + ": FPa node carries a copy/dup");
    if (A.CopyBack[N] && !A.isFpa(N))
      Errors.push_back(NodeDesc(N) + ": INT node carries a copy-back");

    if (A.isFpa(N) || A.Dup[N]) {
      // All INT parents must communicate.
      for (unsigned U : G.node(N).Preds)
        if (!A.isFpa(U) && !A.Copy[U] && !A.Dup[U])
          Errors.push_back(NodeDesc(N) + ": INT parent " + NodeDesc(U) +
                           " without copy/duplicate");
    }
    if (A.isFpa(N) && G.feedsCallOrRet(N) && !A.CopyBack[N])
      Errors.push_back(NodeDesc(N) +
                       ": feeds call/return without a copy-back");
    if (A.isFpa(N)) {
      // FPa values may only flow to FPa consumers, copy-backs aside.
      for (unsigned S : G.node(N).Succs) {
        NodeKind K = G.node(S).Kind;
        bool CallRet = K == NodeKind::CallNode || K == NodeKind::RetNode;
        if (!A.isFpa(S) && !CallRet)
          Errors.push_back(NodeDesc(N) + ": FPa value flows to INT " +
                           NodeDesc(S));
      }
    }
  }
  return Errors;
}
