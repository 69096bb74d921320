//===- partition/CostModel.cpp - Section 6.1/6.2 cost model ---------------===//

#include "partition/CostModel.h"

#include <cassert>
#include <cstdio>
#include <limits>

using namespace fpint;
using namespace fpint::partition;
using analysis::RDG;

std::string partition::costParamsError(const CostParams &Params) {
  if (Params.DupOverhead < Params.CopyOverhead)
    return "";
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf),
                "cost parameters need o_dupl < o_copy, got o_copy=%g "
                "o_dupl=%g",
                Params.CopyOverhead, Params.DupOverhead);
  return Buf;
}

CostModel::CostModel(const RDG &G, const analysis::BlockWeights &Weights,
                     CostParams Params)
    : G(G), Params(Params) {
  assert(Params.DupOverhead < Params.CopyOverhead &&
         "the paper requires o_dupl < o_copy, else nothing duplicates");
  NodeCount.resize(G.numNodes());
  for (unsigned N = 0; N < G.numNodes(); ++N)
    NodeCount[N] = Weights.weightOf(G.node(N).BB);
  DupCost.assign(G.numNodes(), std::numeric_limits<double>::infinity());
}

void CostModel::recompute(const Assignment &A) {
  const double Inf = std::numeric_limits<double>::infinity();
  DupCost.assign(G.numNodes(), Inf);

  // Iterative min-fixpoint (the RDG may be cyclic through loop-carried
  // dependences; costs only decrease, starting from infinity).
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (unsigned V = 0; V < G.numNodes(); ++V) {
      if (!dupEligible(G, V))
        continue;
      double Cost = Params.DupOverhead * NodeCount[V];
      for (unsigned U : G.node(V).Preds) {
        // A loop-carried self-dependence is satisfied by the duplicate
        // itself (the paper's Figure 6 duplicates regno's increment,
        // whose clone feeds its own next iteration).
        if (U == V)
          continue;
        if (A.isFpa(U))
          continue; // FPa parents already supply FP-file values.
        Cost += std::min(copyingCost(U), DupCost[U]);
        if (Cost == Inf)
          break;
      }
      if (Cost < DupCost[V]) {
        DupCost[V] = Cost;
        Changed = true;
      }
    }
  }
}
