//===- partition/BasicPartitioner.cpp - The paper's basic scheme ----------===//

#include "partition/BasicPartitioner.h"

using namespace fpint;
using namespace fpint::partition;
using analysis::RDG;

Assignment partition::partitionBasic(const RDG &G) {
  Assignment A(G);
  const unsigned NumComponents = G.numComponents();
  std::vector<bool> ComponentPinned(NumComponents, false);
  for (unsigned N = 0; N < G.numNodes(); ++N)
    if (pinnedToInt(G, N))
      ComponentPinned[G.componentOf()[N]] = true;
  for (unsigned N = 0; N < G.numNodes(); ++N)
    A.NodeSide[N] = ComponentPinned[G.componentOf()[N]] ? Side::Int : Side::Fpa;
  return A;
}

// Conditions 2 and 3 ask that no ancestor (backward slice) and no
// descendant (forward slice) of an FPa node be in INT. The slices are
// plain reachability over Preds and Succs, so this is the same as
// asking that every Pred and every Succ of every FPa node be FPa:
//  * if an FPa node has an INT neighbour, that neighbour lies in one of
//    its slices, so the slice check fails too;
//  * if every FPa node has only FPa neighbours, then by induction on
//    path length every node a path reaches from an FPa node, in either
//    direction, is FPa, so no slice meets INT.
// One pass over the edges therefore decides it.
bool partition::satisfiesBasicConditions(const Assignment &A) {
  const RDG &G = *A.G;
  for (unsigned N = 0; N < G.numNodes(); ++N) {
    if (!A.isFpa(N))
      continue;
    for (unsigned P : G.node(N).Preds)
      if (!A.isFpa(P))
        return false;
    for (unsigned S : G.node(N).Succs)
      if (!A.isFpa(S))
        return false;
  }
  return true;
}
