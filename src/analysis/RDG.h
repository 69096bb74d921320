//===- analysis/RDG.h - Register dependence graph -------------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The register dependence graph of Section 3 of the paper: a directed
/// graph with a node per static instruction and an edge i -> j whenever i
/// produces a register value j may consume (from reaching definitions).
/// Loads and stores are split into an address node and a value node so
/// that backward slices never cross a load's value and forward slices
/// never cross an address: the address computation executes in the INT
/// subsystem while the data may live in either register file. Calls and
/// returns get their own node kinds because the calling convention pins
/// them to integer registers; formal parameters appear as dummy
/// definition nodes at function entry (Section 6.4).
///
/// The graph also exposes the paper's computational slices: backward and
/// forward slices, the LdSt slice (everything feeding a memory address),
/// and connected components of the undirected graph, which the basic
/// partitioning scheme assigns wholesale to one subsystem.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_ANALYSIS_RDG_H
#define FPINT_ANALYSIS_RDG_H

#include "analysis/CFG.h"
#include "analysis/ReachingDefs.h"
#include "sir/IR.h"

#include <vector>

namespace fpint {
namespace analysis {

enum class NodeKind : uint8_t {
  Plain,     ///< ALU op, copy, branch, jump, or FP op.
  LoadAddr,  ///< Address half of a load (INT subsystem).
  LoadVal,   ///< Value half of a load (either register file).
  StoreAddr, ///< Address half of a store (INT subsystem).
  StoreVal,  ///< Value half of a store (either register file).
  CallNode,  ///< A call: argument uses and result def (integer regs).
  RetNode,   ///< A return: its value use (integer regs).
  OutVal,    ///< The value side of an Out (store-value-like terminal).
  Formal,    ///< Dummy definition of a formal parameter at entry.
};

struct RDGNode {
  const sir::Instruction *I = nullptr; ///< Null for Formal nodes.
  NodeKind Kind = NodeKind::Plain;
  sir::Reg Def;                       ///< Value this node defines, if any.
  const sir::BasicBlock *BB = nullptr; ///< Block for execution counts.
  std::vector<unsigned> Preds;
  std::vector<unsigned> Succs;
};

/// Register dependence graph for one (renumbered) function.
class RDG {
public:
  RDG(const sir::Function &F, const CFG &Cfg);

  const sir::Function &function() const { return F; }
  unsigned numNodes() const { return static_cast<unsigned>(Nodes.size()); }
  const RDGNode &node(unsigned Id) const { return Nodes[Id]; }

  /// The primary node of \p I: its Plain/CallNode/RetNode/OutVal node,
  /// or ~0u for loads and stores (which have only split nodes).
  unsigned primaryNode(const sir::Instruction &I) const;
  /// The address node of load/store \p I (~0u otherwise).
  unsigned addressNode(const sir::Instruction &I) const;
  /// The value node of load/store \p I (~0u otherwise).
  unsigned valueNode(const sir::Instruction &I) const;
  /// The Formal node for formal index \p FormalIdx.
  unsigned formalNode(unsigned FormalIdx) const;

  /// Every node belonging to \p I (one for most, two for loads/stores).
  std::vector<unsigned> nodesOf(const sir::Instruction &I) const;

  /// Marks the backward slice of \p From (inclusive) in \p InSlice.
  void backwardSlice(unsigned From, std::vector<bool> &InSlice) const;
  /// Marks the forward slice of \p From (inclusive) in \p InSlice.
  void forwardSlice(unsigned From, std::vector<bool> &InSlice) const;

  /// The LdSt slice: union of backward slices of all address nodes
  /// (Section 3: "the set of all instructions that contribute to the
  /// computation of addresses for load/store instructions").
  std::vector<bool> ldstSlice() const;

  /// The branch slice rooted at branch instruction \p Br.
  std::vector<bool> branchSlice(const sir::Instruction &Br) const;

  /// Connected component id of each node in the undirected graph.
  const std::vector<unsigned> &componentOf() const { return Component; }
  unsigned numComponents() const { return NumComponents; }

  /// True if this node's value directly feeds a call argument or return
  /// value (the paper's "actual parameter" producers, Section 6.4).
  bool feedsCallOrRet(unsigned NodeId) const;

private:
  void build(const ReachingDefs &RD);
  unsigned addNode(const sir::Instruction *I, NodeKind Kind, sir::Reg Def,
                   const sir::BasicBlock *BB);
  void addEdge(unsigned From, unsigned To);
  void computeComponents();

  const sir::Function &F;
  std::vector<RDGNode> Nodes;
  // Per instruction id: primary / address / value node ids (~0u if none).
  std::vector<unsigned> Primary;
  std::vector<unsigned> Address;
  std::vector<unsigned> Value;
  std::vector<unsigned> Formals;
  std::vector<unsigned> Component;
  unsigned NumComponents = 0;
};

} // namespace analysis
} // namespace fpint

#endif // FPINT_ANALYSIS_RDG_H
