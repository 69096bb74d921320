//===- partition/CostModel.h - Section 6.1/6.2 cost model -----------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The advanced scheme's profitability machinery:
///
///  * Per-node execution counts n_v = n_{B(v)} from block weights.
///  * Copying cost  copying_cost(v) = o_copy * n_{B(v)}.
///  * Duplication cost via the Section 6.2 prepass fixpoint
///      dupl_cost(v) = o_dupl * n_{B(v)}
///                   + sum over parents u of min(copying_cost(u),
///                                               dupl_cost(u)),
///    where parents already in FPa contribute nothing and nodes that
///    cannot be duplicated (loads, calls, formals, unsupported opcodes)
///    have infinite duplication cost.
///  * The duplicate-vs-copy decision: duplicate iff
///    dupl_cost(v) < copying_cost(v). The paper requires
///    o_dupl < o_copy for duplication to ever win.
///
/// Empirically the paper found o_copy in [3,6] and o_dupl in [1.5,3]
/// best; the defaults sit inside those ranges.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_PARTITION_COSTMODEL_H
#define FPINT_PARTITION_COSTMODEL_H

#include "analysis/ExecutionEstimate.h"
#include "analysis/RDG.h"
#include "partition/Assignment.h"

#include <string>
#include <vector>

namespace fpint {
namespace partition {

/// Tunable overhead weights of the Section 6.1 cost model.
struct CostParams {
  double CopyOverhead = 4.0; ///< o_copy, paper's best range [3, 6].
  double DupOverhead = 2.5;  ///< o_dupl, paper's best range [1.5, 3].

  /// Load-balance extension (paper Section 6.6: "the algorithms could
  /// be improved to consider load balance while performing code
  /// partitioning"). When < 1.0, the advanced scheme evicts its least
  /// profitable FPa components until the FPa share of (weighted)
  /// offloadable work does not exceed this cap. 1.0 disables the
  /// extension and reproduces the paper's greedy behaviour.
  double FpaShareCap = 1.0;
};

/// Why \p Params cannot drive a CostModel ("" when it can). The paper
/// requires o_dupl < o_copy; a NaN overhead fails that too. Callers
/// that take costs from input check here instead of reaching the
/// constructor's assert.
std::string costParamsError(const CostParams &Params);

/// Cost-model state for one function's RDG under fixed block weights.
class CostModel {
public:
  CostModel(const analysis::RDG &G, const analysis::BlockWeights &Weights,
            CostParams Params);

  /// n_v: execution count of the block containing node \p V.
  double execCount(unsigned V) const { return NodeCount[V]; }

  /// o_copy * n_v.
  double copyingCost(unsigned V) const {
    return Params.CopyOverhead * NodeCount[V];
  }

  /// The prepass duplication cost (infinite for ineligible nodes); must
  /// be computed against a current INT/FPa assignment via recompute().
  double duplicationCost(unsigned V) const { return DupCost[V]; }

  /// True if the prepass decides to duplicate rather than copy \p V.
  bool preferDuplicate(unsigned V) const {
    return DupCost[V] < copyingCost(V);
  }

  /// Cheapest way to make \p V's value available in FPa.
  double commCost(unsigned V) const {
    return std::min(copyingCost(V), DupCost[V]);
  }

  /// Re-runs the Section 6.2 fixpoint: parents already assigned to FPa
  /// in \p A contribute no communication cost.
  void recompute(const Assignment &A);

  const CostParams &params() const { return Params; }

private:
  const analysis::RDG &G;
  CostParams Params;
  std::vector<double> NodeCount;
  std::vector<double> DupCost;
};

} // namespace partition
} // namespace fpint

#endif // FPINT_PARTITION_COSTMODEL_H
