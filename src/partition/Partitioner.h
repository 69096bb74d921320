//===- partition/Partitioner.h - Whole-module partitioning driver ---------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one of the paper's two partitioning schemes over every function
/// of a module and rewrites the code in place: analysis (CFG, RDG),
/// scheme-specific assignment, structural validation, and rewrite.
/// Also provides partition statistics in the paper's terms -- the "size
/// of the FPa partition" as a percentage of dynamic instructions
/// (Figure 8) and the copy/duplicate overheads (Section 7.2).
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_PARTITION_PARTITIONER_H
#define FPINT_PARTITION_PARTITIONER_H

#include "analysis/AnalysisManager.h"
#include "analysis/ExecutionEstimate.h"
#include "partition/CostModel.h"
#include "partition/Rewriter.h"
#include "sir/IR.h"
#include "vm/VM.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace fpint {
namespace partition {

enum class Scheme {
  None,     ///< Conventional code: everything in the INT subsystem.
  Basic,    ///< Section 5: components, no extra instructions.
  Advanced, ///< Section 6: copies and duplication under the cost model.
};

const char *schemeName(Scheme S);

/// Result of partitioning one module.
struct ModuleRewrite {
  std::unordered_map<const sir::Function *, RewriteReport> Reports;
  unsigned StaticCopies = 0;
  unsigned StaticDups = 0;
  unsigned StaticCopyBacks = 0;
  /// Validation diagnostics (empty on success).
  std::vector<std::string> Errors;
};

/// Partitions and rewrites \p M in place using \p ProfileWeights for the
/// advanced cost model (may be null: static estimates). The module must
/// be renumbered and verify cleanly. When \p AM is non-null the CFG /
/// ReachingDefs / RDG / BlockWeights analyses are fetched through it
/// (cache-aware); each rewritten function's entries are invalidated in
/// place. Advanced-scheme \p Params that costParamsError() rejects
/// leave \p M untouched and are reported in Errors.
ModuleRewrite partitionModule(sir::Module &M, Scheme S,
                              const vm::Profile *ProfileWeights,
                              CostParams Params = CostParams(),
                              analysis::AnalysisManager *AM = nullptr);

/// Dynamic-instruction accounting over a (partitioned) module, computed
/// from a measurement profile of that same module: every instruction in
/// a block executes once per block entry.
struct DynStats {
  uint64_t Total = 0;     ///< All dynamic instructions.
  uint64_t Fpa = 0;       ///< Executed in the FPa subsystem (",a" ops).
  uint64_t NativeFp = 0;  ///< Native floating-point instructions.
  uint64_t Copies = 0;    ///< cp_to_fp (integer partitioning traffic).
  uint64_t Dups = 0;      ///< Duplicated FPa clones.
  uint64_t CopyBacks = 0; ///< cp_to_int for call args / return values.
  uint64_t Loads = 0;
  uint64_t Stores = 0;

  /// The paper's Figure 8 metric: FPa partition size as a fraction of
  /// all dynamic instructions.
  double fpaFraction() const {
    return Total ? static_cast<double>(Fpa) / static_cast<double>(Total) : 0;
  }
  double copyFraction() const {
    return Total ? static_cast<double>(Copies + CopyBacks) /
                       static_cast<double>(Total)
                 : 0;
  }
  double dupFraction() const {
    return Total ? static_cast<double>(Dups) / static_cast<double>(Total) : 0;
  }
};

/// Computes DynStats for \p M from \p MeasureProfile (a profile of a run
/// of \p M itself). \p Rewrite identifies inserted copy/dup instructions;
/// pass null for unpartitioned modules.
DynStats computeDynStats(const sir::Module &M,
                         const vm::Profile &MeasureProfile,
                         const ModuleRewrite *Rewrite);

} // namespace partition
} // namespace fpint

#endif // FPINT_PARTITION_PARTITIONER_H
