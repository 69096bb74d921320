//===- regalloc/Allocator.h - Pluggable register-allocation backends ------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The register-allocation backend interface (see docs/REGALLOC.md).
/// An Allocator rewrites one function at a time onto the architectural
/// register files described by ArchLayout, honoring one fixed
/// contract so every downstream consumer (VM oracle, timing
/// simulator, partition statistics) works with any backend:
///
///  * the calling convention is lowered first (arguments through
///    $a0..$a3 per class, results through $v0);
///  * INT and FP registers are allocated from their own files; FPa
///    partition operands arrive as RegClass::Fp and therefore land in
///    FP registers automatically;
///  * intervals live across a call take callee-saved registers or
///    spill; used callee-saved registers are saved/restored in the
///    prologue/epilogue;
///  * spilled values are rewritten through the reserved scratch
///    registers with frame loads/stores, and the function is left
///    renumbered with setAllocated(true).
///
/// Backends register by name in the AllocatorRegistry; the incumbent
/// is "regalloc" (and remains the default), the Poletto-Sarkar
/// linear-scan backend is "regalloc-linear". Each name is also a
/// pipeline-text token (see core/PassManager.h), so the text selects
/// the backend and every cache key and run id carries it.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_REGALLOC_ALLOCATOR_H
#define FPINT_REGALLOC_ALLOCATOR_H

#include "regalloc/RegAlloc.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace fpint {
namespace regalloc {

/// One register-allocation backend. Stateless across functions: the
/// module driver (allocateModule) calls runOnFunction once per
/// function, bracketing each call with AnalysisManager invalidation
/// and recording per-function wall time.
class Allocator {
public:
  virtual ~Allocator() = default;

  /// Stable registry name ("regalloc", "regalloc-linear", ...).
  virtual const char *name() const = 0;

  /// Allocates \p F in place, emplacing its FuncAlloc into
  /// \p Out.Funcs. When \p AM is non-null all analyses (CFG,
  /// liveness, live intervals) must be fetched through it so cache
  /// counters attribute the lookups to the running pass. Returns
  /// false with \p Error set on a contract violation (e.g. too many
  /// formals); \p F is left untouched in that case.
  virtual bool runOnFunction(sir::Function &F, ModuleAlloc &Out,
                             analysis::AnalysisManager *AM,
                             std::string &Error) = 0;
};

/// Name -> factory map of every available backend. global() is
/// pre-populated with "regalloc" (the incumbent, also the default)
/// and "regalloc-linear"; tests may register additional names
/// (latest wins, like PassRegistry).
class AllocatorRegistry {
public:
  using Factory = std::function<std::unique_ptr<Allocator>()>;

  static AllocatorRegistry &global();

  void registerAllocator(const std::string &Name, Factory F);
  /// Null if \p Name is unknown.
  std::unique_ptr<Allocator> create(const std::string &Name) const;
  bool contains(const std::string &Name) const;
  std::vector<std::string> names() const;

private:
  std::map<std::string, Factory> Factories;
};

/// The backend allocateModule dispatches to for an empty name.
inline const char *defaultAllocatorName() { return "regalloc"; }

/// Allocates every function of \p M with the backend named
/// \p Name (empty selects defaultAllocatorName()). An unknown name
/// produces a ModuleAlloc carrying only an error. See
/// regalloc::allocateModule for the AM contract.
ModuleAlloc allocateModuleWith(const std::string &Name, sir::Module &M,
                               analysis::AnalysisManager *AM = nullptr);

/// Backend factories (defined next to each implementation; wired into
/// AllocatorRegistry::global() so registration order is
/// deterministic).
std::unique_ptr<Allocator> createIncumbentAllocator();
std::unique_ptr<Allocator> createLinearScanAllocator();

} // namespace regalloc
} // namespace fpint

#endif // FPINT_REGALLOC_ALLOCATOR_H
