//===- core/RunCache.h - Memoized compile + simulate results --------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-wide memoization for the evaluation harness. The bench
/// matrix re-requests the same (workload, scheme, costs) compiles and
/// the same (compiled run, machine) simulations many times -- across
/// figures, sweeps, and conventional baselines -- so both layers are
/// cached:
///
///  * compile(): memoizes core::compileAndMeasure keyed by a canonical
///    serialization of (module name, every PipelineConfig field
///    including CostParams). Each distinct point compiles exactly once
///    per process; all callers share one immutable PipelineRun.
///  * simulate(): memoizes core::simulate keyed by (run identity,
///    MachineConfig::canonicalKey()). Together with the run's cached
///    packed ref-input trace (PipelineRun::packedTrace), the trace run
///    of the functional VM happens at most once per compiled module no
///    matter how many machines it is simulated on.
///
/// Thread-safety: both layers are safe to call from thread-pool
/// workers. A second request for an in-flight key blocks on the
/// computing thread's shared_future instead of duplicating work; that
/// wait is deadlock-free because the computing task is by construction
/// already running on some thread.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_CORE_RUNCACHE_H
#define FPINT_CORE_RUNCACHE_H

#include "core/Pipeline.h"

#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace fpint {
namespace core {

class RunCache {
public:
  /// Cached runs are immutable and shared; they stay alive for the
  /// cache's lifetime (traces point into the run's module).
  using RunPtr = std::shared_ptr<const PipelineRun>;

  /// Memoized compileAndMeasure. \p ModuleName must uniquely identify
  /// \p M's contents (the workload registry guarantees this for
  /// benchmark modules); the full \p Config is part of the key. The
  /// returned run may be a failed one (!ok()) -- failures are cached
  /// too so a bad configuration reports once instead of recompiling.
  RunPtr compile(const sir::Module &M, const std::string &ModuleName,
                 const PipelineConfig &Config);

  /// Memoized core::simulate for a run obtained from this cache (or
  /// any externally owned run that outlives the cache entries).
  timing::SimStats simulate(const RunPtr &Run,
                            const timing::MachineConfig &Machine);

  /// Canonical compile-cache key: \p ModuleName, every Config field
  /// as appendConfigFields() spells it, and the pipeline text resolved
  /// by effectivePipelineText(). Exposed for tests.
  static std::string runKey(const std::string &ModuleName,
                            const PipelineConfig &Config);

  struct Stats {
    uint64_t CompileHits = 0;
    uint64_t CompileMisses = 0;
    uint64_t SimHits = 0;
    uint64_t SimMisses = 0;
  };
  Stats stats() const;

  /// Drops every cached run and simulation (tests only; callers must
  /// not hold RunPtrs across a clear if they rely on trace identity).
  void clear();

  /// The process-wide cache shared by all bench binaries' helpers.
  static RunCache &global();

private:
  template <typename V> struct Entry {
    std::shared_future<V> Ready;
  };

  mutable std::mutex Mu;
  std::map<std::string, Entry<RunPtr>> Compiles;
  std::map<std::pair<const PipelineRun *, std::string>,
           Entry<timing::SimStats>>
      Sims;
  /// Keeps every simulated run alive so Sims' pointer keys stay
  /// unambiguous even for runs that were not produced by compile().
  std::vector<RunPtr> Retained;
  Stats Counts;
};

} // namespace core
} // namespace fpint

#endif // FPINT_CORE_RUNCACHE_H
