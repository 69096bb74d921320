//===- timing/Cache.h - Set-associative cache model -----------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A set-associative cache timing model with LRU replacement, matching
/// Table 1: a 64KB 2-way I-cache with 128-byte lines and a 32KB 2-way
/// write-back write-allocate D-cache with 32-byte lines, both with
/// 1-cycle hits and a 6-cycle miss penalty.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_TIMING_CACHE_H
#define FPINT_TIMING_CACHE_H

#include <cstdint>
#include <vector>

namespace fpint {
namespace timing {

struct CacheConfig {
  uint32_t SizeBytes = 32 * 1024;
  uint32_t Assoc = 2;
  uint32_t LineBytes = 32;
  unsigned HitLatency = 1;
  unsigned MissPenalty = 6;
};

/// LRU set-associative cache. Only timing matters; no data is stored.
/// The line size and the set count must be powers of two, so an
/// address splits into line, set and tag by shifts and masks.
class Cache {
public:
  explicit Cache(CacheConfig Config);

  /// Accesses \p Addr; returns total latency (hit latency, plus the miss
  /// penalty on a miss). \p Write marks the line dirty.
  unsigned access(uint32_t Addr, bool Write = false);

  /// True if \p Addr currently hits (no state change).
  bool probe(uint32_t Addr) const;

  /// The line number of \p Addr: equal for two addresses exactly when
  /// they fall in the same cache line.
  uint32_t lineOf(uint32_t Addr) const { return Addr >> LineShift; }

  /// Misses and writebacks are the same on both cycle loops, though
  /// the fast one probes the I-cache once per run of fetches in a line.
  uint64_t misses() const { return Misses; }
  uint64_t writebacks() const { return Writebacks; }

  const CacheConfig &config() const { return Config; }

private:
  struct Line {
    uint32_t Tag = 0;
    uint64_t LastUse = 0;
    bool Valid = false;
    bool Dirty = false;
  };

  CacheConfig Config;
  uint32_t NumSets;
  unsigned LineShift; ///< log2(LineBytes).
  unsigned SetShift;  ///< log2(NumSets).
  std::vector<Line> Lines; // NumSets * Assoc.
  uint64_t Tick = 0;
  uint64_t Misses = 0;
  uint64_t Writebacks = 0;
};

} // namespace timing
} // namespace fpint

#endif // FPINT_TIMING_CACHE_H
