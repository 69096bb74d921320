//===- stats/Events.h - Cycle-level telemetry events ----------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The event layer of the telemetry subsystem: the timing simulator's
/// main loop feeds one CycleEvent per simulated cycle into an attached
/// EventSink. The layer is header-only and dependency-free so that
/// timing:: can emit events without linking the stats library (which
/// itself depends on core:: for report serialization).
///
/// Zero-overhead-when-disabled contract: a Simulator with no sink
/// attached pays exactly one pointer test per cycle; all attribution
/// bookkeeping (blocking-producer search, missed-load tracking,
/// dispatch-block classification) is guarded behind that test, so the
/// default configuration reproduces the seed simulator byte for byte.
///
/// Stall attribution: every cycle in which *no* instruction issues
/// (INT and FP subsystems combined) is assigned exactly one
/// StallReason, so the reason counters partition the non-issuing
/// cycles:
///
///     sum over reasons of StallCycles[reason] == NonIssuingCycles.
///
/// A non-issuing cycle usually has several plausible culprits (a full
/// FPa window whose entries are all waiting on a missed load, say);
/// the simulator resolves the ambiguity with a fixed priority,
/// documented in docs/OBSERVABILITY.md:
///
///   1. window-full backpressure observed at dispatch (WindowFullInt /
///      WindowFullFpa) -- the paper's Section 7.3 question "how often
///      did the FPa window sit full" takes precedence;
///   2. the oldest dispatched-but-unissued instruction's block reason:
///      LoadBlockedStoreAddr, DCacheMissWait (operand produced by an
///      in-flight load that missed), OperandWait, UnitBusy;
///   3. dispatch blocked by ROB occupancy or physical registers
///      (RobFull / PhysRegsFull);
///   4. RetireStall -- everything in flight has issued and the machine
///      is waiting on completion / in-order retirement;
///   5. front-end emptiness: FetchMispredict (unresolved mispredict or
///      its redirect shadow), FetchICacheMiss, or FrontendLatency
///      (fetch/decode ramp at startup or after a redirect).
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_STATS_EVENTS_H
#define FPINT_STATS_EVENTS_H

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <vector>

namespace fpint {
namespace stats {

/// Why a non-issuing cycle failed to issue. None marks cycles that did
/// issue (and is never counted as a stall).
enum class StallReason : uint8_t {
  None = 0,
  FetchMispredict,      ///< Fetch squashed by an unresolved mispredict
                        ///< (or its post-resolution redirect cycles).
  FetchICacheMiss,      ///< Fetch waiting on an I-cache fill.
  FrontendLatency,      ///< Fetch/decode ramp: instructions fetched but
                        ///< not yet dispatchable (startup, redirect).
  WindowFullInt,        ///< Dispatch blocked: INT issue window full.
  WindowFullFpa,        ///< Dispatch blocked: FP/FPa issue window full.
  RobFull,              ///< Dispatch blocked: max in-flight reached.
  PhysRegsFull,         ///< Dispatch blocked: physical registers spent.
  OperandWait,          ///< Oldest waiting instr needs an in-flight def.
  DCacheMissWait,       ///< ...and that def is a load that missed.
  LoadBlockedStoreAddr, ///< Oldest waiting instr is a load behind a
                        ///< store whose address is still unknown.
  UnitBusy,             ///< Operands ready, but every functional unit
                        ///< is occupied (unpipelined divides).
  RetireStall,          ///< All in-flight work issued; waiting on
                        ///< completion / in-order retirement.
  NumReasons
};

constexpr unsigned NumStallReasons =
    static_cast<unsigned>(StallReason::NumReasons);

/// Stable lower_snake_case identifier, used as the JSON key.
inline const char *stallReasonName(StallReason R) {
  switch (R) {
  case StallReason::None:
    return "none";
  case StallReason::FetchMispredict:
    return "fetch_mispredict";
  case StallReason::FetchICacheMiss:
    return "fetch_icache_miss";
  case StallReason::FrontendLatency:
    return "frontend_latency";
  case StallReason::WindowFullInt:
    return "window_full_int";
  case StallReason::WindowFullFpa:
    return "window_full_fpa";
  case StallReason::RobFull:
    return "rob_full";
  case StallReason::PhysRegsFull:
    return "phys_regs_full";
  case StallReason::OperandWait:
    return "operand_wait";
  case StallReason::DCacheMissWait:
    return "dcache_miss_wait";
  case StallReason::LoadBlockedStoreAddr:
    return "load_blocked_store_addr";
  case StallReason::UnitBusy:
    return "unit_busy";
  case StallReason::RetireStall:
    return "retire_stall";
  case StallReason::NumReasons:
    break;
  }
  return "?";
}

/// What the simulator observed in one cycle.
struct CycleEvent {
  uint32_t IntIssued = 0;     ///< Instructions issued from the INT window.
  uint32_t FpIssued = 0;      ///< Instructions issued from the FP window.
  uint32_t IntWindowUsed = 0; ///< INT window occupancy after dispatch.
  uint32_t FpWindowUsed = 0;  ///< FP window occupancy after dispatch.
  bool IntWindowFull = false;
  bool FpWindowFull = false;
  /// The attributed reason when IntIssued + FpIssued == 0; None otherwise.
  StallReason Reason = StallReason::None;
};

/// Receiver of per-cycle events. Sinks are attached to a Simulator for
/// the duration of one run() and are not required to be thread-safe
/// (each simulation owns its sink).
class EventSink {
public:
  virtual ~EventSink() = default;
  virtual void onCycle(const CycleEvent &E) = 0;
};

/// The standard accumulating sink: stall-attribution counters plus
/// per-subsystem issue-slot occupancy histograms.
class StallBreakdown final : public EventSink {
public:
  uint64_t Cycles = 0;           ///< Total cycles observed.
  uint64_t NonIssuingCycles = 0; ///< Cycles with zero issues overall.
  uint64_t StallCycles[NumStallReasons] = {};

  /// IssueHist[k] = cycles in which exactly k instructions issued from
  /// that subsystem's window; each histogram sums to Cycles.
  std::vector<uint64_t> IntIssueHist, FpIssueHist;

  uint64_t IntWindowFullCycles = 0, FpWindowFullCycles = 0;
  uint64_t IntWindowOccupancySum = 0, FpWindowOccupancySum = 0;

  void onCycle(const CycleEvent &E) override {
    ++Cycles;
    bump(IntIssueHist, E.IntIssued);
    bump(FpIssueHist, E.FpIssued);
    IntWindowOccupancySum += E.IntWindowUsed;
    FpWindowOccupancySum += E.FpWindowUsed;
    IntWindowFullCycles += E.IntWindowFull;
    FpWindowFullCycles += E.FpWindowFull;
    if (E.IntIssued + E.FpIssued == 0) {
      ++NonIssuingCycles;
      ++StallCycles[static_cast<unsigned>(E.Reason)];
    }
  }

  /// Sum of all attributed stall cycles (None excluded; the simulator
  /// never attributes None to a non-issuing cycle).
  uint64_t attributedStallCycles() const {
    uint64_t Sum = 0;
    for (unsigned R = 1; R < NumStallReasons; ++R)
      Sum += StallCycles[R];
    return Sum;
  }

  uint64_t stalls(StallReason R) const {
    return StallCycles[static_cast<unsigned>(R)];
  }

  /// The subsystem invariant the test suite asserts: attributed stall
  /// cycles partition the non-issuing cycles exactly.
  bool partitionHolds() const {
    return attributedStallCycles() == NonIssuingCycles &&
           StallCycles[0] == 0;
  }

private:
  static void bump(std::vector<uint64_t> &Hist, uint32_t K) {
    if (Hist.size() <= K)
      Hist.resize(K + 1, 0);
    ++Hist[K];
  }
};

namespace detail {
/// -1 = not yet decided (consult the environment on first query).
inline std::atomic<int> TelemetryMode{-1};
} // namespace detail

/// Process-wide telemetry switch. Defaults to the FPINT_TELEMETRY
/// environment variable (unset, empty, or "0" = off); programmatic
/// overrides win. When off, core::simulate attaches no sink and the
/// simulator's behaviour and output are bit-identical to the
/// uninstrumented loop.
inline bool telemetryEnabled() {
  int M = detail::TelemetryMode.load(std::memory_order_relaxed);
  if (M >= 0)
    return M != 0;
  const char *E = std::getenv("FPINT_TELEMETRY");
  bool On = E && *E && std::strcmp(E, "0") != 0;
  detail::TelemetryMode.store(On ? 1 : 0, std::memory_order_relaxed);
  return On;
}

/// Forces telemetry on or off (tests and tools); the next simulation
/// sees the new setting.
inline void setTelemetryEnabled(bool On) {
  detail::TelemetryMode.store(On ? 1 : 0, std::memory_order_relaxed);
}

} // namespace stats
} // namespace fpint

#endif // FPINT_STATS_EVENTS_H
