//===- timing/Simulator.h - Cycle-level out-of-order simulator ------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A trace-driven, cycle-level timing simulator of the paper's
/// partitioned superscalar microarchitecture (Figure 1), in the style of
/// the SimpleScalar out-of-order simulator the authors derived theirs
/// from. The machine has:
///
///  * a shared front end: I-cache, gshare branch predictor (mispredicted
///    conditional branches stall fetch until they resolve, plus a
///    redirect cycle; unconditional control flow is predicted
///    perfectly), fetch/decode/rename of Table 1 widths;
///  * two execution subsystems with separate issue windows, functional
///    units, and physical register files: INT (which alone owns the
///    load/store ports and D-cache) and FP -- optionally augmented (FPa)
///    to execute the 22 offloaded integer opcodes at 1-cycle latency;
///  * out-of-order issue, loads executing only once all prior store
///    addresses are known (with store-to-load forwarding), in-order
///    retirement.
///
/// The dynamic instruction stream comes from the functional VM's trace
/// of a register-allocated module; the regalloc ArchIndex map supplies
/// each operand's architectural register identity for renaming.
///
/// Two cycle loops implement the same machine (docs/ARCHITECTURE.md,
/// "Simulator fast path"):
///
///  * the *reference loop* -- the original, deliberately simple
///    implementation over `vm::TraceEntry` vectors; kept alive as the
///    differential oracle (`FPINT_SIM_FAST=0`, and every fpint-fuzz
///    iteration races the two);
///  * the *fast loop* (default) -- runs over a pre-decoded
///    timing::PackedTrace, keeps all in-flight state in one dense
///    seq-indexed ring, issues event-driven (producers wake their
///    consumers when they issue, and the issue stage visits only
///    entries whose producers have all issued). It ticks every cycle,
///    as the reference loop does, and is cycle-exact: SimStats and,
///    with a sink attached, the full stall-attribution telemetry are
///    bit-identical to the reference loop.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_TIMING_SIMULATOR_H
#define FPINT_TIMING_SIMULATOR_H

#include "regalloc/RegAlloc.h"
#include "sir/IR.h"
#include "stats/Events.h"
#include "timing/BranchPredictor.h"
#include "timing/Cache.h"
#include "timing/MachineConfig.h"
#include "timing/PackedTrace.h"
#include "vm/VM.h"

#include <memory>
#include <stdexcept>
#include <vector>

namespace fpint {
namespace timing {

/// Aggregate statistics of one simulation.
struct SimStats {
  uint64_t Cycles = 0;
  uint64_t Instructions = 0;
  uint64_t IntIssued = 0; ///< Instructions issued in the INT subsystem.
  uint64_t FpIssued = 0;  ///< Instructions issued in the FP subsystem.

  uint64_t CondBranches = 0;
  uint64_t Mispredicts = 0;

  uint64_t Loads = 0;
  uint64_t Stores = 0;
  uint64_t DCacheMisses = 0;
  uint64_t ICacheMisses = 0;
  uint64_t StoreForwards = 0;

  uint64_t FpBusyCycles = 0;          ///< Cycles with >=1 FP issue.
  uint64_t IntIdleFpBusyCycles = 0;   ///< ...where INT issued nothing.

  /// Wall-clock time run() spent simulating, in milliseconds. Purely
  /// informational (never compared by the regression gate); feeds the
  /// "sim_wall_ms" / "sim_cycles_per_sec" bench-report fields.
  double SimWallMs = 0.0;

  double ipc() const {
    return Cycles ? static_cast<double>(Instructions) /
                        static_cast<double>(Cycles)
                  : 0.0;
  }
  double branchAccuracy() const {
    return CondBranches ? 1.0 - static_cast<double>(Mispredicts) /
                                    static_cast<double>(CondBranches)
                        : 1.0;
  }
  /// Section 7.3's load-imbalance metric: fraction of FP-busy cycles in
  /// which the INT subsystem sat idle.
  double intIdleWhileFpBusy() const {
    return FpBusyCycles ? static_cast<double>(IntIdleFpBusyCycles) /
                              static_cast<double>(FpBusyCycles)
                        : 0.0;
  }
  /// Simulated cycles per wall second (0 when the run was too fast to
  /// time). Informational, like SimWallMs.
  double cyclesPerSecond() const {
    return SimWallMs > 0.0 ? static_cast<double>(Cycles) /
                                 (SimWallMs / 1000.0)
                           : 0.0;
  }

  /// Cycle-level telemetry collected by the run's event sink, or null
  /// when telemetry was disabled (the default). Shared, so copies of
  /// the stats (the StatsRegistry's records among them) carry the
  /// breakdown without copying it.
  std::shared_ptr<const stats::StallBreakdown> Telemetry;
};

/// Thrown when a simulation exceeds its progress safety limit: the
/// machine configuration cannot drain the trace (e.g. zero functional
/// units for a subsystem the program needs). A typed, reportable
/// harness condition in the spirit of the vm::Trap taxonomy -- matrix
/// harnesses degrade the cell to an ERR row and the differential
/// oracle records a mismatch, instead of an assert killing the run.
class SimulationOverrun : public std::runtime_error {
public:
  SimulationOverrun(uint64_t Cycle, uint64_t Limit, uint64_t Retired,
                    uint64_t TraceSize);

  uint64_t Cycle;     ///< Cycle count when the limit tripped.
  uint64_t Limit;     ///< The safety limit that was exceeded.
  uint64_t Retired;   ///< Instructions retired by then.
  uint64_t TraceSize; ///< Dynamic instructions in the trace.
};

/// Simulates traces against one machine configuration.
class Simulator {
public:
  Simulator(const MachineConfig &Config, const regalloc::ModuleAlloc &Alloc);
  ~Simulator();

  /// Runs \p Trace to completion and returns the statistics. Packs the
  /// trace on the fly when the fast path is active; callers that
  /// simulate one module on many machines should pack once and use the
  /// PackedTrace overload instead (core::simulate does, via
  /// PipelineRun::packedTrace). Throws SimulationOverrun if the machine
  /// cannot drain the trace.
  SimStats run(const std::vector<vm::TraceEntry> &Trace);

  /// Runs a pre-packed trace (no per-run decode). With the fast path
  /// disabled the entries are reconstructed and fed to the reference
  /// loop, so both overloads honor both paths.
  SimStats run(const PackedTrace &Trace);

  /// Attaches \p S to receive one CycleEvent per simulated cycle
  /// (stall attribution + issue occupancy). Null detaches. With no
  /// sink attached the main loop pays a single pointer test per cycle
  /// and produces bit-identical SimStats to the uninstrumented
  /// simulator. The sink must outlive run().
  void setEventSink(stats::EventSink *S) { Sink = S; }

  /// Selects the fast (packed SoA + event-driven issue) or reference
  /// cycle loop. Defaults to the FPINT_SIM_FAST environment switch
  /// (unset or nonzero = fast; "0" = reference).
  void setFastPath(bool On) { UseFast = On; }
  bool fastPath() const { return UseFast; }

  const MachineConfig &config() const { return Config; }

private:
  struct Impl;
  MachineConfig Config;
  const regalloc::ModuleAlloc &Alloc;
  std::unique_ptr<Impl> State;
  stats::EventSink *Sink = nullptr;
  bool UseFast = true;

  /// The two cycle loops (see the file comment).
  SimStats runReference(const std::vector<vm::TraceEntry> &Trace);
  SimStats runFast(const PackedTrace &Trace);
};

/// Convenience: VM-trace + simulate in one call, packing the trace as
/// the VM runs. The module must be register-allocated. Throws
/// std::runtime_error carrying the trap message if the run traps.
SimStats simulateModule(const sir::Module &M,
                        const regalloc::ModuleAlloc &Alloc,
                        const MachineConfig &Config,
                        const std::vector<int32_t> &MainArgs = {});

} // namespace timing
} // namespace fpint

#endif // FPINT_TIMING_SIMULATOR_H
