//===- timing/MachineConfig.h - Table 1 machine parameters ----------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The two machine configurations of the paper's Table 1:
///
///   Parameter            4-way              8-way
///   Fetch width          any 4              any 8
///   I-cache              64KB 2-way, 128B lines, 1-cycle hit, 6-cycle miss
///   Branch predictor     gshare, 32K 2-bit counters, 15-bit history
///   Decode/rename width  any 4              any 8
///   Issue window         16 int + 16 fp     32 int + 32 fp
///   Max in-flight        32                 64
///   Retire width         4                  8
///   Functional units     2 int + 2 fp       4 int + 4 fp
///   FU latency           6-cycle mul, 12-cycle div, 1-cycle rest
///   Issue mechanism      out-of-order; loads execute when prior store
///                        addresses are known
///   Physical registers   48 int + 48 fp     80 int + 80 fp
///   D-cache              32KB 2-way WB, 32B lines, 1-cycle hit, 6-cycle
///                        miss, 1 load/store port (2 on the 8-way)
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_TIMING_MACHINECONFIG_H
#define FPINT_TIMING_MACHINECONFIG_H

#include "timing/Cache.h"

#include <string>

namespace fpint {
namespace timing {

enum class PredictorKind { Gshare, McFarling, StaticNotTaken };

struct MachineConfig {
  const char *Name = "4-way";

  unsigned FetchWidth = 4;
  unsigned DecodeWidth = 4;
  unsigned RetireWidth = 4;

  unsigned IntWindow = 16;
  unsigned FpWindow = 16;
  unsigned MaxInFlight = 32;

  unsigned IntUnits = 2;
  unsigned FpUnits = 2;
  unsigned LoadStorePorts = 1;

  unsigned IntPhysRegs = 48;
  unsigned FpPhysRegs = 48;

  CacheConfig ICache{64 * 1024, 2, 128, 1, 6};
  CacheConfig DCache{32 * 1024, 2, 32, 1, 6};

  PredictorKind Predictor = PredictorKind::Gshare;
  unsigned PredictorTableBits = 15; ///< 32K two-bit counters.
  unsigned PredictorHistoryBits = 15;

  /// Extra cycle to redirect fetch after a resolved misprediction.
  unsigned MispredictRedirect = 1;

  /// Table 1 specifies idealized "any 4/8 instructions" fetch. Setting
  /// this models a conventional front end that cannot fetch past a
  /// taken control transfer in the same cycle (ablation).
  bool FetchBreaksOnTaken = false;

  /// Whether the floating-point subsystem is augmented to run integer
  /// (",a") instructions. A conventional machine cannot run partitioned
  /// binaries.
  bool FpaEnabled = true;

  /// Canonical serialization of every simulation-relevant field, used
  /// in content keys (stats::runId, fpint-fuzz's journal key). Two
  /// configs with equal keys produce identical SimStats for any trace.
  /// Name is deliberately excluded (it is a display label). Keep in
  /// sync when adding fields.
  std::string canonicalKey() const {
    auto Cache = [](const CacheConfig &C) {
      return std::to_string(C.SizeBytes) + "/" + std::to_string(C.Assoc) +
             "/" + std::to_string(C.LineBytes) + "/" +
             std::to_string(C.HitLatency) + "/" +
             std::to_string(C.MissPenalty);
    };
    return std::to_string(FetchWidth) + "," + std::to_string(DecodeWidth) +
           "," + std::to_string(RetireWidth) + "," +
           std::to_string(IntWindow) + "," + std::to_string(FpWindow) + "," +
           std::to_string(MaxInFlight) + "," + std::to_string(IntUnits) +
           "," + std::to_string(FpUnits) + "," +
           std::to_string(LoadStorePorts) + "," +
           std::to_string(IntPhysRegs) + "," + std::to_string(FpPhysRegs) +
           ",I" + Cache(ICache) + ",D" + Cache(DCache) + ",P" +
           std::to_string(static_cast<int>(Predictor)) + "/" +
           std::to_string(PredictorTableBits) + "/" +
           std::to_string(PredictorHistoryBits) + ",R" +
           std::to_string(MispredictRedirect) + ",B" +
           std::to_string(FetchBreaksOnTaken) + ",A" +
           std::to_string(FpaEnabled);
  }

  static MachineConfig fourWay() { return MachineConfig(); }

  static MachineConfig eightWay() {
    MachineConfig C;
    C.Name = "8-way";
    C.FetchWidth = 8;
    C.DecodeWidth = 8;
    C.RetireWidth = 8;
    C.IntWindow = 32;
    C.FpWindow = 32;
    C.MaxInFlight = 64;
    C.IntUnits = 4;
    C.FpUnits = 4;
    C.LoadStorePorts = 2;
    C.IntPhysRegs = 80;
    C.FpPhysRegs = 80;
    return C;
  }
};

} // namespace timing
} // namespace fpint

#endif // FPINT_TIMING_MACHINECONFIG_H
