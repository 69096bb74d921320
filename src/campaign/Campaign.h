//===- campaign/Campaign.h - Sandboxed, retried cell execution ------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// runCell(), the repository's one attempt loop: the bench matrix's
/// sandbox mode (bench/BenchCommon.h) runs every cell through it.
///
///  * Containment: each attempt forks into the support::Subprocess
///    sandbox under a support::SandboxPolicy (FPINT_CELL_RETRIES,
///    FPINT_CELL_TIMEOUT_MS, FPINT_CELL_AS_MB; see
///    support::SandboxPolicy::fromEnv()). A cell that crashes, hangs,
///    or runs out of memory is retried with backoff; one that exhausts
///    its attempts degrades to a typed ERR outcome instead of killing
///    the caller.
///  * Fault site: "cell" fires inside the sandbox child before the
///    cell function (crash/hang/oom degrade to ERR; ":once" is
///    absorbed by the retry).
///
/// Callers fork cells serially from their orchestration thread: the
/// child runs the cell function on a copy of the parent's memory, so
/// it must not depend on locks another thread could hold at fork time
/// (support/Subprocess.h's forking contract).
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_CAMPAIGN_CAMPAIGN_H
#define FPINT_CAMPAIGN_CAMPAIGN_H

#include "support/Json.h"
#include "support/Subprocess.h"

#include <functional>
#include <string>

namespace fpint {
namespace campaign {

/// Computes one cell's result document in the sandbox child. Signal
/// failure by throwing.
using CellFn = std::function<json::Value()>;

/// Outcome of one cell.
struct CellOutcome {
  enum class Status { Ok, Err };
  Status St = Status::Err;
  json::Value Result;     ///< Cell document (Ok only).
  std::string ErrorKind;  ///< "crash", "timeout", "exit", "bad_payload",
                          ///< "spawn_failed" (Err only).
  std::string Error;      ///< Human-readable detail (Err only).
  unsigned Attempts = 0;  ///< Executions, retries included.

  bool ok() const { return St == Status::Ok; }
};

/// Runs \p Fn with up to 1 + Policy.Retries attempts, sleeping
/// SandboxPolicy::backoffMs() between them, and returns the first
/// success or the last attempt's typed ERR. Each attempt forks into a
/// support::Subprocess child under Policy.Limits; the child sets its
/// own fault::setAttempt() number (for ":once" specs), fires the
/// "cell" fault site, runs Fn, and sends the result's JSON back over
/// the payload pipe. A result that is not a JSON object is
/// "bad_payload".
CellOutcome runCell(const CellFn &Fn, const support::SandboxPolicy &Policy);

} // namespace campaign
} // namespace fpint

#endif // FPINT_CAMPAIGN_CAMPAIGN_H
