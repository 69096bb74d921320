//===- campaign/Campaign.h - Durable, resumable campaign runtime ----------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The crash-safe campaign runtime: runs a set of content-addressed
/// cells (e.g. MachineConfig x workload evaluation points) exactly
/// once across any number of harness restarts.
///
///  * Identity: every cell carries a content key -- chained FNV-1a
///    over (workload, pipeline key, canonical machine key, journal
///    schema), the platform-stable scheme of support/Hash.h -- so
///    "the same cell" means the same bytes everywhere.
///  * Durability: each completed cell (OK result or typed ERR) is
///    appended to the write-ahead Journal before the campaign moves
///    on. On restart, journaled cells replay byte-identically and only
///    unfinished cells execute. A torn journal tail costs at most the
///    one record being appended at death; that cell re-executes.
///  * Containment: cells execute through runCell(), the one attempt
///    loop (the bench matrix's sandbox mode calls it too, without a
///    journal): each attempt forks into the support::Subprocess
///    sandbox under a support::SandboxPolicy. A cell that exhausts its
///    attempts degrades to a typed ERR record; the campaign never
///    aborts. (Options.Sandbox=false runs cells in-process -- for tests
///    and trusted cell functions only; a crash then kills the runner,
///    though the journal still bounds the loss.)
///  * Publication: consumers build their final report from the
///    returned outcomes and publish it with publishReport(), which
///    writes to a tmp file and renames it into place, so readers only
///    ever observe a complete report.
///
/// Parallelism: cells fan out on the shared support::ThreadPool.
/// Sandboxed cells fork from pool workers, which the forking contract
/// (support/Subprocess.h) allows because the child runs only
/// self-contained compile/simulate code and never touches parent
/// locks, caches, or registries. Options.Jobs=1 runs cells inline on
/// the calling thread -- required when the runner itself executes in a
/// forked child (pool threads do not survive a fork).
///
/// Environment (see docs/CAMPAIGNS.md): FPINT_CAMPAIGN_DIR names the
/// state directory ("campaign_state"); the sandbox policy reads the
/// FPINT_CELL_* family (support::SandboxPolicy::fromEnv()).
///
/// Fault sites: "campaign:cell" fires inside the sandbox child before
/// the cell function (crash/hang/oom degrade to ERR; ":once" is
/// absorbed by the retry), "campaign:journal" fires in the runner after
/// each record is durable (killing the harness itself; resume must lose
/// nothing).
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_CAMPAIGN_CAMPAIGN_H
#define FPINT_CAMPAIGN_CAMPAIGN_H

#include "campaign/Journal.h"
#include "support/Json.h"
#include "support/Subprocess.h"

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace fpint {
namespace campaign {

/// One unit of campaign work. Key is the content address (cellKey());
/// Label is the human-readable name used in diagnostics and reports.
struct Cell {
  std::string Key;
  std::string Label;
};

/// Computes one cell's result document. Runs in the sandbox child (or
/// inline with Options.Sandbox=false); under Runner it must be
/// self-contained -- no parent locks, caches, or registries, since it
/// may fork from a pool worker (bench cells, which use the run cache,
/// fork serially instead) -- and deterministic: the same cell must
/// always produce the same canonical JSON, because a resumed campaign
/// replays journaled results byte-identically. Signal failure by
/// throwing.
using CellFn = std::function<json::Value(const Cell &)>;

/// Outcome of one cell, whether executed now or replayed from the
/// journal.
struct CellOutcome {
  enum class Status { Ok, Err };
  Status St = Status::Err;
  json::Value Result;     ///< Cell document (Ok only).
  std::string ErrorKind;  ///< "crash", "timeout", "exit", "exception",
                          ///< "bad_payload", "spawn_failed" (Err only).
  std::string Error;      ///< Human-readable detail (Err only).
  unsigned Attempts = 0;  ///< Executions this campaign run (0 if resumed).
  bool Resumed = false;   ///< Replayed from the journal.

  bool ok() const { return St == Status::Ok; }
};

struct Options {
  /// State directory holding journal.wal; empty means
  /// $FPINT_CAMPAIGN_DIR, then "campaign_state".
  std::string Dir;
  /// Identity of the campaign (grid + workloads + schema). A journal
  /// whose header carries a different key is discarded, never merged:
  /// resuming only ever replays cells of this exact campaign.
  std::string CampaignKey;
  /// Per-attempt limits and retry budget of every cell.
  support::SandboxPolicy Policy = support::SandboxPolicy::fromEnv();
  /// 0: fan out on the shared ThreadPool; 1: run cells inline on the
  /// calling thread (required inside a forked child).
  int Jobs = 0;
  /// Fork each cell into a Subprocess sandbox (the production mode).
  bool Sandbox = true;
};

/// Campaign-level accounting for reports and logs. All counts are for
/// this run() call; Resumed cells count toward Completed/Errors too.
struct Summary {
  uint64_t Cells = 0;     ///< Total cells in the campaign.
  uint64_t Completed = 0; ///< Cells with an OK result (incl. resumed).
  uint64_t Resumed = 0;   ///< Cells replayed from the journal.
  uint64_t Executed = 0;  ///< Cells actually run this process.
  uint64_t Retried = 0;   ///< Executed cells that needed >1 attempt.
  uint64_t Errors = 0;    ///< Cells degraded to ERR (incl. resumed).
  uint64_t JournalTruncatedBytes = 0; ///< Torn tail dropped on open.
  bool JournalDiscarded = false; ///< Header mismatched CampaignKey.
};

/// Content address of one (workload, pipeline, machine) cell:
/// 16 lower-case hex digits, stable across processes and platforms
/// (a support::ChainedKey over the three parts and JournalSchema, so a
/// layout bump re-runs every cell).
std::string cellKey(const std::string &Workload,
                    const std::string &PipelineKey,
                    const std::string &MachineKey);

/// Runs \p Fn on \p C with up to 1 + Policy.Retries attempts, sleeping
/// SandboxPolicy::backoffMs() between them, and returns the first
/// success or the last attempt's typed ERR. With \p Sandbox each attempt
/// forks into a support::Subprocess child under Policy.Limits; the
/// child sets its own fault::setAttempt() number (for ":once" specs),
/// fires the fault site \p FaultSite, runs Fn, and sends the result's
/// JSON back over the payload pipe. Without it, Fn runs in-process:
/// exceptions degrade, but a crash or hang is not contained.
CellOutcome runCell(const Cell &C, const CellFn &Fn,
                    const support::SandboxPolicy &Policy,
                    const char *FaultSite, bool Sandbox = true);

/// Serializes \p S as the "campaign" informational object rendered by
/// fpint-report (never gated, like "run_cache").
json::Value summaryToJson(const Summary &S);

/// Atomically publishes \p Doc (canonical dump + trailing newline) at
/// \p Path: write to a tmp file in the same directory, then rename.
/// Readers only ever observe an absent or complete report.
bool publishReport(const std::string &Path, const json::Value &Doc,
                   std::string *Err);

class Runner {
public:
  explicit Runner(Options Opts);

  /// Runs the campaign: opens (and recovers) the journal, replays
  /// completed cells, executes the rest, and returns one outcome per
  /// input cell, in input order. Duplicate journal records keep the
  /// last occurrence. Throws std::runtime_error only on campaign-level
  /// I/O failure (journal unwritable); cell failures degrade to ERR
  /// outcomes instead.
  std::vector<CellOutcome> run(const std::vector<Cell> &Cells,
                               const CellFn &Fn);

  const Summary &summary() const { return Sum; }
  const Options &options() const { return Opts; }

private:
  Options Opts;
  Summary Sum;
};

} // namespace campaign
} // namespace fpint

#endif // FPINT_CAMPAIGN_CAMPAIGN_H
