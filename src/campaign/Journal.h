//===- campaign/Journal.h - Append-only write-ahead campaign journal ------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The durability primitive behind fpint-fuzz --journal: an append-only
/// write-ahead journal of JSON records. A fuzz campaign (thousands of
/// iterations running for hours) journals every completed batch, so
/// the harness process crashing, being OOM-killed, or losing its node
/// can never lose completed work -- a restarted campaign replays the
/// journal and runs only the unfinished batches.
///
/// On-disk format (see docs/CAMPAIGNS.md):
///
///   [u32 LE record length][canonical JSON record bytes]  repeated
///
/// Records are serialized with support/Json.h's canonical dump, so a
/// replayed record re-dumps to exactly the bytes that were journaled
/// -- the property that makes a resumed campaign's final summary
/// byte-identical to an uninterrupted run's.
///
/// Append semantics: length prefix and record body are written with a
/// single write(2) and then fsync(2)ed before append() returns. A
/// record is either durable or it is not in the journal; there is no
/// in-between the reader can observe after recovery.
///
/// Recovery semantics: open() scans the file record by record. The
/// first ill-formed suffix -- a short length prefix, a length running
/// past EOF, an implausible length, or bytes that do not parse as JSON
/// (a crash between write and fsync, a lost tail page) -- is a torn
/// tail: it is truncated off and every complete record before it is
/// replayed. Torn tails only ever cost the single record that was
/// being appended when the process died; that batch simply re-runs.
///
/// The "campaign:journal" fault-injection site fires inside append()
/// *after* the record is durable, in the journaling process itself: CI
/// uses it to kill the harness mid-campaign deterministically and
/// assert that a resume loses nothing (docs/ROBUSTNESS.md).
///
/// Thread-safety: append() may be called from several threads; writes
/// are serialized under an internal mutex. open()/reset() are not
/// concurrent with append().
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_CAMPAIGN_JOURNAL_H
#define FPINT_CAMPAIGN_JOURNAL_H

#include "support/Json.h"

#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

namespace fpint {
namespace campaign {

/// Schema stamp carried by every campaign header record; bump it when
/// the record layout changes so stale journals are discarded instead
/// of misread.
extern const char *const JournalSchema;

class Journal {
public:
  /// What recovery found in a pre-existing journal file.
  struct RecoveryInfo {
    bool Existed = false;       ///< The file was already on disk.
    size_t Records = 0;         ///< Complete records replayed.
    size_t TruncatedBytes = 0;  ///< Torn-tail bytes dropped.
  };

  Journal() = default;
  ~Journal();
  Journal(const Journal &) = delete;
  Journal &operator=(const Journal &) = delete;

  /// Opens (creating if absent) the journal at \p Path, replaying every
  /// complete record through \p OnRecord in append order and
  /// truncating any torn tail. Returns false with \p Err set on I/O
  /// failure; the journal is then not open.
  bool open(const std::string &Path,
            const std::function<void(const json::Value &)> &OnRecord,
            RecoveryInfo &Info, std::string *Err);

  /// Appends one record (length prefix + canonical dump, one write,
  /// then fsync). Returns false with \p Err set on I/O failure. Fires
  /// the "campaign:journal" fault site after the record is durable.
  bool append(const json::Value &Record, std::string *Err);

  /// Truncates the journal to empty (a journal bound to a different
  /// campaign identity is discarded, not merged).
  bool reset(std::string *Err);

  bool isOpen() const { return Fd >= 0; }
  const std::string &path() const { return FilePath; }

  /// Upper bound on one record's serialized size; anything larger in a
  /// length prefix is treated as corruption (torn tail).
  static constexpr size_t MaxRecordBytes = 64u << 20;

private:
  int Fd = -1;
  std::string FilePath;
  std::mutex Mu;
};

/// What openCampaignJournal() found.
struct CampaignReplay {
  json::Value Header; ///< The journaled header on resume, else the new one.
  std::vector<json::Value> Records; ///< Records after a matching header.
  bool Discarded = false; ///< A different campaign's journal was reset.
  size_t TruncatedBytes = 0; ///< Torn tail dropped on open.
};

/// The journal-header protocol of fpint-fuzz --journal: opens
/// <Dir>/journal.wal into \p J. A first record that is a "campaign"
/// header with this JournalSchema and \p Key is adopted and the rest
/// replays into \p Out.Records. Otherwise a non-empty journal is reset
/// (never merged) and a fresh header is appended:
/// type, schema and key, then \p Header's members (e.g. the fuzzer's
/// seed). Returns false with \p Err set on I/O failure.
bool openCampaignJournal(Journal &J, const std::string &Dir,
                         const std::string &Key, json::Value Header,
                         CampaignReplay &Out, std::string *Err);

} // namespace campaign
} // namespace fpint

#endif // FPINT_CAMPAIGN_JOURNAL_H
