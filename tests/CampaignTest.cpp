//===- tests/CampaignTest.cpp - Durable campaign runtime ------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The campaign layer's contracts: journal round-trip and torn-tail
/// recovery, the campaign-journal header protocol, runCell's typed
/// ERR kinds and retry absorption, and the pinned machine grids.
///
//===----------------------------------------------------------------------===//

#include "campaign/Campaign.h"
#include "campaign/Explore.h"
#include "campaign/Journal.h"
#include "support/FaultInject.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <ctime>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

using namespace fpint;
using namespace fpint::campaign;
namespace fs = std::filesystem;

namespace {

/// A unique per-test scratch directory, removed on scope exit.
struct TempDir {
  std::string Path;
  explicit TempDir(const char *Tag) {
    Path = (fs::temp_directory_path() /
            (std::string("fpint_campaign_test_") + Tag + "_" +
             std::to_string(getpid())))
               .string();
    fs::remove_all(Path);
  }
  ~TempDir() {
    std::error_code EC;
    fs::remove_all(Path, EC);
  }
  std::string journalPath() const { return Path + "/journal.wal"; }
};

json::Value record(int I) {
  json::Value R = json::Value::object();
  R.set("type", "cell");
  R.set("key", "k" + std::to_string(I));
  R.set("status", "ok");
  json::Value Result = json::Value::object();
  Result.set("value", I * I);
  R.set("result", Result);
  return R;
}

/// Appends raw bytes to the journal file (simulating a torn write).
void appendRaw(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::app);
  ASSERT_TRUE(Out.good());
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
}

std::string framed(const std::string &Body) {
  uint32_t Len = static_cast<uint32_t>(Body.size());
  std::string Frame;
  Frame.push_back(static_cast<char>(Len));
  Frame.push_back(static_cast<char>(Len >> 8));
  Frame.push_back(static_cast<char>(Len >> 16));
  Frame.push_back(static_cast<char>(Len >> 24));
  return Frame + Body;
}

std::vector<json::Value> replay(Journal &J, const std::string &Path,
                                Journal::RecoveryInfo &Info) {
  std::vector<json::Value> Records;
  std::string Err;
  EXPECT_TRUE(J.open(
      Path, [&](const json::Value &R) { Records.push_back(R); }, Info, &Err))
      << Err;
  return Records;
}

/// Sleeps in short naps until the sandbox watchdog kills the child.
json::Value sleepForever() {
  for (;;) {
    struct timespec TS = {0, 50 * 1000 * 1000};
    nanosleep(&TS, nullptr);
  }
}

//===----------------------------------------------------------------------===//
// Journal
//===----------------------------------------------------------------------===//

TEST(Journal, RoundTripsRecords) {
  TempDir Dir("roundtrip");
  {
    Journal J;
    Journal::RecoveryInfo Info;
    std::vector<json::Value> Records = replay(J, Dir.journalPath(), Info);
    EXPECT_FALSE(Info.Existed);
    EXPECT_TRUE(Records.empty());
    std::string Err;
    for (int I = 0; I < 3; ++I)
      ASSERT_TRUE(J.append(record(I), &Err)) << Err;
  }
  Journal J;
  Journal::RecoveryInfo Info;
  std::vector<json::Value> Records = replay(J, Dir.journalPath(), Info);
  EXPECT_TRUE(Info.Existed);
  EXPECT_EQ(Info.Records, 3u);
  EXPECT_EQ(Info.TruncatedBytes, 0u);
  ASSERT_EQ(Records.size(), 3u);
  for (int I = 0; I < 3; ++I)
    EXPECT_EQ(Records[I].dump(), record(I).dump());
}

TEST(Journal, TruncatesTornLengthPrefix) {
  TempDir Dir("torn_prefix");
  {
    Journal J;
    Journal::RecoveryInfo Info;
    replay(J, Dir.journalPath(), Info);
    std::string Err;
    ASSERT_TRUE(J.append(record(0), &Err)) << Err;
  }
  appendRaw(Dir.journalPath(), std::string("\x07\x00", 2)); // Short prefix.
  const auto SizeBefore = fs::file_size(Dir.journalPath());

  Journal J;
  Journal::RecoveryInfo Info;
  std::vector<json::Value> Records = replay(J, Dir.journalPath(), Info);
  ASSERT_EQ(Records.size(), 1u);
  EXPECT_EQ(Info.TruncatedBytes, 2u);
  EXPECT_EQ(fs::file_size(Dir.journalPath()), SizeBefore - 2);

  // The journal is usable after recovery: appends land after the
  // truncation point and replay cleanly.
  std::string Err;
  ASSERT_TRUE(J.append(record(1), &Err)) << Err;
  Journal J2;
  Journal::RecoveryInfo Info2;
  EXPECT_EQ(replay(J2, Dir.journalPath(), Info2).size(), 2u);
  EXPECT_EQ(Info2.TruncatedBytes, 0u);
}

TEST(Journal, TruncatesBodyShorterThanLength) {
  TempDir Dir("torn_body");
  {
    Journal J;
    Journal::RecoveryInfo Info;
    replay(J, Dir.journalPath(), Info);
    std::string Err;
    ASSERT_TRUE(J.append(record(0), &Err)) << Err;
  }
  // Length says 100 bytes; only 10 follow (fsync raced the crash).
  appendRaw(Dir.journalPath(), std::string("\x64\x00\x00\x00", 4) +
                                   "{\"type\":\"c");
  Journal J;
  Journal::RecoveryInfo Info;
  EXPECT_EQ(replay(J, Dir.journalPath(), Info).size(), 1u);
  EXPECT_EQ(Info.TruncatedBytes, 14u);
}

TEST(Journal, TruncatesUnparseableTail) {
  TempDir Dir("torn_json");
  {
    Journal J;
    Journal::RecoveryInfo Info;
    replay(J, Dir.journalPath(), Info);
    std::string Err;
    ASSERT_TRUE(J.append(record(0), &Err)) << Err;
  }
  appendRaw(Dir.journalPath(), framed("this is not json"));
  Journal J;
  Journal::RecoveryInfo Info;
  EXPECT_EQ(replay(J, Dir.journalPath(), Info).size(), 1u);
  EXPECT_GT(Info.TruncatedBytes, 0u);
}

TEST(Journal, TruncatesAbsurdLength) {
  TempDir Dir("torn_len");
  {
    Journal J;
    Journal::RecoveryInfo Info;
    replay(J, Dir.journalPath(), Info);
    std::string Err;
    ASSERT_TRUE(J.append(record(0), &Err)) << Err;
  }
  // A length prefix beyond MaxRecordBytes is corruption, not a record.
  appendRaw(Dir.journalPath(), std::string("\xff\xff\xff\xff", 4) + "junk");
  Journal J;
  Journal::RecoveryInfo Info;
  EXPECT_EQ(replay(J, Dir.journalPath(), Info).size(), 1u);
  EXPECT_EQ(Info.TruncatedBytes, 8u);
}

TEST(CampaignJournal, WritesHeaderThenResumesThenDiscards) {
  TempDir Dir("header");
  json::Value Extra = json::Value::object();
  Extra.set("seed", "0x7");
  std::string Err;
  {
    Journal J;
    CampaignReplay Fresh;
    ASSERT_TRUE(openCampaignJournal(J, Dir.Path, "key-A", Extra, Fresh, &Err))
        << Err;
    EXPECT_TRUE(Fresh.Records.empty());
    EXPECT_FALSE(Fresh.Discarded);
    EXPECT_EQ(Fresh.Header.strOr("type", ""), "campaign");
    EXPECT_EQ(Fresh.Header.strOr("schema", ""), JournalSchema);
    EXPECT_EQ(Fresh.Header.strOr("key", ""), "key-A");
    EXPECT_EQ(Fresh.Header.strOr("seed", ""), "0x7");
    ASSERT_TRUE(J.append(record(0), &Err)) << Err;
  }
  {
    // Same key: the journaled header (and its seed) wins over the one
    // the resuming caller offers; the records after it replay.
    json::Value Other = json::Value::object();
    Other.set("seed", "0x999");
    Journal J;
    CampaignReplay Resumed;
    ASSERT_TRUE(
        openCampaignJournal(J, Dir.Path, "key-A", Other, Resumed, &Err))
        << Err;
    EXPECT_FALSE(Resumed.Discarded);
    EXPECT_EQ(Resumed.Header.strOr("seed", ""), "0x7");
    ASSERT_EQ(Resumed.Records.size(), 1u);
    EXPECT_EQ(Resumed.Records[0].dump(), record(0).dump());
  }
  Journal J;
  CampaignReplay Other;
  ASSERT_TRUE(
      openCampaignJournal(J, Dir.Path, "key-B", json::Value(), Other, &Err))
      << Err;
  EXPECT_TRUE(Other.Discarded);
  EXPECT_TRUE(Other.Records.empty());
  Journal Reread;
  Journal::RecoveryInfo Info;
  std::vector<json::Value> Records = replay(Reread, Dir.journalPath(), Info);
  ASSERT_EQ(Records.size(), 1u); // Only key-B's header survives.
  EXPECT_EQ(Records[0].strOr("key", ""), "key-B");
}

//===----------------------------------------------------------------------===//
// runCell
//===----------------------------------------------------------------------===//

support::SandboxPolicy policy(int Retries, int WallMs) {
  support::SandboxPolicy P;
  P.Retries = Retries;
  P.Limits.WallMs = WallMs;
  return P;
}

TEST(RunCell, DeadlineExhaustionDegradesToTimeout) {
  CellOutcome Out = runCell(sleepForever, policy(1, 300));
  EXPECT_FALSE(Out.ok());
  EXPECT_EQ(Out.ErrorKind, "timeout");
  EXPECT_EQ(Out.Attempts, 2u); // Initial try + 1 retry, both spent.
}

TEST(RunCell, ThrowingCellDegradesToExitWithItsMessage) {
  CellOutcome Out = runCell(
      []() -> json::Value { throw std::runtime_error("boom"); },
      policy(0, 20000));
  EXPECT_FALSE(Out.ok());
  EXPECT_EQ(Out.ErrorKind, "exit");
  EXPECT_EQ(Out.Attempts, 1u);
  // The child's last stderr line (the exception message) ends Error.
  const std::string Suffix = ": boom";
  ASSERT_GE(Out.Error.size(), Suffix.size()) << Out.Error;
  EXPECT_EQ(Out.Error.substr(Out.Error.size() - Suffix.size()), Suffix)
      << Out.Error;
}

TEST(RunCell, NonObjectPayloadIsBadPayload) {
  CellOutcome Out = runCell(
      [] {
        json::Value V = json::Value::array();
        V.push("row");
        return V;
      },
      policy(0, 20000));
  EXPECT_FALSE(Out.ok());
  EXPECT_EQ(Out.ErrorKind, "bad_payload");
}

TEST(RunCell, InjectedFirstAttemptCrashIsAbsorbedByRetry) {
  // ":once" fires on attempt 1 only; the sandbox child sets its own
  // attempt number, so the retry (attempt 2) runs clean. The override
  // is inherited across fork by the cell children.
  support::fault::armForTest("crash:cell:once");
  CellOutcome Out = runCell(
      [] {
        json::Value Doc = json::Value::object();
        Doc.set("value", 49);
        return Doc;
      },
      policy(1, 20000));
  support::fault::armForTest(nullptr);
  ASSERT_TRUE(Out.ok()) << Out.ErrorKind << ": " << Out.Error;
  EXPECT_EQ(Out.Attempts, 2u);
  EXPECT_EQ(Out.Result.numberOr("value", 0), 49);
}

//===----------------------------------------------------------------------===//
// Machine grids
//===----------------------------------------------------------------------===//

TEST(Explore, GridsArePinned) {
  // perfbench's `sweep` replays on every "small" point and fpint-fuzz
  // draws its timing machines from "full" (its journal key folds every
  // point's canonical key), so neither grid may drift silently: the
  // digest chains each point's label and canonical machine key. A
  // deliberate grid change re-pins the digest but must keep labels and
  // machines unique.
  struct Pin {
    const char *Grid;
    size_t Points;
    const char *Digest;
  };
  for (const Pin &P : {Pin{"small", 39, "adb844084680375f"},
                       Pin{"full", 117, "67b694fb44b3c3e5"}}) {
    std::vector<MachinePoint> G = exploreGrid(P.Grid);
    support::ChainedKey Key(P.Grid);
    std::set<std::string> Labels, Machines;
    for (const MachinePoint &MP : G) {
      Key.add(MP.Label).add(MP.M.canonicalKey());
      Labels.insert(MP.Label);
      Machines.insert(MP.M.canonicalKey());
    }
    EXPECT_EQ(G.size(), P.Points) << P.Grid;
    EXPECT_EQ(Key.hex(), P.Digest) << P.Grid;
    EXPECT_EQ(Labels.size(), G.size()) << P.Grid << ": duplicate labels";
    EXPECT_EQ(Machines.size(), G.size()) << P.Grid << ": duplicate machines";
  }
  EXPECT_TRUE(exploreGrid("no-such-grid").empty());
}

} // namespace
