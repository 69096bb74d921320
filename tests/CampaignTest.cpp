//===- tests/CampaignTest.cpp - Durable campaign runtime ------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The crash-safety contract of src/campaign: journal round-trip and
/// torn-tail recovery, content-key stability, resume-skips-completed,
/// SIGKILL-mid-campaign resume producing byte-identical results,
/// exactly-once journaling under an injected first-attempt crash,
/// deadline exhaustion degrading to typed ERR records, and the
/// explore grid / Pareto frontier helpers.
///
//===----------------------------------------------------------------------===//

#include "campaign/Campaign.h"
#include "campaign/Explore.h"
#include "campaign/Journal.h"
#include "support/FaultInject.h"
#include "support/Subprocess.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <csignal>
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

/// Standard cells k0..k(N-1) with display labels.
std::vector<Cell> makeCells(int N) {
  std::vector<Cell> Cells;
  for (int I = 0; I < N; ++I)
    Cells.push_back({"k" + std::to_string(I), "cell" + std::to_string(I)});
  return Cells;
}

Options inProcessOptions(const std::string &Dir, const std::string &Key) {
  Options O;
  O.Dir = Dir;
  O.CampaignKey = Key;
  O.Policy.Retries = 0;
  O.Jobs = 1;
  O.Sandbox = false;
  return O;
}

/// Deterministic cell document for the resume tests.
json::Value squareDoc(const Cell &C) {
  json::Value Doc = json::Value::object();
  int I = std::atoi(C.Key.c_str() + 1);
  Doc.set("value", I * I);
  Doc.set("label", C.Label);
  return Doc;
}

/// Canonical dump of every outcome, in input-cell order -- the
/// byte-identity probe used by the kill/resume tests.
std::string outcomesDump(const std::vector<CellOutcome> &Outcomes) {
  std::string Text;
  for (const CellOutcome &Out : Outcomes) {
    Text += Out.ok() ? Out.Result.dump() : ("ERR:" + Out.ErrorKind);
    Text += "\n";
  }
  return Text;
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
// Content keys
//===----------------------------------------------------------------------===//

TEST(CellKey, IsStableAcrossProcesses) {
  // Golden value: chained FNV-1a with 0x1f separators, folded with
  // JournalSchema. If this changes, every persisted journal is
  // invalidated -- bump JournalSchema instead of silently re-keying.
  EXPECT_EQ(cellKey("compress", "pipe", "mach"), "620cdbd2c7389c67");
}

TEST(CellKey, IsSensitiveToEveryComponent) {
  const std::string Base = cellKey("w", "p", "m");
  EXPECT_EQ(Base.size(), 16u);
  EXPECT_NE(cellKey("w2", "p", "m"), Base);
  EXPECT_NE(cellKey("w", "p2", "m"), Base);
  EXPECT_NE(cellKey("w", "p", "m2"), Base);
  // Separators prevent concatenation collisions.
  EXPECT_NE(cellKey("wp", "", "m"), cellKey("w", "p", "m"));
}

TEST(CellKey, ExplorePipelineKeyFollowsEnvOverride) {
  // A resumed explore campaign must not replay cells compiled by a
  // different pipeline: $FPINT_PASSES is part of each cell's key.
  const std::string Default =
      cellKey("compress", explorePipelineKey("compress"), "m");
  setenv("FPINT_PASSES", "opt2", 1);
  const std::string Opt2 =
      cellKey("compress", explorePipelineKey("compress"), "m");
  unsetenv("FPINT_PASSES");
  EXPECT_NE(Default, Opt2);
}

//===----------------------------------------------------------------------===//
// Runner
//===----------------------------------------------------------------------===//

TEST(Runner, ExecutesAllCellsThenResumesAll) {
  TempDir Dir("resume_all");
  std::atomic<int> Calls{0};
  auto Fn = [&Calls](const Cell &C) {
    ++Calls;
    return squareDoc(C);
  };

  Runner R1(inProcessOptions(Dir.Path, "key1"));
  std::vector<CellOutcome> First = R1.run(makeCells(4), Fn);
  EXPECT_EQ(Calls.load(), 4);
  EXPECT_EQ(R1.summary().Executed, 4u);
  EXPECT_EQ(R1.summary().Resumed, 0u);
  EXPECT_EQ(R1.summary().Completed, 4u);

  // A second campaign over the same cells replays everything from the
  // journal: the cell function never runs again, and every outcome is
  // byte-identical to the first run's.
  Runner R2(inProcessOptions(Dir.Path, "key1"));
  std::vector<CellOutcome> Second = R2.run(makeCells(4), Fn);
  EXPECT_EQ(Calls.load(), 4);
  EXPECT_EQ(R2.summary().Resumed, 4u);
  EXPECT_EQ(R2.summary().Executed, 0u);
  EXPECT_EQ(outcomesDump(First), outcomesDump(Second));
  for (const CellOutcome &Out : Second)
    EXPECT_TRUE(Out.Resumed);
}

TEST(Runner, DiscardsJournalOfDifferentCampaign) {
  TempDir Dir("discard");
  auto Fn = [](const Cell &C) { return squareDoc(C); };

  Runner R1(inProcessOptions(Dir.Path, "campaign-A"));
  R1.run(makeCells(2), Fn);

  // Same state dir, different campaign identity: the journal is reset,
  // nothing resumes, and the summary says so.
  Runner R2(inProcessOptions(Dir.Path, "campaign-B"));
  R2.run(makeCells(2), Fn);
  EXPECT_TRUE(R2.summary().JournalDiscarded);
  EXPECT_EQ(R2.summary().Resumed, 0u);
  EXPECT_EQ(R2.summary().Executed, 2u);
}

TEST(Runner, SigkillMidCampaignResumesByteIdentical) {
  TempDir Killed("kill_resume");
  TempDir Clean("kill_clean");

  // Phase 1: a forked harness runs the campaign in-process and dies on
  // SIGKILL after journaling exactly 3 of 6 cells -- the uncontained
  // harness-death scenario the journal exists for.
  support::SandboxLimits Limits;
  Limits.WallMs = 30000;
  Limits.KillGraceMs = 500;
  std::string Dir = Killed.Path;
  support::TaskResult Death = support::Subprocess::run(
      [&Dir](int) {
        Options O;
        O.Dir = Dir;
        O.CampaignKey = "kill-test";
        O.Policy.Retries = 0;
        O.Jobs = 1; // Pool threads do not survive the fork.
        O.Sandbox = false;
        int Done = 0;
        Runner R(O);
        R.run(makeCells(6), [&Done](const Cell &C) {
          if (Done == 3)
            raise(SIGKILL);
          ++Done;
          return squareDoc(C);
        });
        return 0; // Unreachable.
      },
      Limits);
  ASSERT_EQ(Death.St, support::TaskResult::Status::Signaled);
  ASSERT_EQ(Death.TermSignal, SIGKILL);

  // Phase 2: resume. Only the 3 unfinished cells execute.
  std::atomic<int> ResumeCalls{0};
  Runner Resumed(inProcessOptions(Killed.Path, "kill-test"));
  std::vector<CellOutcome> ResumedOutcomes =
      Resumed.run(makeCells(6), [&ResumeCalls](const Cell &C) {
        ++ResumeCalls;
        return squareDoc(C);
      });
  EXPECT_EQ(ResumeCalls.load(), 3);
  EXPECT_EQ(Resumed.summary().Resumed, 3u);
  EXPECT_EQ(Resumed.summary().Executed, 3u);
  EXPECT_EQ(Resumed.summary().Completed, 6u);

  // The resumed campaign's results are byte-identical to a never-
  // interrupted campaign's.
  Runner Uninterrupted(inProcessOptions(Clean.Path, "kill-test"));
  std::vector<CellOutcome> CleanOutcomes =
      Uninterrupted.run(makeCells(6), [](const Cell &C) {
        return squareDoc(C);
      });
  EXPECT_EQ(outcomesDump(ResumedOutcomes), outcomesDump(CleanOutcomes));
}

TEST(Runner, InjectedFirstAttemptCrashIsAbsorbedByRetry) {
  TempDir Dir("crash_once");
  // ":once" fires on attempt 1 only; the sandbox child sets its own
  // attempt number, so the retry (attempt 2) runs clean. The override
  // is inherited across fork by the cell children.
  support::fault::armForTest("crash:campaign:cell:once");

  Options O;
  O.Dir = Dir.Path;
  O.CampaignKey = "crash-once";
  O.Policy.Retries = 1;
  O.Policy.Limits.WallMs = 20000;
  O.Jobs = 1;
  O.Sandbox = true;
  Runner R(O);
  std::vector<CellOutcome> Outcomes =
      R.run(makeCells(3), [](const Cell &C) { return squareDoc(C); });
  support::fault::armForTest(nullptr);

  EXPECT_EQ(R.summary().Completed, 3u);
  EXPECT_EQ(R.summary().Errors, 0u);
  EXPECT_EQ(R.summary().Retried, 3u);
  for (const CellOutcome &Out : Outcomes) {
    EXPECT_TRUE(Out.ok());
    EXPECT_EQ(Out.Attempts, 2u);
  }

  // Exactly-once in the journal: resuming replays one record per cell.
  Runner R2(inProcessOptions(Dir.Path, "crash-once"));
  R2.run(makeCells(3), [](const Cell &C) { return squareDoc(C); });
  EXPECT_EQ(R2.summary().Resumed, 3u);
  EXPECT_EQ(R2.summary().Executed, 0u);
}

TEST(Runner, DeadlineExhaustionDegradesToTypedErr) {
  TempDir Dir("deadline");
  Options O;
  O.Dir = Dir.Path;
  O.CampaignKey = "deadline";
  O.Policy.Retries = 1;
  O.Policy.Limits.WallMs = 300;
  O.Jobs = 1;
  O.Sandbox = true;
  Runner R(O);
  std::vector<CellOutcome> Outcomes =
      R.run(makeCells(1), [](const Cell &) -> json::Value {
        for (;;) {
          struct timespec TS = {0, 50 * 1000 * 1000};
          nanosleep(&TS, nullptr);
        }
      });
  ASSERT_EQ(Outcomes.size(), 1u);
  EXPECT_FALSE(Outcomes[0].ok());
  EXPECT_EQ(Outcomes[0].ErrorKind, "timeout");
  EXPECT_EQ(Outcomes[0].Attempts, 2u); // Initial try + 1 retry, both spent.
  EXPECT_EQ(R.summary().Errors, 1u);
  EXPECT_EQ(R.summary().Completed, 0u);

  // The ERR is journaled like any completion: the campaign resumes
  // past it instead of re-hanging on every restart.
  Runner R2(inProcessOptions(Dir.Path, "deadline"));
  std::vector<CellOutcome> Resumed =
      R2.run(makeCells(1), [](const Cell &C) { return squareDoc(C); });
  EXPECT_EQ(R2.summary().Resumed, 1u);
  EXPECT_FALSE(Resumed[0].ok());
  EXPECT_EQ(Resumed[0].ErrorKind, "timeout");
}

TEST(Runner, ThrowingCellDegradesInProcess) {
  TempDir Dir("throw");
  Runner R(inProcessOptions(Dir.Path, "throw"));
  std::vector<CellOutcome> Outcomes =
      R.run(makeCells(1), [](const Cell &) -> json::Value {
        throw std::runtime_error("boom");
      });
  ASSERT_EQ(Outcomes.size(), 1u);
  EXPECT_FALSE(Outcomes[0].ok());
  EXPECT_EQ(Outcomes[0].ErrorKind, "exception");
  EXPECT_EQ(Outcomes[0].Error, "boom");
}

TEST(Summary, SerializesEveryCounter) {
  Summary S;
  S.Cells = 10;
  S.Completed = 8;
  S.Resumed = 3;
  S.Executed = 7;
  S.Retried = 2;
  S.Errors = 2;
  S.JournalTruncatedBytes = 17;
  S.JournalDiscarded = true;
  json::Value V = summaryToJson(S);
  EXPECT_EQ(V.numberOr("cells", 0), 10);
  EXPECT_EQ(V.numberOr("completed", 0), 8);
  EXPECT_EQ(V.numberOr("resumed", 0), 3);
  EXPECT_EQ(V.numberOr("executed", 0), 7);
  EXPECT_EQ(V.numberOr("retried", 0), 2);
  EXPECT_EQ(V.numberOr("errors", 0), 2);
  EXPECT_EQ(V.numberOr("journal_truncated_bytes", 0), 17);
  const json::Value *D = V.find("journal_discarded");
  ASSERT_NE(D, nullptr);
  EXPECT_TRUE(D->boolean());
}

TEST(PublishReport, WritesAtomicallyWithTrailingNewline) {
  TempDir Dir("publish");
  json::Value Doc = json::Value::object();
  Doc.set("hello", "world");
  std::string Path = Dir.Path + "/sub/report.json";
  std::string Err;
  ASSERT_TRUE(publishReport(Path, Doc, &Err)) << Err;

  std::ifstream In(Path, std::ios::binary);
  std::string Text((std::istreambuf_iterator<char>(In)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(Text, Doc.dump() + "\n");
  // No tmp litter left behind.
  size_t Entries = 0;
  for (const auto &Ent : fs::directory_iterator(Dir.Path + "/sub"))
    (void)Ent, ++Entries;
  EXPECT_EQ(Entries, 1u);
}

//===----------------------------------------------------------------------===//
// Explore helpers
//===----------------------------------------------------------------------===//

TEST(Explore, GridsAreDeterministicWithUniqueLabels) {
  for (const char *Name : {"smoke", "small", "full"}) {
    std::vector<MachinePoint> A = exploreGrid(Name);
    std::vector<MachinePoint> B = exploreGrid(Name);
    ASSERT_FALSE(A.empty()) << Name;
    ASSERT_EQ(A.size(), B.size());
    std::set<std::string> Labels, Keys;
    for (size_t I = 0; I < A.size(); ++I) {
      EXPECT_EQ(A[I].Label, B[I].Label);
      EXPECT_EQ(A[I].M.canonicalKey(), B[I].M.canonicalKey());
      Labels.insert(A[I].Label);
      Keys.insert(A[I].M.canonicalKey());
    }
    EXPECT_EQ(Labels.size(), A.size()) << Name << ": duplicate labels";
    EXPECT_EQ(Keys.size(), A.size()) << Name << ": duplicate machines";
  }
  EXPECT_TRUE(exploreGrid("no-such-grid").empty());
  // The grids nest by intent: smoke < small < full.
  EXPECT_LT(exploreGrid("smoke").size(), exploreGrid("small").size());
  EXPECT_LT(exploreGrid("small").size(), exploreGrid("full").size());
}

TEST(Explore, ResourceCostIsMonotoneInMajorAxes) {
  timing::MachineConfig Four = timing::MachineConfig::fourWay();
  timing::MachineConfig Eight = timing::MachineConfig::eightWay();
  EXPECT_LT(resourceCost(Four), resourceCost(Eight));

  timing::MachineConfig BiggerCache = Four;
  BiggerCache.DCache.SizeBytes *= 2;
  EXPECT_LT(resourceCost(Four), resourceCost(BiggerCache));

  timing::MachineConfig NoPredictor = Four;
  NoPredictor.Predictor = timing::PredictorKind::StaticNotTaken;
  EXPECT_LT(resourceCost(NoPredictor), resourceCost(Four));
}

TEST(Explore, ParetoFrontierMarksUndominatedPoints) {
  // (cost, value): a dominates nothing, b dominates c (same cost, more
  // value), d is the cheap end of the frontier.
  std::vector<uint64_t> Cost = {10, 20, 20, 5};
  std::vector<double> Value = {1.0, 2.0, 1.5, 0.5};
  std::vector<bool> On = paretoFrontier(Cost, Value);
  ASSERT_EQ(On.size(), 4u);
  EXPECT_TRUE(On[0]);  // Cheapest point with value 1.0.
  EXPECT_TRUE(On[1]);  // Highest value.
  EXPECT_FALSE(On[2]); // Dominated by b.
  EXPECT_TRUE(On[3]);  // Cheapest overall.

  // Duplicates do not knock each other off the frontier (neither
  // strictly dominates).
  std::vector<bool> Dup = paretoFrontier({7, 7}, {1.0, 1.0});
  EXPECT_TRUE(Dup[0]);
  EXPECT_TRUE(Dup[1]);

  EXPECT_TRUE(paretoFrontier({}, {}).empty());
}

} // namespace
