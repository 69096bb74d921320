//===- campaign/Campaign.cpp - Durable, resumable campaign runtime --------===//

#include "campaign/Campaign.h"

#include "support/FaultInject.h"
#include "support/Hash.h"
#include "support/Subprocess.h"
#include "support/ThreadPool.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <map>
#include <mutex>
#include <stdexcept>
#include <thread>

#include <unistd.h>

using namespace fpint;
using namespace fpint::campaign;
namespace fs = std::filesystem;

namespace {

/// Journal record for one completed cell. The result document is
/// embedded verbatim; its canonical dump is what makes replay
/// byte-identical.
json::Value cellRecord(const std::string &Key, const CellOutcome &Out) {
  json::Value R = json::Value::object();
  R.set("type", "cell");
  R.set("key", Key);
  R.set("status", Out.ok() ? "ok" : "err");
  R.set("attempts", static_cast<int64_t>(Out.Attempts));
  if (Out.ok()) {
    R.set("result", Out.Result);
  } else {
    R.set("error_kind", Out.ErrorKind);
    R.set("error", Out.Error);
  }
  return R;
}

bool parseCellRecord(const json::Value &R, std::string &Key,
                     CellOutcome &Out) {
  if (R.strOr("type", "") != "cell")
    return false;
  Key = R.strOr("key", "");
  if (Key.empty())
    return false;
  Out = CellOutcome();
  Out.Resumed = true;
  Out.Attempts = 0;
  if (R.strOr("status", "") == "ok") {
    const json::Value *Result = R.find("result");
    if (!Result || !Result->isObject())
      return false;
    Out.St = CellOutcome::Status::Ok;
    Out.Result = *Result;
  } else {
    Out.St = CellOutcome::Status::Err;
    Out.ErrorKind = R.strOr("error_kind", "unknown");
    Out.Error = R.strOr("error", "");
  }
  return true;
}

} // namespace

std::string campaign::cellKey(const std::string &Workload,
                              const std::string &PipelineKey,
                              const std::string &MachineKey) {
  return support::ChainedKey(Workload)
      .add(PipelineKey)
      .add(MachineKey)
      .add(JournalSchema)
      .hex();
}

json::Value campaign::summaryToJson(const Summary &S) {
  json::Value V = json::Value::object();
  V.set("cells", S.Cells);
  V.set("completed", S.Completed);
  V.set("resumed", S.Resumed);
  V.set("executed", S.Executed);
  V.set("retried", S.Retried);
  V.set("errors", S.Errors);
  V.set("journal_truncated_bytes", S.JournalTruncatedBytes);
  V.set("journal_discarded", S.JournalDiscarded);
  return V;
}

bool campaign::publishReport(const std::string &Path, const json::Value &Doc,
                             std::string *Err) {
  const std::string Text = Doc.dump() + "\n";
  std::error_code EC;
  fs::path Parent = fs::path(Path).parent_path();
  if (!Parent.empty())
    fs::create_directories(Parent, EC);
  const std::string Tmp =
      Path + ".tmp." + std::to_string(static_cast<long>(getpid()));
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out) {
      if (Err)
        *Err = "cannot write " + Tmp;
      return false;
    }
    Out.write(Text.data(), static_cast<std::streamsize>(Text.size()));
    Out.flush();
    if (!Out) {
      fs::remove(Tmp, EC);
      if (Err)
        *Err = "short write to " + Tmp;
      return false;
    }
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    fs::remove(Tmp, EC);
    if (Err)
      *Err = "rename to " + Path + " failed";
    return false;
  }
  return true;
}

CellOutcome campaign::runCell(const Cell &C, const CellFn &Fn,
                              const support::SandboxPolicy &Policy,
                              const char *FaultSite, bool Sandbox) {
  CellOutcome Out;
  for (int Attempt = 1;; ++Attempt) {
    Out.Attempts = static_cast<unsigned>(Attempt);
    Out.ErrorKind.clear();
    Out.Error.clear();
    json::Value Result;
    if (Sandbox) {
      support::TaskResult R = support::Subprocess::run(
          [&](int PayloadFd) {
            // The child sets its own attempt number: campaign cells fork
            // from pool workers, so a parent-side shared counter would
            // race across concurrent cells.
            support::fault::setAttempt(static_cast<unsigned>(Attempt));
            support::fault::inject(FaultSite);
            try {
              return support::Subprocess::writeAll(PayloadFd, Fn(C).dump())
                         ? 0
                         : 2;
            } catch (const std::exception &E) {
              std::fprintf(stderr, "%s\n", E.what());
              return 3;
            }
          },
          Policy.Limits);
      using Status = support::TaskResult::Status;
      if (R.ok()) {
        json::Value::parse(R.Payload, Result, &Out.Error);
      } else {
        Out.ErrorKind = (R.TimedOut || R.Killed)      ? "timeout"
                        : R.St == Status::Signaled    ? "crash"
                        : R.St == Status::SpawnFailed ? "spawn_failed"
                                                      : "exit";
        Out.Error = R.describe();
        std::string Tail = R.StderrTail;
        if (!Tail.empty() && Tail.back() == '\n')
          Tail.pop_back();
        if (!Tail.empty())
          Out.Error += ": " + Tail.substr(Tail.rfind('\n') + 1);
      }
    } else {
      try {
        support::fault::setAttempt(static_cast<unsigned>(Attempt));
        support::fault::inject(FaultSite);
        Result = Fn(C);
      } catch (const std::exception &E) {
        Out.ErrorKind = "exception";
        Out.Error = E.what();
      }
      support::fault::setAttempt(1);
    }
    if (Out.ErrorKind.empty() && Result.isObject()) {
      Out.St = CellOutcome::Status::Ok;
      Out.Result = std::move(Result);
      return Out;
    }
    if (Out.ErrorKind.empty()) {
      Out.ErrorKind = "bad_payload";
      Out.Error = "cell result is not a JSON object" +
                  (Out.Error.empty() ? "" : ": " + Out.Error);
    }
    if (Attempt > Policy.Retries)
      return Out;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        support::SandboxPolicy::backoffMs(Attempt)));
  }
}

Runner::Runner(Options O) : Opts(std::move(O)) {
  if (Opts.Dir.empty()) {
    const char *E = std::getenv("FPINT_CAMPAIGN_DIR");
    Opts.Dir = E && *E ? E : "campaign_state";
  }
}

std::vector<CellOutcome> Runner::run(const std::vector<Cell> &Cells,
                                     const CellFn &Fn) {
  Sum = Summary();
  Sum.Cells = Cells.size();

  Journal J;
  CampaignReplay Replay;
  std::string Err;
  if (!openCampaignJournal(J, Opts.Dir, Opts.CampaignKey, json::Value(),
                           Replay, &Err))
    throw std::runtime_error("campaign journal: " + Err);
  Sum.JournalTruncatedBytes = Replay.TruncatedBytes;
  Sum.JournalDiscarded = Replay.Discarded;

  // Replay completed cells (last record wins on duplicates).
  std::map<std::string, CellOutcome> Done;
  for (const json::Value &R : Replay.Records) {
    std::string Key;
    CellOutcome Out;
    if (parseCellRecord(R, Key, Out))
      Done[Key] = std::move(Out);
  }

  std::vector<CellOutcome> Outcomes(Cells.size());
  std::vector<size_t> Pending;
  for (size_t I = 0; I < Cells.size(); ++I) {
    auto It = Done.find(Cells[I].Key);
    if (It != Done.end()) {
      Outcomes[I] = It->second;
      ++Sum.Resumed;
    } else {
      Pending.push_back(I);
    }
  }

  // Execute the unfinished cells and journal each completion before
  // counting it done. Journal appends are serialized internally; a
  // crash between execution and append merely re-executes that cell
  // on resume (at-least-once execution, exactly-once in the journal).
  std::mutex JournalMu;
  std::string JournalErr;
  auto RunOne = [&](size_t I) {
    CellOutcome Out =
        runCell(Cells[I], Fn, Opts.Policy, "campaign:cell", Opts.Sandbox);
    std::string AppendErr;
    if (!J.append(cellRecord(Cells[I].Key, Out), &AppendErr)) {
      std::lock_guard<std::mutex> Lock(JournalMu);
      if (JournalErr.empty())
        JournalErr = AppendErr;
    }
    Outcomes[I] = std::move(Out);
  };

  if (Opts.Jobs == 1 || Pending.size() <= 1) {
    for (size_t I : Pending)
      RunOne(I);
  } else {
    support::ThreadPool &Pool = support::ThreadPool::global();
    std::vector<std::future<void>> Futures;
    Futures.reserve(Pending.size());
    for (size_t I : Pending)
      Futures.push_back(Pool.submit([&RunOne, I] { RunOne(I); }));
    for (std::future<void> &F : Futures)
      F.get();
  }
  if (!JournalErr.empty())
    throw std::runtime_error("campaign journal: " + JournalErr);

  for (const CellOutcome &Out : Outcomes) {
    if (!Out.Resumed) {
      ++Sum.Executed;
      if (Out.Attempts > 1)
        ++Sum.Retried;
    }
    if (Out.ok())
      ++Sum.Completed;
    else
      ++Sum.Errors;
  }
  return Outcomes;
}
