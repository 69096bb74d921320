//===- campaign/Campaign.cpp - Sandboxed, retried cell execution ----------===//

#include "campaign/Campaign.h"

#include "support/FaultInject.h"

#include <chrono>
#include <cstdio>
#include <thread>

using namespace fpint;
using namespace fpint::campaign;

CellOutcome campaign::runCell(const CellFn &Fn,
                              const support::SandboxPolicy &Policy) {
  CellOutcome Out;
  for (int Attempt = 1;; ++Attempt) {
    Out.Attempts = static_cast<unsigned>(Attempt);
    Out.ErrorKind.clear();
    Out.Error.clear();
    json::Value Result;
    support::TaskResult R = support::Subprocess::run(
        [&](int PayloadFd) {
          // The child sets its own attempt number, so the parent's
          // fault state never changes.
          support::fault::setAttempt(static_cast<unsigned>(Attempt));
          support::fault::inject("cell");
          try {
            return support::Subprocess::writeAll(PayloadFd, Fn().dump()) ? 0
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
