//===- tests/SubprocessTest.cpp - Sandboxed task execution ----------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// support::Subprocess containment paths: payload capture, exit-code
/// and signal classification, the SIGTERM -> SIGKILL watchdog
/// escalation, RLIMIT_AS enforcement, stderr-tail capture, the
/// FPINT_FAULT attempt counter that models transient failures, and
/// SandboxPolicy's FPINT_CELL_* knob validation.
///
//===----------------------------------------------------------------------===//

#include "support/FaultInject.h"
#include "support/Subprocess.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <sys/resource.h>
#include <unistd.h>

using namespace fpint;
using namespace fpint::support;

namespace {

SandboxLimits quickLimits() {
  SandboxLimits L;
  L.WallMs = 10000;
  L.KillGraceMs = 300;
  return L;
}

void sleepMs(int Ms) {
  struct timespec TS = {Ms / 1000, (Ms % 1000) * 1000000L};
  nanosleep(&TS, nullptr);
}

TEST(Subprocess, CapturesPayloadAndExitZero) {
  TaskResult R = Subprocess::run(
      [](int Fd) {
        Subprocess::writeAll(Fd, "hello from the child");
        return 0;
      },
      quickLimits());
  EXPECT_TRUE(R.ok()) << R.describe();
  EXPECT_EQ(R.ExitCode, 0);
  EXPECT_EQ(R.Payload, "hello from the child");
  EXPECT_FALSE(R.TimedOut);
  EXPECT_GT(R.PeakRssKb, 0);
}

TEST(Subprocess, ClassifiesNonZeroExit) {
  TaskResult R = Subprocess::run([](int) { return 42; }, quickLimits());
  EXPECT_EQ(R.St, TaskResult::Status::ExitNonZero);
  EXPECT_EQ(R.ExitCode, 42);
  EXPECT_FALSE(R.ok());
}

TEST(Subprocess, ClassifiesFatalSignal) {
  TaskResult R = Subprocess::run(
      [](int) -> int {
        // Sanitizer runtimes install a SIGSEGV handler that converts
        // the fault into a report + exit; restore the default
        // disposition so the child genuinely dies by signal.
        signal(SIGSEGV, SIG_DFL);
        raise(SIGSEGV);
        return 0;
      },
      quickLimits());
  EXPECT_EQ(R.St, TaskResult::Status::Signaled);
  EXPECT_EQ(R.TermSignal, SIGSEGV);
  EXPECT_NE(R.describe().find("signal"), std::string::npos);
}

TEST(Subprocess, ChildExceptionBecomesExit125) {
  TaskResult R = Subprocess::run(
      [](int) -> int { throw std::runtime_error("boom in child"); },
      quickLimits());
  EXPECT_EQ(R.St, TaskResult::Status::ExitNonZero);
  EXPECT_EQ(R.ExitCode, 125);
  EXPECT_NE(R.StderrTail.find("boom in child"), std::string::npos);
}

TEST(Subprocess, WatchdogTerminatesCooperativeHang) {
  SandboxLimits L;
  L.WallMs = 200;
  L.KillGraceMs = 2000;
  TaskResult R = Subprocess::run(
      [](int) {
        for (;;)
          sleepMs(50);
        return 0;
      },
      L);
  EXPECT_TRUE(R.TimedOut);
  EXPECT_FALSE(R.Killed); // Default SIGTERM disposition killed it.
  EXPECT_EQ(R.St, TaskResult::Status::Signaled);
  EXPECT_EQ(R.TermSignal, SIGTERM);
}

TEST(Subprocess, WatchdogEscalatesToSigkill) {
  SandboxLimits L;
  L.WallMs = 200;
  L.KillGraceMs = 200;
  TaskResult R = Subprocess::run(
      [](int) {
        std::signal(SIGTERM, SIG_IGN);
        for (;;)
          sleepMs(50);
        return 0;
      },
      L);
  EXPECT_TRUE(R.TimedOut);
  EXPECT_TRUE(R.Killed);
  EXPECT_EQ(R.St, TaskResult::Status::Signaled);
  EXPECT_EQ(R.TermSignal, SIGKILL);
  EXPECT_NE(R.describe().find("timeout"), std::string::npos);
}

TEST(Subprocess, AddressSpaceLimitContainsAllocation) {
#if FPINT_BUILT_WITH_ASAN
  GTEST_SKIP() << "RLIMIT_AS is not applied under ASan (shadow reservation)";
#endif
  SandboxLimits L = quickLimits();
  L.AddressSpaceMb = 64;
  TaskResult R = Subprocess::run(
      [](int) -> int {
        // Try to allocate and touch far more than the limit; the
        // sandbox must stop the child (bad_alloc -> exit 125), never
        // the parent.
        for (int I = 0; I < 512; ++I) {
          char *P = new char[1 << 20];
          std::memset(P, 0xcd, 1 << 20);
        }
        return 0;
      },
      L);
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.TimedOut);
}

TEST(Subprocess, StderrTailKeepsOnlyTheTail) {
  SandboxLimits L = quickLimits();
  L.StderrTailBytes = 64;
  TaskResult R = Subprocess::run(
      [](int) {
        for (int I = 0; I < 1000; ++I)
          std::fprintf(stderr, "line %04d\n", I);
        return 0;
      },
      L);
  EXPECT_TRUE(R.ok());
  EXPECT_LE(R.StderrTail.size(), 64u);
  EXPECT_NE(R.StderrTail.find("0999"), std::string::npos);
  EXPECT_EQ(R.StderrTail.find("0000"), std::string::npos);
}

TEST(Subprocess, FaultAttemptCounterIsInheritedByChild) {
  // The attempt counter is ordinary process state, so a child starts
  // with the value its parent held at fork time (campaign::runCell then
  // sets the child's own attempt first thing). Without FPINT_FAULT in
  // the environment inject() stays inert, so this checks the plumbing,
  // not the fault itself.
  fault::setAttempt(2);
  TaskResult R = Subprocess::run(
      [](int Fd) {
        // inject() must be a no-op here (no FPINT_FAULT in the test
        // environment) -- reaching the write proves it.
        fault::inject("subprocess_test");
        Subprocess::writeAll(Fd, "alive");
        return 0;
      },
      quickLimits());
  fault::setAttempt(1);
  EXPECT_TRUE(R.ok()) << R.describe();
  EXPECT_EQ(R.Payload, "alive");
}

/// Sets (or, with nullptr, unsets) one environment variable for the
/// enclosing scope.
struct ScopedEnv {
  std::string Name;
  ScopedEnv(const char *N, const char *Value) : Name(N) {
    if (Value)
      setenv(N, Value, 1);
    else
      unsetenv(N);
  }
  ~ScopedEnv() { unsetenv(Name.c_str()); }
};

TEST(SandboxPolicy, DefaultsAreTheDocumentedConstants) {
  ScopedEnv R("FPINT_CELL_RETRIES", nullptr);
  ScopedEnv T("FPINT_CELL_TIMEOUT_MS", nullptr);
  ScopedEnv A("FPINT_CELL_AS_MB", nullptr);
  SandboxPolicy P = SandboxPolicy::fromEnv();
  EXPECT_EQ(P.Retries, 2);
  EXPECT_EQ(P.Limits.WallMs, 120000);
  EXPECT_EQ(P.Limits.KillGraceMs, 500);
  EXPECT_EQ(P.Limits.AddressSpaceMb, 4096u);
  EXPECT_EQ(SandboxPolicy::backoffMs(1), 50);
  EXPECT_EQ(SandboxPolicy::backoffMs(2), 100);
  EXPECT_EQ(SandboxPolicy::backoffMs(3), 200);
}

TEST(SandboxPolicy, FromEnvRejectsInvalidKnobsWithAWarning) {
  struct Case {
    const char *Text;
    bool Timeout, Retries, AsMb; // Whether each knob accepts Text.
  };
  // The watchdog and the memory cap must never be disabled by a knob:
  // 0 is valid only as a retry count.
  const Case Cases[] = {{"0", false, true, false},
                        {"-5", false, false, false},
                        {"abc", false, false, false},
                        {"2s", false, false, false},
                        {"7", true, true, true}};
  for (const Case &C : Cases) {
    ScopedEnv R("FPINT_CELL_RETRIES", C.Text);
    ScopedEnv T("FPINT_CELL_TIMEOUT_MS", C.Text);
    ScopedEnv A("FPINT_CELL_AS_MB", C.Text);
    testing::internal::CaptureStderr();
    SandboxPolicy P = SandboxPolicy::fromEnv();
    std::string Warnings = testing::internal::GetCapturedStderr();

    const int N = std::atoi(C.Text);
    EXPECT_EQ(P.Retries, C.Retries ? N : 2) << C.Text;
    EXPECT_EQ(P.Limits.WallMs, C.Timeout ? N : 120000) << C.Text;
    EXPECT_EQ(P.Limits.AddressSpaceMb,
              C.AsMb ? static_cast<uint64_t>(N) : 4096u)
        << C.Text;
    EXPECT_EQ(P.Limits.KillGraceMs, 500);
    for (auto [Knob, Accepted] :
         {std::pair{"FPINT_CELL_RETRIES", C.Retries},
          std::pair{"FPINT_CELL_TIMEOUT_MS", C.Timeout},
          std::pair{"FPINT_CELL_AS_MB", C.AsMb}})
      EXPECT_EQ(Warnings.find(std::string(Knob) + "='" + C.Text + "'") ==
                    std::string::npos,
                Accepted)
          << C.Text << ": " << Warnings;
  }
}

/// Restores RLIMIT_NOFILE and closes filler fds even when an
/// EXPECT/ASSERT bails out of the test early (later tests open fds).
struct FdSqueeze {
  struct rlimit Old;
  std::vector<int> Fillers;
  bool Active = false;

  ~FdSqueeze() {
    for (int Fd : Fillers)
      close(Fd);
    if (Active)
      setrlimit(RLIMIT_NOFILE, &Old);
  }

  /// Lowers the fd limit and fills every free slot except \p Spare.
  bool squeeze(size_t Spare) {
    if (getrlimit(RLIMIT_NOFILE, &Old) != 0)
      return false;
    Active = true;
    struct rlimit RL = Old;
    RL.rlim_cur = highestOpenFd() + 8;
    if (setrlimit(RLIMIT_NOFILE, &RL) != 0)
      return false;
    for (;;) {
      int Fd = dup(0);
      if (Fd < 0)
        break;
      Fillers.push_back(Fd);
    }
    for (size_t I = 0; I < Spare && !Fillers.empty(); ++I) {
      close(Fillers.back());
      Fillers.pop_back();
    }
    return true;
  }

  static int highestOpenFd() {
    int Highest = 2;
    for (const auto &E :
         std::filesystem::directory_iterator("/proc/self/fd"))
      Highest = std::max(Highest, std::atoi(E.path().filename().c_str()));
    return Highest;
  }

  static size_t openFdCount() {
    size_t N = 0;
    for ([[maybe_unused]] const auto &E :
         std::filesystem::directory_iterator("/proc/self/fd"))
      ++N;
    return N;
  }
};

TEST(Subprocess, SpawnFailureLeaksNoDescriptors) {
  // Force the stderr pipe() to fail mid-spawn: leave exactly three
  // free fd slots, so the payload pipe (two fds) opens and the stderr
  // pipe cannot. run() must report SpawnFailed and release the payload
  // pipe's descriptors -- the parent's fd table is unchanged. (Fork
  // failure is not forcible here: RLIMIT_NPROC is not enforced for
  // root, which is what CI containers run as.)
  FdSqueeze Squeeze;
  ASSERT_TRUE(Squeeze.squeeze(3));
  const size_t Before = FdSqueeze::openFdCount();

  TaskResult R = Subprocess::run([](int) { return 0; }, quickLimits());
  EXPECT_EQ(R.St, TaskResult::Status::SpawnFailed);
  EXPECT_EQ(R.describe(), "spawn failed");
  EXPECT_EQ(FdSqueeze::openFdCount(), Before);

  // One free slot: even the first pipe() fails; still no leak. (The
  // remaining slot keeps /proc/self/fd scans possible.)
  for (int I = 0; I < 2; ++I) {
    int Fd = dup(0);
    if (Fd >= 0)
      Squeeze.Fillers.push_back(Fd);
  }
  const size_t Before2 = FdSqueeze::openFdCount();
  R = Subprocess::run([](int) { return 0; }, quickLimits());
  EXPECT_EQ(R.St, TaskResult::Status::SpawnFailed);
  EXPECT_EQ(FdSqueeze::openFdCount(), Before2);
}

TEST(Subprocess, RunsLeakNoDescriptors) {
  // Every run opens two pipes and a child-exit descriptor; all of them
  // must be closed again, whether the child exits by itself or the
  // watchdog has to kill it.
  SandboxLimits Kill;
  Kill.WallMs = 50;
  Kill.KillGraceMs = 50;
  const size_t Before = FdSqueeze::openFdCount();
  for (int I = 0; I < 10; ++I) {
    TaskResult Clean = Subprocess::run(
        [](int Fd) {
          Subprocess::writeAll(Fd, "ok");
          return 0;
        },
        quickLimits());
    EXPECT_TRUE(Clean.ok()) << Clean.describe();
    TaskResult Hung = Subprocess::run(
        [](int) {
          std::signal(SIGTERM, SIG_IGN);
          for (;;)
            sleepMs(50);
          return 0;
        },
        Kill);
    EXPECT_TRUE(Hung.Killed) << Hung.describe();
  }
  EXPECT_EQ(FdSqueeze::openFdCount(), Before);
}

} // namespace
