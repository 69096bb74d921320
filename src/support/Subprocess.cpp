//===- support/Subprocess.cpp - Fork-based sandboxed task execution -------===//

#include "support/Subprocess.h"

#include "support/ParseNumber.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>

#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace fpint;
using namespace fpint::support;

namespace {

double nowSeconds() {
  using namespace std::chrono;
  return duration_cast<duration<double>>(
             steady_clock::now().time_since_epoch())
      .count();
}

void setNonBlocking(int Fd) {
  int Flags = fcntl(Fd, F_GETFL, 0);
  if (Flags >= 0)
    fcntl(Fd, F_SETFL, Flags | O_NONBLOCK);
}

/// Appends everything currently readable from \p Fd to \p Out;
/// returns false once the peer closed (EOF).
bool drainFd(int Fd, std::string &Out) {
  char Buf[4096];
  for (;;) {
    ssize_t N = read(Fd, Buf, sizeof(Buf));
    if (N > 0) {
      Out.append(Buf, static_cast<size_t>(N));
      continue;
    }
    if (N == 0)
      return false; // EOF.
    if (errno == EAGAIN || errno == EWOULDBLOCK)
      return true;
    if (errno == EINTR)
      continue;
    return false; // Unexpected error; treat as closed.
  }
}

/// Owns both ends of a pipe(); whatever is still open at scope exit is
/// closed. Every early-return path (second pipe() failing, fork
/// failing) releases its descriptors structurally instead of by
/// hand-written close() sequences.
struct ScopedPipe {
  int Fds[2] = {-1, -1};

  ~ScopedPipe() {
    closeRead();
    closeWrite();
  }
  bool open() { return pipe(Fds) == 0; }
  int readFd() const { return Fds[0]; }
  int writeFd() const { return Fds[1]; }
  void closeRead() {
    if (Fds[0] >= 0) {
      close(Fds[0]);
      Fds[0] = -1;
    }
  }
  void closeWrite() {
    if (Fds[1] >= 0) {
      close(Fds[1]);
      Fds[1] = -1;
    }
  }
};

/// A pidfd for the supervised child, closed at scope exit. It becomes
/// readable when the child exits, so polling it wakes the supervisor
/// the moment there is something to reap. Invalid (-1) where the
/// kernel lacks pidfd_open; the poll tick then does the waking.
struct ScopedPidFd {
  int Fd = -1;

  explicit ScopedPidFd(pid_t Pid) {
#ifdef SYS_pidfd_open
    Fd = static_cast<int>(syscall(SYS_pidfd_open, Pid, 0));
#else
    (void)Pid;
#endif
  }
  ~ScopedPidFd() {
    if (Fd >= 0)
      close(Fd);
  }
  ScopedPidFd(const ScopedPidFd &) = delete;
  ScopedPidFd &operator=(const ScopedPidFd &) = delete;
};

void applyRlimits(const SandboxLimits &Limits) {
  if (Limits.CpuSeconds > 0) {
    struct rlimit RL;
    RL.rlim_cur = Limits.CpuSeconds;
    RL.rlim_max = Limits.CpuSeconds + 2;
    setrlimit(RLIMIT_CPU, &RL);
  }
  // ASan reserves terabytes of virtual shadow at startup, so any
  // RLIMIT_AS cap makes every subsequent child allocation fail; the
  // wall-clock watchdog still bounds runaway children in those builds.
#if !FPINT_BUILT_WITH_ASAN
  if (Limits.AddressSpaceMb > 0) {
    struct rlimit RL;
    RL.rlim_cur = Limits.AddressSpaceMb << 20;
    RL.rlim_max = Limits.AddressSpaceMb << 20;
    setrlimit(RLIMIT_AS, &RL);
  }
#endif
}

} // namespace

SandboxPolicy SandboxPolicy::fromEnv() {
  SandboxPolicy P;
  P.Retries = envNumber("sandbox", "FPINT_CELL_RETRIES", 0, 10, P.Retries);
  P.Limits.WallMs = envNumber("sandbox", "FPINT_CELL_TIMEOUT_MS", 1, 86400000,
                              P.Limits.WallMs);
  P.Limits.AddressSpaceMb = envNumber<uint64_t>(
      "sandbox", "FPINT_CELL_AS_MB", 1, 1u << 20, P.Limits.AddressSpaceMb);
  return P;
}

bool Subprocess::writeAll(int Fd, const void *Data, size_t Len) {
  const char *P = static_cast<const char *>(Data);
  while (Len > 0) {
    ssize_t N = write(Fd, P, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    P += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

std::string TaskResult::describe() const {
  char Buf[128];
  switch (St) {
  case Status::Ok:
    return "ok";
  case Status::ExitNonZero:
    std::snprintf(Buf, sizeof(Buf), "exit %d", ExitCode);
    return Buf;
  case Status::Signaled: {
    const char *Name = strsignal(TermSignal);
    if (TimedOut)
      std::snprintf(Buf, sizeof(Buf), "timeout after %.1fs (%s)", WallSeconds,
                    Killed ? "SIGKILL" : "SIGTERM");
    else
      std::snprintf(Buf, sizeof(Buf), "signal %d (%s)", TermSignal,
                    Name ? Name : "?");
    return Buf;
  }
  case Status::SpawnFailed:
    return "spawn failed";
  }
  return "?";
}

TaskResult Subprocess::run(const ChildFn &Fn, const SandboxLimits &Limits) {
  TaskResult R;

  // All four descriptors are scope-owned: if the second pipe() or the
  // fork() fails, the destructors release whatever was opened and the
  // caller sees SpawnFailed with the parent's fd table unchanged.
  ScopedPipe PayloadPipe, StderrPipe;
  if (!PayloadPipe.open() || !StderrPipe.open())
    return R;

  const double Start = nowSeconds();
  // The child re-flushes inherited stdio buffers on exit; empty them
  // here so buffered parent output is not duplicated per fork.
  std::fflush(nullptr);
  pid_t Pid = fork();
  if (Pid < 0)
    return R;

  if (Pid == 0) {
    // Child: own process group (so the supervisor can kill everything
    // we might spawn), stderr onto the capture pipe, rlimits, task.
    setpgid(0, 0);
    PayloadPipe.closeRead();
    StderrPipe.closeRead();
    dup2(StderrPipe.writeFd(), 2);
    StderrPipe.closeWrite();
    signal(SIGPIPE, SIG_IGN);
    applyRlimits(Limits);
    int Code = 125;
    try {
      Code = Fn(PayloadPipe.writeFd());
    } catch (const std::exception &E) {
      std::fprintf(stderr, "[subprocess] uncaught exception: %s\n", E.what());
      Code = 125;
    } catch (...) {
      std::fprintf(stderr, "[subprocess] uncaught exception\n");
      Code = 125;
    }
    // _exit, not exit: no atexit handlers (they belong to the parent's
    // lifecycle -- running them here would emit duplicate reports).
    std::fflush(nullptr);
    _exit(Code);
  }

  // Parent / supervisor.
  setpgid(Pid, Pid); // Mirror the child's setpgid (wins either way).
  PayloadPipe.closeWrite();
  StderrPipe.closeWrite();
  setNonBlocking(PayloadPipe.readFd());
  setNonBlocking(StderrPipe.readFd());
  ScopedPidFd ChildExit(Pid);

  std::string StderrAll;
  const double WallDeadline =
      Limits.WallMs > 0 ? Start + Limits.WallMs / 1000.0 : 0;
  double KillDeadline = 0;
  bool PayloadOpen = true, StderrOpen = true;
  int Status = 0;
  struct rusage Ru;
  std::memset(&Ru, 0, sizeof(Ru));

  for (;;) {
    if (PayloadOpen)
      PayloadOpen = drainFd(PayloadPipe.readFd(), R.Payload);
    if (StderrOpen)
      StderrOpen = drainFd(StderrPipe.readFd(), StderrAll);

    pid_t W = wait4(Pid, &Status, WNOHANG, &Ru);
    if (W == Pid)
      break;
    if (W < 0 && errno != EINTR)
      break; // Should not happen; avoid spinning forever.

    const double Now = nowSeconds();
    if (WallDeadline > 0 && Now >= WallDeadline && !R.TimedOut) {
      R.TimedOut = true;
      kill(-Pid, SIGTERM);
      KillDeadline = Now + Limits.KillGraceMs / 1000.0;
    }
    if (R.TimedOut && !R.Killed && Now >= KillDeadline) {
      R.Killed = true;
      kill(-Pid, SIGKILL);
    }

    // The pidfd wakes us on exit; the 20 ms tick remains the fallback
    // and paces the watchdog checks above.
    struct pollfd Fds[3];
    nfds_t NFds = 0;
    if (PayloadOpen)
      Fds[NFds++] = {PayloadPipe.readFd(), POLLIN, 0};
    if (StderrOpen)
      Fds[NFds++] = {StderrPipe.readFd(), POLLIN, 0};
    if (ChildExit.Fd >= 0)
      Fds[NFds++] = {ChildExit.Fd, POLLIN, 0};
    poll(NFds ? Fds : nullptr, NFds, 20);
  }

  // Drain whatever the pipes still buffer, then close.
  while (PayloadOpen)
    PayloadOpen = drainFd(PayloadPipe.readFd(), R.Payload);
  while (StderrOpen)
    StderrOpen = drainFd(StderrPipe.readFd(), StderrAll);
  PayloadPipe.closeRead();
  StderrPipe.closeRead();

  R.WallSeconds = nowSeconds() - Start;
  R.PeakRssKb = Ru.ru_maxrss;
  if (StderrAll.size() > Limits.StderrTailBytes)
    StderrAll.erase(0, StderrAll.size() - Limits.StderrTailBytes);
  R.StderrTail = std::move(StderrAll);

  if (WIFEXITED(Status)) {
    R.ExitCode = WEXITSTATUS(Status);
    R.St = R.ExitCode == 0 ? TaskResult::Status::Ok
                           : TaskResult::Status::ExitNonZero;
  } else if (WIFSIGNALED(Status)) {
    R.TermSignal = WTERMSIG(Status);
    R.St = TaskResult::Status::Signaled;
  }
  return R;
}
