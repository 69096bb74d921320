//===- support/Subprocess.h - Fork-based sandboxed task execution ---------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Process-isolation for harness tasks that may crash, hang, or exhaust
/// memory: Subprocess::run forks a child, runs an arbitrary callable in
/// it under RLIMIT_CPU / RLIMIT_AS, and supervises it with a wall-clock
/// watchdog that escalates SIGTERM -> SIGKILL. The parent structurally
/// captures everything a triage layer needs: exit status or fatal
/// signal, whether the watchdog fired (and whether it had to escalate),
/// the tail of the child's stderr, peak RSS, and an arbitrary byte
/// payload the child streamed back over a pipe.
///
/// This is the containment layer under campaign::runCell (the
/// retrying attempt loop of bench cells) and the fpint-fuzz
/// iterations (single attempt, crash/hang triage); see
/// docs/ROBUSTNESS.md.
///
/// Forking contract: the child may only use what no concurrently
/// running thread can hold locked at fork time; glibc's malloc fork
/// handlers make the allocator safe. Bench forks matrix cells serially
/// from the orchestration thread while the thread pool is idle, so no
/// pool worker can hold a lock (the pool's queue, the StatsRegistry's)
/// that the child then needs. Fuzz iterations run only self-contained
/// compile/simulate code. The child runs the callable and _exit()s;
/// it never returns into the caller's stack.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_SUPPORT_SUBPROCESS_H
#define FPINT_SUPPORT_SUBPROCESS_H

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

/// True when this translation unit is compiled under AddressSanitizer.
/// The sandbox skips RLIMIT_AS in that case (ASan's shadow reservation
/// makes any address-space cap fatal to the child), and the tests skip
/// the expectations that depend on it.
#if defined(__SANITIZE_ADDRESS__)
#define FPINT_BUILT_WITH_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define FPINT_BUILT_WITH_ASAN 1
#endif
#endif
#ifndef FPINT_BUILT_WITH_ASAN
#define FPINT_BUILT_WITH_ASAN 0
#endif

namespace fpint {
namespace support {

/// Resource and supervision limits applied to one sandboxed task.
struct SandboxLimits {
  /// Wall-clock watchdog in milliseconds; 0 disables the watchdog.
  int WallMs = 0;
  /// Grace between the watchdog's SIGTERM and the SIGKILL escalation.
  int KillGraceMs = 1000;
  /// RLIMIT_CPU in seconds (soft limit; hard limit +2s); 0 inherits.
  uint64_t CpuSeconds = 0;
  /// RLIMIT_AS in MiB; 0 inherits the parent's limit.
  uint64_t AddressSpaceMb = 0;
  /// How much of the child's stderr to retain (the tail).
  size_t StderrTailBytes = 8192;
};

/// The one containment policy of every sandboxed unit of work: limits
/// plus a retry budget. campaign::runCell applies it to bench cells;
/// fpint-fuzz takes its limits but never retries.
struct SandboxPolicy {
  static constexpr int KillGraceMs = 500;
  static constexpr int BackoffMs = 50; ///< Before retry 1; doubled after.
  static constexpr int DefaultWallMs = 120000;
  static constexpr uint64_t DefaultAddressSpaceMb = 4096;

  SandboxLimits Limits{DefaultWallMs, KillGraceMs, 0, DefaultAddressSpaceMb};
  int Retries = 2; ///< Attempts after the first one.

  /// Sleep before retry number \p Retry (1-based): 50, 100, 200 ms, ...
  static int backoffMs(int Retry) { return BackoffMs << (Retry - 1); }

  /// The defaults, overridden by FPINT_CELL_RETRIES (0..10),
  /// FPINT_CELL_TIMEOUT_MS (1..86400000) and FPINT_CELL_AS_MB
  /// (1..1048576). A non-numeric or out-of-range value warns on stderr
  /// naming the knob and keeps the default, so a typo can never disable
  /// the watchdog or the memory cap.
  static SandboxPolicy fromEnv();
};

/// Structured outcome of one sandboxed task.
struct TaskResult {
  enum class Status {
    Ok,          ///< Child exited 0.
    ExitNonZero, ///< Child exited with a nonzero code.
    Signaled,    ///< Child died on a signal (SIGSEGV, SIGKILL, ...).
    SpawnFailed, ///< fork/pipe failed; nothing ran.
  };

  Status St = Status::SpawnFailed;
  int ExitCode = -1;   ///< Valid for Ok / ExitNonZero.
  int TermSignal = 0;  ///< Valid for Signaled.
  bool TimedOut = false; ///< Watchdog sent SIGTERM.
  bool Killed = false;   ///< Watchdog escalated to SIGKILL.
  std::string Payload;    ///< Bytes the child wrote to its payload fd.
  std::string StderrTail; ///< Last StderrTailBytes of child stderr.
  long PeakRssKb = 0;     ///< ru_maxrss of the reaped child.
  double WallSeconds = 0; ///< Fork-to-reap wall clock.

  bool ok() const { return St == Status::Ok; }

  /// Human-readable one-liner: "exit 3", "signal 11 (SIGSEGV)",
  /// "timeout after 2.0s (SIGKILL)", "spawn failed".
  std::string describe() const;
};

class Subprocess {
public:
  /// The child-side task. Receives the write end of the payload pipe;
  /// its return value becomes the child's exit code. Exceptions are
  /// caught, reported on stderr, and mapped to exit code 125.
  using ChildFn = std::function<int(int PayloadFd)>;

  /// Forks and runs \p Fn in the child under \p Limits; blocks until
  /// the child is reaped (or the watchdog destroyed it).
  static TaskResult run(const ChildFn &Fn, const SandboxLimits &Limits);

  /// EINTR-safe full write (child-side helper for the payload fd).
  /// Returns false on a write error (e.g. the supervisor died).
  static bool writeAll(int Fd, const void *Data, size_t Len);
  static bool writeAll(int Fd, const std::string &S) {
    return writeAll(Fd, S.data(), S.size());
  }
};

} // namespace support
} // namespace fpint

#endif // FPINT_SUPPORT_SUBPROCESS_H
