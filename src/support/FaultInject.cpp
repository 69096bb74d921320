//===- support/FaultInject.cpp - Test-only fault injection hooks ----------===//

#include "support/FaultInject.h"

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>

using namespace fpint;
using namespace fpint::support;

namespace {

enum class FaultKind { None, Crash, Hang, Oom };

struct FaultSpec {
  FaultKind Kind = FaultKind::None;
  std::string Where;
  bool Once = false;
};

/// Parses "<kind>:<where>[:once]"; an unparseable spec stays disarmed
/// (and is reported once, so a typo in CI is loud rather than silent).
/// The site name may itself contain a colon ("campaign:journal"), so
/// only a trailing ":once" is treated as a suffix.
FaultSpec parseSpecText(const char *Env) {
  FaultSpec S;
  if (!Env || !*Env)
    return S;
  std::string Text = Env;
  size_t C1 = Text.find(':');
  if (C1 == std::string::npos) {
    std::fprintf(stderr, "[fault] ignoring malformed FPINT_FAULT='%s'\n", Env);
    return S;
  }
  std::string Kind = Text.substr(0, C1);
  std::string Rest = Text.substr(C1 + 1);
  const std::string OnceSuffix = ":once";
  if (Rest.size() > OnceSuffix.size() &&
      Rest.compare(Rest.size() - OnceSuffix.size(), OnceSuffix.size(),
                   OnceSuffix) == 0) {
    S.Once = true;
    Rest = Rest.substr(0, Rest.size() - OnceSuffix.size());
  }
  if (Rest.empty()) {
    std::fprintf(stderr, "[fault] ignoring malformed FPINT_FAULT='%s'\n", Env);
    return S;
  }
  if (Kind == "crash")
    S.Kind = FaultKind::Crash;
  else if (Kind == "hang")
    S.Kind = FaultKind::Hang;
  else if (Kind == "oom")
    S.Kind = FaultKind::Oom;
  else {
    std::fprintf(stderr, "[fault] ignoring malformed FPINT_FAULT='%s'\n", Env);
    return S;
  }
  S.Where = Rest;
  return S;
}

/// Test-armed override (fault::armForTest); takes precedence over the
/// environment spec while armed.
FaultSpec OverrideSpec;
bool HaveOverride = false;

const FaultSpec &spec() {
  static const FaultSpec S = parseSpecText(std::getenv("FPINT_FAULT"));
  return HaveOverride ? OverrideSpec : S;
}

/// 1-based attempt number; inherited across fork() so children know
/// which (re)try they run under.
unsigned CurrentAttempt = 1;

[[noreturn]] void executeCrash(const char *Where) {
  std::fprintf(stderr, "[fault] injected crash at '%s'\n", Where);
  std::fflush(stderr);
  // Sanitizer runtimes turn a null store into a report + exit; with the
  // default disposition restored the process dies by SIGSEGV in every
  // build, which is what the harnesses classify as a crash.
  std::signal(SIGSEGV, SIG_DFL);
  std::raise(SIGSEGV);
  std::abort();
}

[[noreturn]] void executeHang(const char *Where) {
  std::fprintf(stderr, "[fault] injected hang at '%s'\n", Where);
  std::fflush(stderr);
  // Ignore SIGTERM so the watchdog must escalate to SIGKILL -- the
  // injected hang exercises the full containment path.
  std::signal(SIGTERM, SIG_IGN);
  for (;;) {
    struct timespec TS = {0, 50 * 1000 * 1000};
    nanosleep(&TS, nullptr);
  }
}

[[noreturn]] void executeOom(const char *Where) {
  std::fprintf(stderr, "[fault] injected oom at '%s'\n", Where);
  std::fflush(stderr);
  // Allocate and touch until the sandbox's RLIMIT_AS stops us: the
  // throw from `new` is deliberately uncaught (SIGABRT), proving the
  // supervisor classifies the death instead of inheriting it.
  for (;;) {
    char *P = new char[1 << 20];
    std::memset(P, 0xab, 1 << 20);
  }
}

} // namespace

bool fault::enabled() { return spec().Kind != FaultKind::None; }

void fault::armForTest(const char *SpecText) {
  if (!SpecText) {
    HaveOverride = false;
    OverrideSpec = FaultSpec();
    return;
  }
  OverrideSpec = parseSpecText(SpecText);
  HaveOverride = true;
}

void fault::setAttempt(unsigned Attempt) {
  CurrentAttempt = Attempt == 0 ? 1 : Attempt;
}

void fault::inject(const char *Where) {
  const FaultSpec &S = spec();
  if (S.Kind == FaultKind::None || S.Where != Where)
    return;
  if (S.Once && CurrentAttempt != 1)
    return;
  switch (S.Kind) {
  case FaultKind::Crash:
    executeCrash(Where);
  case FaultKind::Hang:
    executeHang(Where);
  case FaultKind::Oom:
    executeOom(Where);
  case FaultKind::None:
    break;
  }
}
