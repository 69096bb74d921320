//===- support/FaultInject.h - Test-only fault injection hooks ------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end proof hooks for the fault-containment layer. When the
/// environment carries
///
///   FPINT_FAULT=<kind>:<where>[:once]     kind in {crash, hang, oom}
///
/// every call to fault::inject("<where>") executes the named fault at
/// that point: `crash` dies by SIGSEGV (default disposition, so a
/// sanitizer runtime cannot turn it into an exit), `hang` ignores
/// SIGTERM and sleeps forever (forcing the watchdog's SIGKILL
/// escalation), `oom` allocates and touches memory until the address-
/// space limit kills the process. With the `:once` suffix the fault
/// only fires while the harness attempt counter is 1 -- each sandbox
/// child sets the counter for the (re)try it runs, so `:once` models a
/// transient failure that a retry recovers from.
///
/// Instrumented sites: "compile" (core::compileAndMeasure), "simulate"
/// (core::simulate), "cell" (bench::runMatrix sandboxed cell, fired by
/// campaign::runCell in the child), "oracle" (testgen::runOracle) and
/// "campaign:journal" (campaign::Journal::append, fired in the
/// journaling process itself after a record is durably on disk --
/// killing the harness, which a resumed fpint-fuzz --journal campaign
/// must survive). The hooks are inert unless FPINT_FAULT is set; CI's
/// fault-injection and campaign-resume jobs are the only intended
/// users.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_SUPPORT_FAULTINJECT_H
#define FPINT_SUPPORT_FAULTINJECT_H

namespace fpint {
namespace support {
namespace fault {

/// True when FPINT_FAULT parsed to an armed fault spec.
bool enabled();

/// Executes the armed fault if \p Where matches the spec (and, for
/// ":once" specs, the attempt counter is 1). No-op otherwise. May not
/// return.
void inject(const char *Where);

/// Sets the 1-based attempt counter consulted by ":once" specs. The
/// one rule: campaign::runCell (the attempt loop of bench cells) calls
/// it inside each sandbox child, first thing after the fork, with the
/// attempt that child runs; no parent sets it, so the parent's own
/// fault state never depends on how many cells it has retried.
void setAttempt(unsigned Attempt);

/// Arms (or, with nullptr, disarms) a fault spec in-process, exactly
/// as if FPINT_FAULT carried \p SpecText. Tests use this to exercise
/// fault paths without re-execing: FPINT_FAULT is parsed once into a
/// static, so a setenv after the first inject()/enabled() call is
/// invisible -- and forked children inherit the already-parsed spec.
/// An armed override takes precedence over the environment spec and
/// is inherited across fork like the rest of the process image.
void armForTest(const char *SpecText);

} // namespace fault
} // namespace support
} // namespace fpint

#endif // FPINT_SUPPORT_FAULTINJECT_H
