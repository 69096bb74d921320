//===- core/Pipeline.cpp - End-to-end offload pipeline --------------------===//

#include "core/Pipeline.h"

#include "core/PassManager.h"
#include "sir/Verifier.h"
#include "support/FaultInject.h"

#include <stdexcept>

using namespace fpint;
using namespace fpint::core;

PipelineRun core::compileAndMeasure(const sir::Module &Original,
                                    PipelineConfig Config) {
  support::fault::inject("compile");
  // Resolve the pipeline text once, at entry: the run's config says
  // exactly which stages ran.
  Config.Passes = effectivePipelineText(Config);
  PipelineRun Run;
  Run.Config = Config;
  Run.Trace = std::make_shared<TraceHandle>();
  Run.Compiled = Original.clone();
  sir::Module &M = *Run.Compiled;

  // Compile side: a pass pipeline over the clone (the clone shares no
  // blocks with the original, so the profile pass trains on the clone
  // itself before it is rewritten).
  PassManager PM(PassManager::Options::fromEnv());
  std::string ParseError;
  if (!PM.parse(Config.Passes, ParseError)) {
    Run.Errors.push_back("pipeline: " + ParseError);
    return Run;
  }

  analysis::AnalysisManager AM;
  PassState State;
  State.Config = Config;
  Run.PassStats = PM.run(M, AM, State);

  Run.Opt = State.Opt;
  Run.Transform = State.Transform;
  Run.Rewrite = std::move(State.Rewrite);
  Run.FpArgs = State.FpArgs;
  Run.Alloc = std::move(State.Alloc);
  Run.Allocated = State.Allocated;
  Run.Errors.insert(Run.Errors.end(), State.Errors.begin(),
                    State.Errors.end());
  // A fatal pass (training failure, verify-each corruption) aborts
  // before the final verify, like the legacy early return did.
  if (State.Fatal)
    return Run;

  for (const std::string &E : sir::verify(M))
    Run.Errors.push_back("verify: " + E);
  if (!Run.Errors.empty())
    return Run;

  // 4. Functional equivalence on the measurement input, collecting the
  // measurement profile in the same run.
  vm::VM::Options MeasureOpts;
  MeasureOpts.CollectProfile = true;
  vm::VM Measurer(M, MeasureOpts);
  Run.RefResult = Measurer.run(Config.RefArgs);
  auto OriginalRun = vm::runModule(Original, Config.RefArgs);

  const vm::TrapKind OrigTrap = OriginalRun.Trap.Kind;
  const vm::TrapKind CompTrap = Run.RefResult.Trap.Kind;
  if (!OriginalRun.Ok && !vm::isDeterministicTrap(OrigTrap)) {
    Run.Errors.push_back("original run failed: " + OriginalRun.Error);
    return Run;
  }
  if (!Run.RefResult.Ok && !vm::isDeterministicTrap(CompTrap)) {
    Run.Errors.push_back("measurement run failed: " + Run.RefResult.Error);
    return Run;
  }

  // Functional equivalence covers traps: a deterministic trap in the
  // original must re-occur -- same kind -- in the compiled program,
  // with identical output up to the trap. (Trap *sites* legitimately
  // move; the kind and the observable prefix may not.)
  if (OrigTrap != CompTrap) {
    Run.Errors.push_back(
        std::string("trap divergence: original ") +
        vm::trapKindName(OrigTrap) + " vs compiled " +
        vm::trapKindName(CompTrap));
    return Run;
  }
  Run.OutputsMatchOriginal = OriginalRun.Output == Run.RefResult.Output;
  if (!Run.OutputsMatchOriginal)
    Run.Errors.push_back("compiled program output diverged from original");

  // 5. Dynamic accounting (Figure 8 / Section 7.2 metrics).
  Run.Stats =
      partition::computeDynStats(M, Measurer.profile(), &Run.Rewrite);
  return Run;
}

const timing::PackedTrace &PipelineRun::packedTrace() const {
  assert(ok() && "tracing a failed pipeline run");
  assert(Trace && "run was not produced by compileAndMeasure");
  std::call_once(Trace->Once, [this] {
    timing::PackedTraceBuilder Builder(Alloc, RefResult.Steps);
    vm::VM::Options Opts;
    Opts.CollectTrace = true;
    Opts.Sink = &Builder;
    vm::VM Machine(*Compiled, Opts);
    auto R = Machine.run(Config.RefArgs);
    // ok() already proved this module/input pair executes cleanly --
    // or traps deterministically, in which case the replay traps the
    // same way and the trace prefix is the dynamic stream.
    assert((R.Ok || R.Trap.Kind == RefResult.Trap.Kind) &&
           "trace generation failed");
    (void)R;
    Trace->Packed = Builder.take();
    Trace->Captures = 1;
  });
  return Trace->Packed;
}

timing::SimStats core::simulate(const PipelineRun &Run,
                                const timing::MachineConfig &Machine) {
  support::fault::inject("simulate");
  assert(Run.ok() && "simulating a failed pipeline run");
  if (!Run.Allocated)
    throw std::invalid_argument(
        "timing simulation needs register-allocated code; pipeline '" +
        Run.Config.Passes + "' has no register-allocation pass");
  // Replay the cached ref-input trace: the dynamic instruction stream
  // depends only on the compiled module and ref args, never on the
  // machine configuration, so one packed capture serves every machine.
  // The reference loop instead reads a fresh run's own entries, which
  // keeps it independent of the packer.
  timing::Simulator Sim(Machine, Run.Alloc);
  auto RunOnce = [&]() -> timing::SimStats {
    if (Sim.fastPath())
      return Sim.run(Run.packedTrace());
    vm::VM::Options Opts;
    Opts.CollectTrace = true;
    vm::VM Tracer(*Run.Compiled, Opts);
    Tracer.run(Run.Config.RefArgs);
    return Sim.run(Tracer.trace());
  };
  if (!stats::telemetryEnabled())
    return RunOnce();
  auto Breakdown = std::make_shared<stats::StallBreakdown>();
  Sim.setEventSink(Breakdown.get());
  timing::SimStats Stats = RunOnce();
  Stats.Telemetry = std::move(Breakdown);
  return Stats;
}

double core::speedup(const timing::SimStats &Conventional,
                     const timing::SimStats &Partitioned) {
  if (Partitioned.Cycles == 0)
    return 0.0;
  return static_cast<double>(Conventional.Cycles) /
         static_cast<double>(Partitioned.Cycles);
}
