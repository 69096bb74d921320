//===- core/Pipeline.cpp - End-to-end offload pipeline --------------------===//

#include "core/Pipeline.h"

#include "core/PassManager.h"
#include "sir/Verifier.h"
#include "support/FaultInject.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <unordered_map>

using namespace fpint;
using namespace fpint::core;

void core::appendConfigFields(std::string &Key, const PipelineConfig &Config,
                              unsigned Fields) {
  auto Double = [&Key](double V) {
    char Buf[48];
    std::snprintf(Buf, sizeof(Buf), "|%a", V);
    Key += Buf;
  };
  auto Args = [&Key](const std::vector<int32_t> &Values) {
    Key += "|[";
    for (int32_t A : Values)
      Key += std::to_string(A) + ',';
    Key += ']';
  };
  if (Fields & FieldScheme)
    Key += '|' + std::to_string(static_cast<int>(Config.Scheme));
  if (Fields & FieldCosts) {
    Double(Config.Costs.CopyOverhead);
    Double(Config.Costs.DupOverhead);
    Double(Config.Costs.FpaShareCap);
  }
  if (Fields & FieldTrainArgs)
    Args(Config.TrainArgs);
  if (Fields & FieldRefArgs)
    Args(Config.RefArgs);
}

//===----------------------------------------------------------------------===//
// CompileMemo.
//===----------------------------------------------------------------------===//

struct CompileMemo::Impl {
  /// A compile's state at one pass boundary.
  struct Snapshot {
    std::unique_ptr<sir::Module> M;
    PassState State;
    std::vector<PassStat> Stats;
  };

  /// One planned compile: its prefix keys and the number of passes it
  /// shares with some earlier planned compile (0: none).
  struct Planned {
    std::vector<std::string> Keys;
    size_t Resume = 0;
  };

  const sir::Module *Original = nullptr;
  std::vector<Planned> Plan;
  size_t Next = 0;
  /// Prefix key -> planned compiles yet to resume there.
  std::unordered_map<std::string, unsigned> Demand;
  std::unordered_map<std::string, Snapshot> Saved;
  /// The original module's run, per RefArgs.
  std::map<std::vector<int32_t>, vm::VM::Result> OriginalRuns;

  static std::vector<std::string> keysOf(const PipelineConfig &Config) {
    PassManager PM;
    std::string Error;
    if (!PM.parse(effectivePipelineText(Config), Error))
      return {};
    return PM.prefixKeys(Config);
  }

  /// Deep copy of \p M and of \p State, whose pointer-keyed parts refer
  /// to \p M. Module::clone() keeps function, block and instruction
  /// order, so those parts are remapped by position.
  static Snapshot clone(const sir::Module &M, const PassState &State,
                        std::vector<PassStat> Stats) {
    Snapshot S;
    S.M = M.clone();
    S.State = State;
    S.Stats = std::move(Stats);
    PassState &New = S.State;
    New.Profile.BlockCounts.clear();
    New.Rewrite.Reports.clear();
    New.Alloc.Funcs.clear();
    const auto &OldFns = M.functions();
    const auto &NewFns = S.M->functions();
    assert(OldFns.size() == NewFns.size() && "clone changed the module");
    for (size_t FI = 0; FI < OldFns.size(); ++FI) {
      const sir::Function &OF = *OldFns[FI];
      const sir::Function &NF = *NewFns[FI];
      if (!State.Profile.BlockCounts.empty())
        for (size_t BI = 0; BI < OF.blocks().size(); ++BI) {
          auto It = State.Profile.BlockCounts.find(OF.blocks()[BI].get());
          if (It != State.Profile.BlockCounts.end())
            New.Profile.BlockCounts.emplace(NF.blocks()[BI].get(),
                                            It->second);
        }
      auto A = State.Alloc.Funcs.find(&OF);
      if (A != State.Alloc.Funcs.end())
        New.Alloc.Funcs.emplace(&NF, A->second);
      auto R = State.Rewrite.Reports.find(&OF);
      if (R != State.Rewrite.Reports.end())
        New.Rewrite.Reports.emplace(&NF, remap(R->second, OF, NF));
    }
    return S;
  }

  static partition::RewriteReport remap(const partition::RewriteReport &R,
                                        const sir::Function &OF,
                                        const sir::Function &NF) {
    partition::RewriteReport Out;
    if (!R.staticAdded())
      return Out;
    std::unordered_map<const sir::Instruction *, const sir::Instruction *>
        Map;
    Map.reserve(OF.numInstrIds());
    for (size_t BI = 0; BI < OF.blocks().size(); ++BI) {
      const auto &OI = OF.blocks()[BI]->instructions();
      const auto &NI = NF.blocks()[BI]->instructions();
      for (size_t II = 0; II < OI.size(); ++II)
        Map.emplace(OI[II].get(), NI[II].get());
    }
    auto Lists = [&](const std::vector<const sir::Instruction *> &From,
                     std::vector<const sir::Instruction *> &To) {
      To.reserve(From.size());
      for (const sir::Instruction *I : From) {
        auto It = Map.find(I);
        assert(It != Map.end() && "rewrite report names a dead instruction");
        To.push_back(It->second);
      }
    };
    Lists(R.CopyInstrs, Out.CopyInstrs);
    Lists(R.DupInstrs, Out.DupInstrs);
    Lists(R.CopyBackInstrs, Out.CopyBackInstrs);
    return Out;
  }

  /// The plan entry a compile with prefix keys \p Keys is, or null
  /// when it is not the next one planned.
  const Planned *next(const std::vector<std::string> &Keys) {
    if (Next >= Plan.size() || Plan[Next].Keys != Keys)
      return nullptr;
    return &Plan[Next++];
  }

  /// Moves or clones into \p Into the deepest saved state along \p E's
  /// keys; returns its depth (0: none, compile from scratch). A state
  /// is missing when the compile that would have saved it stopped at
  /// a fatal pass before reaching it.
  size_t resume(const Planned &E, Snapshot &Into) {
    if (E.Resume)
      --Demand[E.Keys[E.Resume - 1]];
    for (size_t Depth = E.Resume; Depth > 0; --Depth) {
      auto It = Saved.find(E.Keys[Depth - 1]);
      if (It == Saved.end())
        continue;
      if (Demand[It->first] == 0) {
        Into = std::move(It->second);
        Saved.erase(It);
      } else {
        Into = clone(*It->second.M, It->second.State, It->second.Stats);
      }
      return Depth;
    }
    return 0;
  }

  /// Saves the state after \p Done passes of \p E when a later planned
  /// compile resumes there.
  void save(const Planned &E, size_t Done, const sir::Module &M,
            const PassState &State, const std::vector<PassStat> &Prefix,
            const std::vector<PassStat> &Rows) {
    const std::string &Key = E.Keys[Done - 1];
    auto D = Demand.find(Key);
    if (D == Demand.end() || D->second == 0 || Saved.count(Key))
      return;
    std::vector<PassStat> Stats = Prefix;
    Stats.insert(Stats.end(), Rows.begin(), Rows.end());
    Saved.emplace(Key, clone(M, State, std::move(Stats)));
  }

  const vm::VM::Result &originalRun(const std::vector<int32_t> &Args) {
    auto It = OriginalRuns.find(Args);
    if (It == OriginalRuns.end())
      It = OriginalRuns.emplace(Args, vm::runModule(*Original, Args)).first;
    return It->second;
  }
};

CompileMemo::CompileMemo(const sir::Module &Original,
                         const std::vector<PipelineConfig> &Configs)
    : P(std::make_unique<Impl>()) {
  P->Original = &Original;
  for (const PipelineConfig &Config : Configs) {
    Impl::Planned E;
    E.Keys = Impl::keysOf(Config);
    for (const Impl::Planned &Earlier : P->Plan) {
      size_t D = 0;
      while (D < E.Keys.size() && D < Earlier.Keys.size() &&
             E.Keys[D] == Earlier.Keys[D])
        ++D;
      E.Resume = std::max(E.Resume, D);
    }
    if (E.Resume)
      ++P->Demand[E.Keys[E.Resume - 1]];
    P->Plan.push_back(std::move(E));
  }
}

CompileMemo::~CompileMemo() = default;

void CompileMemo::seedOriginalRun(const std::vector<int32_t> &Args,
                                  const vm::VM::Result &Result) {
  assert((Result.Ok || vm::isDeterministicTrap(Result.Trap.Kind)) &&
         Result.Steps <= vm::VM::Options().MaxSteps &&
         "seeded run may differ from a default-budget run");
  P->OriginalRuns.emplace(Args, Result);
}

//===----------------------------------------------------------------------===//
// compileAndMeasure.
//===----------------------------------------------------------------------===//

PipelineRun core::compileAndMeasure(const sir::Module &Original,
                                    PipelineConfig Config,
                                    CompileMemo *Memo) {
  support::fault::inject("compile");
  // Resolve the pipeline text once, at entry: the run's config says
  // exactly which stages ran.
  Config.Passes = effectivePipelineText(Config);
  PipelineRun Run;
  Run.Config = Config;
  Run.Trace = std::make_shared<TraceHandle>();

  // Compile side: a pass pipeline over a clone (the clone shares no
  // blocks with the original, so the profile pass trains on the clone
  // itself before it is rewritten).
  PassManager PM(PassManager::Options::fromEnv());
  std::string ParseError;
  if (!PM.parse(Config.Passes, ParseError)) {
    Run.Compiled = Original.clone();
    Run.Errors.push_back("pipeline: " + ParseError);
    return Run;
  }

  // A memo's planned compile resumes from the deepest prefix an earlier
  // one saved; everything else starts from a clone of the original.
  assert((!Memo || Memo->P->Original == &Original) &&
         "memo built for another module");
  const CompileMemo::Impl::Planned *Planned =
      Memo ? Memo->P->next(PM.prefixKeys(Config)) : nullptr;
  CompileMemo::Impl::Snapshot Start;
  const size_t From = Planned ? Memo->P->resume(*Planned, Start) : 0;
  PassState State;
  if (From) {
    Run.Compiled = std::move(Start.M);
    State = std::move(Start.State);
  } else {
    Run.Compiled = Original.clone();
  }
  State.Config = Config;
  sir::Module &M = *Run.Compiled;

  PassManager::AfterPassFn Save;
  if (Planned)
    Save = [&](size_t Done, const std::vector<PassStat> &Rows) {
      Memo->P->save(*Planned, Done, M, State, Start.Stats, Rows);
    };
  std::vector<PassStat> Rows = PM.run(M, State, From, Save);
  Run.PassStats = std::move(Start.Stats);
  Run.PassStats.insert(Run.PassStats.end(), Rows.begin(), Rows.end());

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
  vm::VM::Result LoneOriginalRun;
  const vm::VM::Result &OriginalRun =
      Memo ? Memo->P->originalRun(Config.RefArgs)
           : (LoneOriginalRun = vm::runModule(Original, Config.RefArgs));

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
