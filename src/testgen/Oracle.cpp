//===- testgen/Oracle.cpp - Differential partition-equivalence oracle -----===//

#include "testgen/Oracle.h"

#include "partition/Partitioner.h"
#include "sir/Opcode.h"
#include "support/FaultInject.h"
#include "support/Hash.h"
#include "sir/Printer.h"
#include "sir/Verifier.h"
#include "timing/Simulator.h"
#include "vm/VM.h"

#include <cstring>
#include <sstream>

using namespace fpint;
using namespace fpint::testgen;

std::vector<VariantSpec> testgen::defaultVariants() {
  std::vector<VariantSpec> Variants;
  auto Add = [&](const char *Name, partition::Scheme S,
                 const char *Passes) {
    VariantSpec V;
    V.Name = Name;
    V.Config.Scheme = S;
    V.Config.Passes = Passes;
    Variants.push_back(std::move(V));
  };
  // An empty text is the default pipeline (or $FPINT_PASSES).
  Add("none", partition::Scheme::None, "");
  Add("basic", partition::Scheme::Basic, "");
  Add("advanced", partition::Scheme::Advanced, "");
  Add("advanced+fpargs", partition::Scheme::Advanced,
      "opt,profile,partition,fp-arg-passing,regalloc");
  Add("basic-noopt", partition::Scheme::Basic, "profile,partition,regalloc");
  Add("advanced-noopt", partition::Scheme::Advanced,
      "profile,partition,regalloc");
  return Variants;
}

std::vector<VariantSpec> testgen::midendVariants() {
  std::vector<VariantSpec> Variants;
  auto Add = [&](const std::string &Passes) {
    VariantSpec V;
    V.Name = "passes:" + Passes;
    V.Config.Passes = Passes;
    V.Config.Scheme = partition::Scheme::Advanced;
    Variants.push_back(std::move(V));
  };
  for (const char *Pass : {"licm", "inline"})
    Add(std::string("opt,") + Pass +
        ",profile,partition,fp-arg-passing,regalloc");
  // The opt2 preset's mid-end with the Section 6.6 extension added.
  Add("opt,licm,inline,opt,profile,partition,fp-arg-passing,regalloc");
  return Variants;
}

std::string testgen::batteryKey(const std::vector<VariantSpec> &Variants) {
  support::ChainedKey Key("battery");
  for (const VariantSpec &V : Variants)
    Key.add(V.Name).add(core::runKey("", V.Config));
  return Key.hex();
}

namespace {

/// A flat encoding of everything sameCompiledProgram compares: numbers
/// as LEB128 varints, and every variable-length part after its length,
/// so equal keys are equal programs. A key takes a few bytes per
/// instruction: the oracle keeps one per distinct program rather than
/// the module, whose scattered heap pages each cost a copy-on-write
/// fault in a forked sandbox child.
class ProgramKey {
public:
  explicit ProgramKey(const core::PipelineRun &Run) {
    const sir::Module &M = *Run.Compiled;
    add(Run.Allocated && Run.Alloc.Errors.empty()); // Timing applies.
    add(M.globals().size());
    for (const sir::Global &G : M.globals()) {
      add(G.Name);
      add(G.SizeWords);
      add(G.Init.size());
      for (int32_t V : G.Init)
        addSigned(V);
    }
    add(M.functions().size());
    for (const auto &F : M.functions()) {
      add(F->name());
      add(F->frameWords());
      add(F->numRegs());
      for (uint32_t R = 1; R < F->numRegs(); ++R)
        add(static_cast<uint64_t>(F->regClass(sir::Reg(R))));
      add(F->formals().size());
      for (sir::Reg R : F->formals())
        add(R.rawId());
      auto It = Run.Alloc.Funcs.find(F.get());
      add(It != Run.Alloc.Funcs.end());
      if (It != Run.Alloc.Funcs.end()) {
        add(It->second.ArchIndex.size());
        for (unsigned A : It->second.ArchIndex)
          add(A);
      }
      add(F->blocks().size());
      for (const auto &BB : F->blocks()) {
        add(BB->name());
        add(BB->instructions().size());
        for (const auto &I : BB->instructions())
          add(*I);
      }
    }
  }

  bool operator==(const ProgramKey &O) const { return Bytes == O.Bytes; }

private:
  void add(uint64_t V) {
    for (; V >= 0x80; V >>= 7)
      Bytes.push_back(static_cast<char>(V | 0x80));
    Bytes.push_back(static_cast<char>(V));
  }
  void addSigned(int64_t V) { // Zigzag: small negatives stay short.
    add((static_cast<uint64_t>(V) << 1) ^ static_cast<uint64_t>(V >> 63));
  }
  void add(const std::string &S) {
    add(S.size());
    Bytes += S;
  }
  void add(const sir::Instruction &I) {
    add(static_cast<uint64_t>(I.op()));
    add(I.inFpa());
    add(I.def().rawId());
    add(I.uses().size());
    for (sir::Reg R : I.uses())
      add(R.rawId());
    addSigned(I.imm());
    // Bitwise: -0.0 and 0.0 load different bits into the FP file.
    const float FImm = I.fimm();
    uint32_t FBits;
    std::memcpy(&FBits, &FImm, sizeof(FBits));
    add(FBits);
    const sir::MemOperand &Mem = I.mem();
    add(Mem.IsFrame);
    add(Mem.Base.rawId());
    addSigned(Mem.Offset);
    add(Mem.Symbol);
    add(I.callee());
    add(I.target() ? I.target()->index() + 1 : 0);
  }

  std::string Bytes;
};

} // namespace

bool testgen::sameCompiledProgram(const core::PipelineRun &A,
                                  const core::PipelineRun &B) {
  return ProgramKey(A) == ProgramKey(B);
}

namespace {

/// Everything observable about one functional execution.
struct RunImage {
  vm::VM::Result Result;
  std::vector<uint8_t> Globals;
  std::vector<vm::TraceEntry> Trace; ///< Empty unless asked for.
};

/// Runs \p M, keeping the dynamic trace if \p KeepTrace. A generated
/// module runs at most testgen::MaxModuleSteps steps, so its trace fits
/// in memory.
RunImage runFunctional(const sir::Module &M, const std::vector<int32_t> &Args,
                       uint64_t MaxSteps, bool KeepTrace) {
  vm::VM::Options Opts;
  Opts.MaxSteps = MaxSteps;
  Opts.CollectTrace = KeepTrace;
  vm::VM Machine(M, Opts);
  RunImage Image;
  Image.Result = Machine.run(Args);
  Image.Globals = Machine.globalImage();
  Image.Trace = Machine.takeTrace();
  return Image;
}

/// What the checks count in a compiled run's dynamic trace.
struct TraceCounts {
  uint64_t Total = 0, Fpa = 0, NativeFp = 0, Loads = 0, Stores = 0;
  uint64_t FpSide = 0; ///< Issued by the FP subsystem.

  TraceCounts() = default;
  explicit TraceCounts(const std::vector<vm::TraceEntry> &Trace)
      : Total(Trace.size()) {
    for (const vm::TraceEntry &E : Trace) {
      const sir::Instruction &I = *E.I;
      const bool Fp = sir::isFpOpcode(I.op());
      Fpa += I.inFpa();
      NativeFp += Fp;
      Loads += I.isLoad();
      Stores += I.isStore();
      FpSide += I.inFpa() || Fp;
    }
  }
};

/// What the checks after compiling found in one distinct compiled
/// program: messages without the "[variant] " prefix.
struct ProgramFindings {
  explicit ProgramFindings(ProgramKey Key) : Key(std::move(Key)) {}

  ProgramKey Key;
  /// A trap divergence, or the functional comparison's findings.
  std::vector<std::string> Functional;
  /// The compiled run completed, as the original did: the stats and
  /// timing checks apply.
  bool Completed = false;
  TraceCounts Counts;
  std::vector<std::string> Timing;
};

class OracleRun {
public:
  OracleRun(const sir::Module &M, const OracleOptions &Opts)
      : M(M), Opts(Opts) {}

  OracleReport run() {
    if (Opts.Progress)
      Opts.Progress("baseline");
    Baseline = runFunctional(M, Opts.Args, Opts.BaselineMaxSteps,
                             /*KeepTrace=*/false);
    if (!Baseline.Result.Ok) {
      // Resource limits say nothing about the program; skip. A
      // deterministic trap is a semantic outcome every variant must
      // reproduce, so the differential check proceeds in trap mode.
      if (!vm::isDeterministicTrap(Baseline.Result.Trap.Kind)) {
        Report.BaselineSkipped = true;
        Report.BaselineError = Baseline.Result.Error;
        return std::move(Report);
      }
      Report.BaselineTrap = Baseline.Result.Trap.Kind;
    }
    Report.BaselineDynInstrs = Baseline.Result.Steps;
    // The variants share pipeline prefixes (opt,profile; the advanced
    // partition) and the original module's ref run: compile each shared
    // part once.
    std::vector<core::PipelineConfig> Plan;
    for (const VariantSpec &V : Opts.Variants)
      Plan.push_back(configOf(V));
    core::CompileMemo Memo(M, Plan);
    // The baseline completed or trapped deterministically, so a run
    // with the pipeline's larger default budget ends the same way.
    if (Baseline.Result.Steps <= vm::VM::Options().MaxSteps)
      Memo.seedOriginalRun(Opts.Args, Baseline.Result);
    for (size_t I = 0; I < Opts.Variants.size(); ++I)
      checkVariant(Opts.Variants[I], Plan[I], Memo);
    return std::move(Report);
  }

private:
  void mismatch(const std::string &Variant, const std::string &Msg) {
    Report.Mismatches.push_back("[" + Variant + "] " + Msg);
  }

  core::PipelineConfig configOf(const VariantSpec &V) const {
    core::PipelineConfig Config = V.Config;
    Config.TrainArgs = Opts.Args;
    Config.RefArgs = Opts.Args;
    return Config;
  }

  void checkVariant(const VariantSpec &V, const core::PipelineConfig &Config,
                    core::CompileMemo &Memo) {
    if (Opts.Progress)
      Opts.Progress(V.Name);
    core::PipelineRun Run = core::compileAndMeasure(M, Config, &Memo);
    // compileAndMeasure verifies and self-checks its output comparison;
    // any error it reports is a divergence (or a compile failure, which
    // for a verifier-clean input is just as much a bug).
    for (const std::string &E : Run.Errors)
      mismatch(V.Name, "pipeline: " + E);
    if (!Run.Errors.empty() || !Run.Compiled)
      return;

    if (Opts.CompiledMutator) {
      Opts.CompiledMutator(*Run.Compiled);
      Run.Compiled->renumber();
      std::vector<std::string> MutVerify = sir::verify(*Run.Compiled);
      for (const std::string &E : MutVerify)
        mismatch(V.Name, "verify after mutation: " + E);
      if (!MutVerify.empty())
        return; // Caught structurally; the VM may not survive it.
    }

    // Variants often compile to the same program (a scheme that moves
    // nothing, fp-arg-passing with no call to rewrite): check each
    // distinct program once. The stats check reads this variant's own
    // profile, so it runs for every variant.
    const ProgramFindings &P = findingsFor(Run);
    for (const std::string &Msg : P.Functional)
      mismatch(V.Name, Msg);
    if (!P.Completed)
      return;
    crossCheckStats(V.Name, Run.Stats, P.Counts);
    for (const std::string &Msg : P.Timing)
      mismatch(V.Name, Msg);
  }

  const ProgramFindings &findingsFor(const core::PipelineRun &Run) {
    ProgramKey Key(Run);
    for (const ProgramFindings &P : Programs)
      if (P.Key == Key)
        return P;
    ProgramFindings &P = Programs.emplace_back(std::move(Key));
    checkProgram(Run, P);
    return P;
  }

  void checkProgram(const core::PipelineRun &Run, ProgramFindings &P) {
    // Re-execute the compiled module ourselves: the oracle compares
    // more state than the pipeline does (exit value, memory image) and
    // must observe any mutator-injected bug.
    RunImage Compiled = runFunctional(*Run.Compiled, Opts.Args,
                                      compiledBudget(), /*KeepTrace=*/true);

    // Trap equivalence: the compiled program must stop exactly the way
    // the original did -- same deterministic kind, or not at all.
    const vm::TrapKind CompTrap = Compiled.Result.Trap.Kind;
    if (CompTrap != Report.BaselineTrap) {
      P.Functional.push_back(
          std::string("trap divergence: original ") +
          vm::trapKindName(Report.BaselineTrap) + ", compiled " +
          vm::trapKindName(CompTrap) +
          (Compiled.Result.Error.empty()
               ? std::string()
               : " (" + Compiled.Result.Error + ")"));
      return;
    }

    compareFunctional(Compiled,
                      /*Trapped=*/Report.BaselineTrap != vm::TrapKind::None,
                      P.Functional);
    if (Report.BaselineTrap != vm::TrapKind::None)
      return; // Stats/timing invariants assume a completed execution.
    P.Completed = true;
    P.Counts = TraceCounts(Compiled.Trace);
    if (Opts.CheckTiming && Run.Allocated && Run.Alloc.Errors.empty())
      crossCheckTiming(Run, Compiled.Trace, P.Counts, P.Timing);
  }

  uint64_t compiledBudget() const { return Opts.BaselineMaxSteps * 4 + 10000; }

  void compareFunctional(const RunImage &Compiled, bool Trapped,
                         std::vector<std::string> &Out) {
    // Output stream.
    const auto &Want = Baseline.Result.Output;
    const auto &Got = Compiled.Result.Output;
    if (Want.size() != Got.size()) {
      Out.push_back("output length differs: original " +
                        std::to_string(Want.size()) + ", compiled " +
                        std::to_string(Got.size()));
    } else {
      for (size_t I = 0; I < Want.size(); ++I)
        if (Want[I] != Got[I]) {
          Out.push_back("output[" + std::to_string(I) + "] differs: original " +
                            std::to_string(Want[I]) + ", compiled " +
                            std::to_string(Got[I]));
          break;
        }
    }

    // Architectural exit state (trapped runs never reach `ret`).
    if (!Trapped && Baseline.Result.ExitValue != Compiled.Result.ExitValue)
      Out.push_back("exit value differs: original " +
                        std::to_string(Baseline.Result.ExitValue) +
                        ", compiled " +
                        std::to_string(Compiled.Result.ExitValue));

    // Memory image of the globals region.
    if (Baseline.Globals.size() != Compiled.Globals.size()) {
      Out.push_back("globals image size differs");
    } else {
      for (size_t A = 0; A < Baseline.Globals.size(); ++A)
        if (Baseline.Globals[A] != Compiled.Globals[A]) {
          std::ostringstream OS;
          OS << "memory image differs at globals+0x" << std::hex << A
             << ": original 0x" << static_cast<unsigned>(Baseline.Globals[A])
             << ", compiled 0x" << static_cast<unsigned>(Compiled.Globals[A]);
          Out.push_back(OS.str());
          break;
        }
    }
  }

  /// The stats subsystem counts dynamic instructions from the block
  /// profile; the trace lists them one by one. Both views must agree.
  void crossCheckStats(const std::string &Name, const partition::DynStats &S,
                       const TraceCounts &Counts) {
    auto Check = [&](const char *What, uint64_t StatsVal, uint64_t TraceVal) {
      if (StatsVal != TraceVal)
        mismatch(Name, std::string("stats/trace disagree on ") + What +
                           ": stats " + std::to_string(StatsVal) + ", trace " +
                           std::to_string(TraceVal));
    };
    Check("total dynamic instructions", S.Total, Counts.Total);
    Check("FPa instructions", S.Fpa, Counts.Fpa);
    Check("native FP instructions", S.NativeFp, Counts.NativeFp);
    Check("loads", S.Loads, Counts.Loads);
    Check("stores", S.Stores, Counts.Stores);
  }

  /// The timing simulator must retire exactly the traced instructions,
  /// and its INT/FP issue split must match the partition bits. Both
  /// cycle loops run -- the fast path is differentially checked against
  /// the reference loop on every oracle iteration.
  void crossCheckTiming(const core::PipelineRun &Run,
                        const std::vector<vm::TraceEntry> &Trace,
                        const TraceCounts &Counts,
                        std::vector<std::string> &Out) {
    auto Simulate = [&](bool Fast) {
      timing::Simulator Sim(Opts.Machine, Run.Alloc);
      Sim.setFastPath(Fast);
      return Sim.run(Trace);
    };

    timing::SimStats Stats, FastStats;
    try {
      Stats = Simulate(false);
      FastStats = Simulate(true);
    } catch (const timing::SimulationOverrun &O) {
      Out.push_back(std::string("simulator overrun: ") + O.what());
      return;
    }

    auto CheckEq = [&](const char *What, uint64_t Ref, uint64_t Fast) {
      if (Ref != Fast)
        Out.push_back(std::string("fast-path simulator diverges on ") + What +
                          ": reference " + std::to_string(Ref) + ", fast " +
                          std::to_string(Fast));
    };
    CheckEq("cycles", Stats.Cycles, FastStats.Cycles);
    CheckEq("instructions", Stats.Instructions, FastStats.Instructions);
    CheckEq("int_issued", Stats.IntIssued, FastStats.IntIssued);
    CheckEq("fp_issued", Stats.FpIssued, FastStats.FpIssued);
    CheckEq("cond_branches", Stats.CondBranches, FastStats.CondBranches);
    CheckEq("mispredicts", Stats.Mispredicts, FastStats.Mispredicts);
    CheckEq("loads", Stats.Loads, FastStats.Loads);
    CheckEq("stores", Stats.Stores, FastStats.Stores);
    CheckEq("dcache_misses", Stats.DCacheMisses, FastStats.DCacheMisses);
    CheckEq("icache_misses", Stats.ICacheMisses, FastStats.ICacheMisses);
    CheckEq("store_forwards", Stats.StoreForwards, FastStats.StoreForwards);
    CheckEq("fp_busy_cycles", Stats.FpBusyCycles, FastStats.FpBusyCycles);
    CheckEq("int_idle_fp_busy_cycles", Stats.IntIdleFpBusyCycles,
            FastStats.IntIdleFpBusyCycles);

    if (Stats.Instructions != Counts.Total)
      Out.push_back("simulator retired " + std::to_string(Stats.Instructions) +
                        " instructions, trace has " +
                        std::to_string(Counts.Total));
    if (Stats.IntIssued + Stats.FpIssued != Stats.Instructions)
      Out.push_back("issue counters (" + std::to_string(Stats.IntIssued) +
                        " INT + " + std::to_string(Stats.FpIssued) +
                        " FP) do not sum to retired instructions " +
                        std::to_string(Stats.Instructions));
    if (Stats.FpIssued != Counts.FpSide)
      Out.push_back("simulator issued " + std::to_string(Stats.FpIssued) +
                        " in the FP subsystem, partition bits say " +
                        std::to_string(Counts.FpSide));
    if (Counts.Total != 0 && Stats.Cycles == 0)
      Out.push_back("simulator reported zero cycles for a nonempty trace");
  }

  const sir::Module &M;
  const OracleOptions &Opts;
  RunImage Baseline;
  std::vector<ProgramFindings> Programs;
  OracleReport Report;
};

} // namespace

OracleReport testgen::runOracle(const sir::Module &M,
                                const OracleOptions &Opts) {
  support::fault::inject("oracle");
  return OracleRun(M, Opts).run();
}
