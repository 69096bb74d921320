//===- core/PassManager.cpp - Pass-manager compilation pipeline -----------===//

#include "core/PassManager.h"

#include "opt/Passes.h"
#include "regalloc/RegAlloc.h"
#include "sir/Printer.h"
#include "sir/Verifier.h"
#include "transform/Transforms.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

using namespace fpint;
using namespace fpint::core;

namespace {

//===----------------------------------------------------------------------===//
// Built-in passes.
//===----------------------------------------------------------------------===//

/// Machine-independent cleanup to a (capped) fixpoint.
class OptPass : public ModulePass {
public:
  std::string name() const override { return "opt"; }

  unsigned run(sir::Module &M, analysis::AnalysisManager &,
               PassState &State) override {
    State.Opt = opt::optimizeModule(M);
    LastChanges = State.Opt.total();
    return LastChanges;
  }

  analysis::PreservedAnalyses preserved() const override {
    // renumber() is idempotent on an unmutated module, so a changeless
    // optimizer run leaves cached analyses intact.
    return LastChanges == 0 ? analysis::PreservedAnalyses::all()
                            : analysis::PreservedAnalyses::none();
  }

private:
  unsigned LastChanges = 0;
};

/// Profiles the (not yet partitioned) module on the training input. A
/// non-deterministic failure is fatal -- there is nothing meaningful to
/// compile against; a deterministic trap leaves a valid prefix profile
/// (the compiled program must reproduce the trap, which
/// compileAndMeasure checks).
class ProfilePass : public ModulePass {
public:
  std::string name() const override { return "profile"; }

  unsigned run(sir::Module &M, analysis::AnalysisManager &,
               PassState &State) override {
    vm::VM::Options Opts;
    Opts.CollectProfile = true;
    vm::VM Trainer(M, Opts);
    auto Result = Trainer.run(State.Config.TrainArgs);
    if (!Result.Ok && !vm::isDeterministicTrap(Result.Trap.Kind)) {
      State.Errors.push_back("training run failed: " + Result.Error);
      State.Fatal = true;
      return 0;
    }
    State.Profile = Trainer.profile();
    State.HaveProfile = true;
    return 0;
  }

  analysis::PreservedAnalyses preserved() const override {
    return analysis::PreservedAnalyses::all();
  }

  unsigned configFields() const override { return FieldTrainArgs; }
};

/// Partitions with Config.Scheme (None: no-op).
class PartitionPass : public ModulePass {
public:
  std::string name() const override { return "partition"; }

  unsigned run(sir::Module &M, analysis::AnalysisManager &AM,
               PassState &State) override {
    const PipelineConfig &Config = State.Config;
    State.Rewrite = partition::partitionModule(
        M, Config.Scheme, State.HaveProfile ? &State.Profile : nullptr,
        Config.Costs, &AM);
    State.RanScheme = Config.Scheme;
    for (const std::string &E : State.Rewrite.Errors)
      State.Errors.push_back("partition: " + E);
    Mutated = !State.Rewrite.Reports.empty();
    // The basic scheme mutates without inserting instructions (it only
    // flips FPa bits), so count rewritten functions alongside the
    // inserted copy / dup traffic.
    return static_cast<unsigned>(State.Rewrite.Reports.size()) +
           State.Rewrite.StaticCopies + State.Rewrite.StaticDups +
           State.Rewrite.StaticCopyBacks;
  }

  analysis::PreservedAnalyses preserved() const override {
    return Mutated ? analysis::PreservedAnalyses::none()
                   : analysis::PreservedAnalyses::all();
  }

  unsigned configFields() const override { return FieldScheme | FieldCosts; }

private:
  bool Mutated = false;
};

/// Section 6.6 interprocedural extension. It needs an advanced
/// partition to have run before it (that rewrite report identifies the
/// removable copies) and is a no-op otherwise.
class FpArgPassingPass : public ModulePass {
public:
  std::string name() const override { return "fp-arg-passing"; }

  unsigned run(sir::Module &M, analysis::AnalysisManager &,
               PassState &State) override {
    LastChanges = 0;
    if (State.RanScheme != partition::Scheme::Advanced)
      return 0;
    State.FpArgs = partition::passArgsInFpRegisters(M, State.Rewrite);
    LastChanges = State.FpArgs.ArgsConverted +
                  State.FpArgs.EntryCopiesRemoved +
                  State.FpArgs.CopyBacksRemoved;
    return LastChanges;
  }

  analysis::PreservedAnalyses preserved() const override {
    return LastChanges == 0 ? analysis::PreservedAnalyses::all()
                            : analysis::PreservedAnalyses::none();
  }

private:
  unsigned LastChanges = 0;
};

/// Register allocation (regalloc::allocateModule).
class RegAllocPass : public ModulePass {
public:
  std::string name() const override { return "regalloc"; }

  unsigned run(sir::Module &M, analysis::AnalysisManager &AM,
               PassState &State) override {
    State.Alloc = regalloc::allocateModule(M, &AM);
    State.Allocated = true;
    for (const std::string &E : State.Alloc.Errors)
      State.Errors.push_back("regalloc: " + E);
    unsigned Changes = static_cast<unsigned>(State.Alloc.Funcs.size());
    for (const auto &KV : State.Alloc.Funcs)
      Changes += KV.second.SpillCode;
    // Calling-convention lowering rewrites every function even when no
    // spill code lands, so the default preserved() (none) holds.
    return Changes;
  }
};

//===----------------------------------------------------------------------===//
// Mid-end transform passes (src/transform).
//===----------------------------------------------------------------------===//

/// Loop-invariant code motion into preheaders.
class LicmPass : public ModulePass {
public:
  std::string name() const override { return "licm"; }

  unsigned run(sir::Module &M, analysis::AnalysisManager &AM,
               PassState &State) override {
    LastChanges = 0;
    for (const auto &F : M.functions())
      LastChanges += transform::runLICM(*F, AM);
    if (LastChanges)
      M.renumber();
    State.Transform.LicmHoisted += LastChanges;
    return LastChanges;
  }

  analysis::PreservedAnalyses preserved() const override {
    return LastChanges == 0 ? analysis::PreservedAnalyses::all()
                            : analysis::PreservedAnalyses::none();
  }

private:
  unsigned LastChanges = 0;
};

/// Bottom-up acyclic call-graph inlining.
class InlinePass : public ModulePass {
public:
  std::string name() const override { return "inline"; }

  unsigned run(sir::Module &M, analysis::AnalysisManager &,
               PassState &State) override {
    transform::InlineResult R = transform::runInline(M);
    State.Transform.CallsInlined += R.CallsInlined;
    State.Transform.InlineSkippedRecursive += R.SkippedRecursive;
    State.Transform.InlineSkippedBudget += R.SkippedBudget;
    LastChanges = R.CallsInlined;
    return LastChanges;
  }

  analysis::PreservedAnalyses preserved() const override {
    return LastChanges == 0 ? analysis::PreservedAnalyses::all()
                            : analysis::PreservedAnalyses::none();
  }

private:
  unsigned LastChanges = 0;
};

} // namespace

//===----------------------------------------------------------------------===//
// PassRegistry.
//===----------------------------------------------------------------------===//

PassRegistry &PassRegistry::global() {
  static PassRegistry *R = [] {
    auto *Reg = new PassRegistry();
    Reg->registerPass("opt", [] { return std::make_unique<OptPass>(); });
    Reg->registerPass("licm", [] { return std::make_unique<LicmPass>(); });
    Reg->registerPass("inline",
                      [] { return std::make_unique<InlinePass>(); });
    Reg->registerPass("profile",
                      [] { return std::make_unique<ProfilePass>(); });
    Reg->registerPass("partition",
                      [] { return std::make_unique<PartitionPass>(); });
    Reg->registerPass("fp-arg-passing",
                      [] { return std::make_unique<FpArgPassingPass>(); });
    Reg->registerPass("regalloc",
                      [] { return std::make_unique<RegAllocPass>(); });
    return Reg;
  }();
  return *R;
}

void PassRegistry::registerPass(const std::string &Name, Factory F) {
  Factories[Name] = std::move(F);
}

std::unique_ptr<ModulePass>
PassRegistry::create(const std::string &Name) const {
  auto It = Factories.find(Name);
  return It == Factories.end() ? nullptr : It->second();
}

//===----------------------------------------------------------------------===//
// Pipeline text.
//===----------------------------------------------------------------------===//

namespace {

std::string trim(const std::string &S) {
  size_t B = S.find_first_not_of(" \t\n\r");
  if (B == std::string::npos)
    return "";
  size_t E = S.find_last_not_of(" \t\n\r");
  return S.substr(B, E - B + 1);
}

bool parseInto(const std::string &Text,
               std::vector<std::unique_ptr<ModulePass>> &Out,
               std::string &Error, const PassRegistry &Registry) {
  size_t Pos = 0;
  while (Pos <= Text.size()) {
    size_t Comma = std::min(Text.find(',', Pos), Text.size());
    std::string Tok = trim(Text.substr(Pos, Comma - Pos));
    Pos = Comma + 1;
    if (Tok.empty()) {
      Error = "empty pass name in pipeline text '" + Text + "'";
      return false;
    }
    if (Tok == "opt2") {
      // Preset: expands in place, so "--passes=opt2" works everywhere
      // plain pipeline text does.
      if (!parseInto(core::opt2PipelineText(), Out, Error, Registry))
        return false;
      continue;
    }
    std::unique_ptr<ModulePass> P = Registry.create(Tok);
    if (!P) {
      Error = "unknown pass '" + Tok + "'";
      return false;
    }
    Out.push_back(std::move(P));
  }
  return true;
}

} // namespace

bool core::parsePipeline(const std::string &Text,
                         std::vector<std::unique_ptr<ModulePass>> &Out,
                         std::string &Error, const PassRegistry &Registry) {
  if (trim(Text).empty()) {
    Error = "empty pipeline text";
    return false;
  }
  std::vector<std::unique_ptr<ModulePass>> Parsed;
  if (!parseInto(Text, Parsed, Error, Registry))
    return false;
  for (auto &P : Parsed)
    Out.push_back(std::move(P));
  return true;
}

const char *core::defaultPipelineText() {
  return "opt,profile,partition,regalloc";
}

const char *core::opt2PipelineText() {
  // The second "opt" cleans up what the mid-end exposes: inlined arg
  // moves copy-propagate away.
  return "opt,licm,inline,opt,profile,partition,regalloc";
}

std::string core::effectivePipelineText(const PipelineConfig &Config) {
  if (!Config.Passes.empty())
    return Config.Passes;
  if (const char *Env = std::getenv("FPINT_PASSES"))
    if (*Env)
      return Env;
  return defaultPipelineText();
}

//===----------------------------------------------------------------------===//
// PassManager.
//===----------------------------------------------------------------------===//

PassManager::Options PassManager::Options::fromEnv() {
  Options Opts;
  if (const char *V = std::getenv("FPINT_VERIFY_EACH_PASS"))
    Opts.VerifyEach = *V && std::string(V) != "0";
  if (const char *P = std::getenv("FPINT_PRINT_AFTER"))
    Opts.PrintAfter = P;
  return Opts;
}

bool PassManager::parse(const std::string &Text, std::string &Error,
                        const PassRegistry &Registry) {
  return parsePipeline(Text, Passes, Error, Registry);
}

std::string PassManager::text() const {
  std::string Text;
  for (size_t I = 0; I < Passes.size(); ++I) {
    if (I)
      Text += ",";
    Text += Passes[I]->name();
  }
  return Text;
}

std::vector<std::string>
PassManager::prefixKeys(const PipelineConfig &Config) const {
  std::vector<std::string> Keys;
  std::string Key;
  for (const auto &P : Passes) {
    Key += P->name() + '{';
    appendConfigFields(Key, Config, P->configFields());
    Key += "},";
    Keys.push_back(Key);
  }
  return Keys;
}

std::vector<PassStat> PassManager::run(sir::Module &M,
                                       analysis::AnalysisManager &AM,
                                       PassState &State, size_t From,
                                       const AfterPassFn &AfterPass) {
  std::vector<PassStat> Stats;
  for (size_t PI = From; PI < Passes.size(); ++PI) {
    ModulePass *P = Passes[PI].get();
    if (State.Fatal)
      break;
    const analysis::AnalysisManager::Counters Before = AM.counters();
    const auto T0 = std::chrono::steady_clock::now();
    unsigned Changes = P->run(M, AM, State);
    // The boundary invalidation runs inside the pass's accounting
    // window so the invalidation cost is attributed to the pass that
    // caused it.
    AM.invalidate(P->preserved());
    const auto T1 = std::chrono::steady_clock::now();
    const analysis::AnalysisManager::Counters After = AM.counters();

    PassStat S;
    S.Name = P->name();
    S.WallMs = std::chrono::duration<double, std::milli>(T1 - T0).count();
    S.Changes = Changes;
    S.AnalysisHits = After.Hits - Before.Hits;
    S.AnalysisMisses = After.Misses - Before.Misses;
    S.AnalysisInvalidations = After.Invalidations - Before.Invalidations;
    Stats.push_back(S);

    if (!Opts.PrintAfter.empty() && Opts.PrintAfter == S.Name)
      std::fprintf(stderr, "; module after pass '%s'\n%s", S.Name.c_str(),
                   sir::toString(M).c_str());

    if (!State.Fatal && Opts.VerifyEach) {
      std::vector<std::string> Errs = sir::verify(M);
      if (!Errs.empty()) {
        State.Errors.push_back("verify after pass '" + S.Name +
                               "': " + Errs.front());
        State.Fatal = true;
      }
    }
    if (AfterPass)
      AfterPass(PI + 1, Stats);
    if (State.Fatal)
      break;
  }
  return Stats;
}
