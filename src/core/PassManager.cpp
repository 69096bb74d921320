//===- core/PassManager.cpp - Pass-manager compilation pipeline -----------===//

#include "core/PassManager.h"

#include "opt/Passes.h"
#include "regalloc/RegAlloc.h"
#include "sir/Printer.h"
#include "sir/Verifier.h"
#include "transform/Transforms.h"

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

/// One individual optimization as a FunctionPass.
class SingleOptPass : public FunctionPass {
public:
  SingleOptPass(const char *Name, unsigned (*Fn)(sir::Function &))
      : Name(Name), Fn(Fn) {}

  std::string name() const override { return Name; }
  unsigned runOnFunction(sir::Function &F,
                         analysis::AnalysisManager &) override {
    return Fn(F);
  }

private:
  const char *Name;
  unsigned (*Fn)(sir::Function &);
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

  std::string configKey(const PipelineConfig &Config) const override {
    std::string Key = "train=";
    for (int32_t A : Config.TrainArgs)
      Key += std::to_string(A) + ",";
    return Key;
  }
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

  std::string configKey(const PipelineConfig &Config) const override {
    // Hex floats are exact: distinct costs never share a key.
    char Buf[128];
    std::snprintf(Buf, sizeof(Buf), "scheme=%d,costs=%a,%a,%a",
                  static_cast<int>(Config.Scheme), Config.Costs.CopyOverhead,
                  Config.Costs.DupOverhead, Config.Costs.FpaShareCap);
    return Buf;
  }

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

/// Structural verification as an explicit pipeline stage (the final
/// compileAndMeasure verify is separate and unconditional).
class VerifyPass : public ModulePass {
public:
  std::string name() const override { return "verify"; }

  unsigned run(sir::Module &M, analysis::AnalysisManager &,
               PassState &State) override {
    for (const std::string &E : sir::verify(M))
      State.Errors.push_back("verify: " + E);
    return 0;
  }

  analysis::PreservedAnalyses preserved() const override {
    return analysis::PreservedAnalyses::all();
  }
};

std::unique_ptr<ModulePass> makeSingleOpt(const char *Name,
                                          unsigned (*Fn)(sir::Function &)) {
  return std::make_unique<FunctionPassAdaptor>(
      std::make_unique<SingleOptPass>(Name, Fn));
}

} // namespace

//===----------------------------------------------------------------------===//
// FunctionPassAdaptor / FixpointPass.
//===----------------------------------------------------------------------===//

unsigned FunctionPassAdaptor::run(sir::Module &M,
                                  analysis::AnalysisManager &AM,
                                  PassState &) {
  unsigned Total = 0;
  for (const auto &F : M.functions()) {
    unsigned Changes = FP->runOnFunction(*F, AM);
    if (Changes)
      AM.invalidateFunction(*F);
    Total += Changes;
  }
  // Downstream stages require renumbered IR; renumbering an unmutated
  // function is id-stable, so cached analyses of untouched functions
  // survive it.
  if (Total)
    M.renumber();
  Mutated = Total != 0;
  return Total;
}

std::string FixpointPass::name() const {
  std::string Name = "fixpoint(";
  for (size_t I = 0; I < Passes.size(); ++I) {
    if (I)
      Name += ",";
    Name += Passes[I]->name();
  }
  Name += ")";
  return Name;
}

std::string FixpointPass::configKey(const PipelineConfig &Config) const {
  std::string Key;
  for (const auto &P : Passes)
    Key += P->configKey(Config) + ";";
  return Key;
}

unsigned FixpointPass::run(sir::Module &M, analysis::AnalysisManager &AM,
                           PassState &State) {
  unsigned Total = 0;
  Iterations = 0;
  Converged = false;
  Mutated = false;
  while (Iterations < MaxIterations) {
    unsigned RoundChanges = 0;
    for (const auto &P : Passes) {
      RoundChanges += P->run(M, AM, State);
      // Inner boundaries invalidate like outer ones; the per-pass
      // telemetry row covers the whole fixpoint.
      AM.invalidate(P->preserved());
      if (State.Fatal) {
        Total += RoundChanges;
        Mutated = Mutated || Total != 0;
        return Total;
      }
    }
    ++Iterations;
    Total += RoundChanges;
    if (!RoundChanges) {
      Converged = true;
      break;
    }
    Mutated = true;
  }
  return Total;
}

//===----------------------------------------------------------------------===//
// PassRegistry.
//===----------------------------------------------------------------------===//

PassRegistry &PassRegistry::global() {
  static PassRegistry *R = [] {
    auto *Reg = new PassRegistry();
    Reg->registerPass("opt", [] { return std::make_unique<OptPass>(); });
    Reg->registerPass("copy-prop", [] {
      return makeSingleOpt("copy-prop", opt::propagateCopies);
    });
    Reg->registerPass("const-fold", [] {
      return makeSingleOpt("const-fold", opt::foldConstants);
    });
    Reg->registerPass("cse", [] {
      return makeSingleOpt("cse", opt::eliminateCommonSubexpressions);
    });
    Reg->registerPass("dce", [] {
      return makeSingleOpt("dce", opt::eliminateDeadCode);
    });
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
    Reg->registerPass("verify",
                      [] { return std::make_unique<VerifyPass>(); });
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

bool PassRegistry::contains(const std::string &Name) const {
  return Factories.count(Name) != 0;
}

std::vector<std::string> PassRegistry::names() const {
  std::vector<std::string> Names;
  for (const auto &KV : Factories)
    Names.push_back(KV.first);
  return Names;
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

/// Splits \p Text on top-level commas (commas inside parentheses stay
/// with their token). Returns false on unbalanced parentheses.
bool splitTopLevel(const std::string &Text, std::vector<std::string> &Out,
                   std::string &Error) {
  int Depth = 0;
  std::string Cur;
  for (char C : Text) {
    if (C == '(')
      ++Depth;
    else if (C == ')') {
      if (--Depth < 0) {
        Error = "unbalanced ')' in pipeline text";
        return false;
      }
    }
    if (C == ',' && Depth == 0) {
      Out.push_back(Cur);
      Cur.clear();
    } else {
      Cur += C;
    }
  }
  if (Depth != 0) {
    Error = "unbalanced '(' in pipeline text";
    return false;
  }
  Out.push_back(Cur);
  return true;
}

bool parseInto(const std::string &Text,
               std::vector<std::unique_ptr<ModulePass>> &Out,
               std::string &Error, const PassRegistry &Registry) {
  std::vector<std::string> Tokens;
  if (!splitTopLevel(Text, Tokens, Error))
    return false;
  for (const std::string &Raw : Tokens) {
    std::string Tok = trim(Raw);
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
    const std::string FixpointHead = "fixpoint(";
    if (Tok.rfind(FixpointHead, 0) == 0 && Tok.back() == ')') {
      std::string Inner = Tok.substr(
          FixpointHead.size(), Tok.size() - FixpointHead.size() - 1);
      std::vector<std::unique_ptr<ModulePass>> Sub;
      if (!parseInto(Inner, Sub, Error, Registry))
        return false;
      Out.push_back(std::make_unique<FixpointPass>(std::move(Sub)));
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
    Key += P->name() + "{" + P->configKey(Config) + "},";
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
