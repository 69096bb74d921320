//===- core/PassManager.h - Pass-manager compilation pipeline -------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A unified pass framework over sir modules, in the shape LLVM-family
/// compilers use. The compile side of core::compileAndMeasure is
/// expressed as a sequence of named ModulePasses driven by a
/// PassManager:
///
///   opt, profile, partition, regalloc
///
/// Every registered stage is available by name (PassRegistry), so the
/// pipeline is configurable as *pipeline text*: a comma-separated pass
/// list, parsed by parsePipeline().
/// The text is the one description of which stages run: a stage runs
/// exactly when its token is in the text. PipelineConfig supplies only
/// the data the stages consume (scheme, cost parameters, inputs).
///
/// The manager owns the observability at pass boundaries:
///
///  * per-pass wall-clock and change counts (PassStat, flowing into
///    stats::Report and bench_out JSON);
///  * FPINT_VERIFY_EACH_PASS=1 verifies the module after every pass
///    and attributes the first broken invariant to the pass that
///    broke it;
///  * FPINT_PRINT_AFTER=<pass> dumps the module (sir::Printer) to
///    stderr after the named pass.
///
/// Each pass builds the analyses it reads (CFG, RDG, liveness, block
/// weights) over the IR it sees and drops them when it returns; no
/// pass's analyses outlive it, so there is nothing to invalidate at a
/// boundary.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_CORE_PASSMANAGER_H
#define FPINT_CORE_PASSMANAGER_H

#include "core/Pipeline.h"
#include "sir/IR.h"
#include "vm/VM.h"

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace fpint {
namespace core {

/// Mutable state threaded through one compile pipeline: the config the
/// passes read their inputs from, the training profile, and every
/// per-stage report that ends up on the PipelineRun.
struct PassState {
  PipelineConfig Config;

  /// Training profile collected by the "profile" pass. HaveProfile
  /// distinguishes "no profile pass ran" (partitioning falls back to
  /// static estimates) from an empty profile.
  vm::Profile Profile;
  bool HaveProfile = false;

  opt::OptReport Opt;
  transform::MidEndReport Transform;
  partition::ModuleRewrite Rewrite;
  partition::FpArgReport FpArgs;
  regalloc::ModuleAlloc Alloc;
  /// The scheme the most recent partition pass invoked (None until one
  /// runs). fp-arg-passing needs an advanced partition's rewrite report
  /// and is a no-op without one.
  partition::Scheme RanScheme = partition::Scheme::None;
  /// A register-allocation pass ran.
  bool Allocated = false;

  std::vector<std::string> Errors;
  /// A pass declared the pipeline unrecoverable (training run failed,
  /// or verify-each-pass found corruption): remaining passes are
  /// skipped and compileAndMeasure returns early, matching the legacy
  /// control flow.
  bool Fatal = false;
};

/// One transformation (or diagnostic) stage over a module.
class ModulePass {
public:
  virtual ~ModulePass() = default;

  /// Stable name: the pass's token in pipeline text.
  virtual std::string name() const = 0;

  /// Runs over \p M. Returns the number of IR changes made (0 for
  /// analysis-only passes); diagnostics and reports go to \p State.
  virtual unsigned run(sir::Module &M, PassState &State) = 0;

  /// The PipelineConfig fields this pass reads, as ConfigField bits (0,
  /// the default, for none). Part of PassManager::prefixKeys(), so a
  /// pass that reads a config field must name it here.
  virtual unsigned configFields() const { return 0; }
};

/// Name -> factory map of every available pass. The global() registry
/// is pre-populated with the built-in stages:
///
///   opt             the optimizer (opt::optimizeModule)
///   licm, inline    the mid-end transforms (src/transform)
///   profile         training-input profiling run (fatal on failure)
///   partition       the Config.Scheme partitioner (None: no-op)
///   fp-arg-passing  Section 6.6 extension (no-op unless an advanced
///                   partition ran before it)
///   regalloc        register allocation (regalloc::allocateModule)
///
/// Tests may registerPass() additional names; re-registering a name
/// replaces the factory (latest wins).
class PassRegistry {
public:
  using Factory = std::function<std::unique_ptr<ModulePass>()>;

  static PassRegistry &global();

  void registerPass(const std::string &Name, Factory F);
  /// Null if \p Name is unknown.
  std::unique_ptr<ModulePass> create(const std::string &Name) const;

private:
  std::map<std::string, Factory> Factories;
};

/// Parses pipeline text -- comma-separated registered pass names with
/// optional whitespace, where "opt2" expands to opt2PipelineText(), e.g.
///
///   "opt, profile, partition, regalloc"
///
/// into pass instances from \p Registry. Returns false and sets
/// \p Error (mentioning the offending token) on an empty token or an
/// unknown pass name.
bool parsePipeline(const std::string &Text,
                   std::vector<std::unique_ptr<ModulePass>> &Out,
                   std::string &Error,
                   const PassRegistry &Registry = PassRegistry::global());

/// The paper's compile flow: "opt,profile,partition,regalloc".
const char *defaultPipelineText();

/// The "opt2" preset: the local optimizer plus the mid-end (LICM,
/// inline) and a second local cleanup, ahead of the default back half
/// ("profile,partition,regalloc"). The token "opt2" in pipeline text
/// expands to this.
const char *opt2PipelineText();

/// The text compileAndMeasure will run for \p Config:
/// Config.Passes if set, else $FPINT_PASSES if set, else the default.
/// Every consumer of the pipeline identity -- compileAndMeasure,
/// RunCache::runKey, stats::runId and stats::pipelineConfigToJson --
/// resolves the text here.
std::string effectivePipelineText(const PipelineConfig &Config);

/// Drives a pass sequence over a module with per-pass telemetry.
class PassManager {
public:
  struct Options {
    /// Verify the module after every pass; the first failure is
    /// attributed to the pass and aborts the pipeline.
    bool VerifyEach = false;
    /// Dump the module to stderr after the named pass ("" = never).
    std::string PrintAfter;

    /// Reads FPINT_VERIFY_EACH_PASS / FPINT_PRINT_AFTER.
    static Options fromEnv();
  };

  PassManager() = default;
  explicit PassManager(Options Opts) : Opts(std::move(Opts)) {}

  /// Parses \p Text into this manager. Existing passes are kept (text
  /// appends). Returns false and sets \p Error on a parse failure.
  bool parse(const std::string &Text, std::string &Error,
             const PassRegistry &Registry = PassRegistry::global());

  /// Round-trip text of the current sequence.
  std::string text() const;

  /// One key per pass: Keys[K] names the state after passes 0..K under
  /// \p Config -- each pass's name() and its configFields() of
  /// \p Config. Two compiles of one module whose keys agree at K reach
  /// the same state there.
  std::vector<std::string> prefixKeys(const PipelineConfig &Config) const;

  /// Called after each pass, once its boundary work is done, with the
  /// number of passes the module has been through (counting a resumed
  /// prefix) and this run's PassStat rows so far.
  using AfterPassFn =
      std::function<void(size_t Done, const std::vector<PassStat> &Rows)>;

  /// Runs the passes from index \p From on, in order; \p M and
  /// \p State must hold the result of passes [0, From). After each
  /// pass: records telemetry, honors VerifyEach / PrintAfter, calls
  /// \p AfterPass, and stops early when State.Fatal is set. Returns one
  /// PassStat per executed pass.
  std::vector<PassStat> run(sir::Module &M, PassState &State,
                            size_t From = 0,
                            const AfterPassFn &AfterPass = nullptr);

private:
  Options Opts;
  std::vector<std::unique_ptr<ModulePass>> Passes;
};

} // namespace core
} // namespace fpint

#endif // FPINT_CORE_PASSMANAGER_H
