//===- tools/fpint-fuzz.cpp - Differential fuzzing driver ------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// fpint-fuzz: generates random sir modules and checks, for each, that
/// every partitioning pipeline variant preserves the program's exact
/// semantics (output stream, exit value, memory image, deterministic
/// trap) and that the timing simulator and stats subsystem agree on
/// the dynamic instruction counts per partition.
///
/// Every iteration runs in a forked sandbox (support::Subprocess), so
/// a checker crash or hang fails only that iteration: the campaign
/// always runs to completion and the parent never aborts. Failures
/// are triaged into buckets -- mismatches by the oracle's verdict,
/// crashes and hangs by (signal, last oracle stage reached) -- and
/// the first instance of each bucket is shrunk with the
/// delta-debugging reducer and written to the regression corpus with
/// a replay command.
///
///   fpint-fuzz --iters 500 --seed 1
///   fpint-fuzz --one 0x1234abcd --preset memory     # replay one module
///   fpint-fuzz --iters 2000 --write-repro tests/corpus/regressions
///   fpint-fuzz --timeout-ms 2000                    # hang guard per iter
///
/// The base seed defaults to $FPINT_FUZZ_SEED (then 1); every failure
/// message prints the exact --one module seed that reproduces it. The
/// timing cross-check simulates each module on one machine drawn by its
/// module seed from Table 1's two machines and the full explore grid,
/// so --one replays the machine too.
/// --no-sandbox runs iterations in-process (for debuggers); a crash
/// then kills the campaign, so it is never the CI mode.
///
//===----------------------------------------------------------------------===//

#include "campaign/Explore.h"
#include "campaign/Journal.h"
#include "core/PassManager.h"
#include "sir/Printer.h"
#include "sir/Verifier.h"
#include "support/Hash.h"
#include "support/ParseNumber.h"
#include "support/Subprocess.h"
#include "testgen/Generator.h"
#include "testgen/Oracle.h"
#include "testgen/Reducer.h"

#include <cctype>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <vector>

using namespace fpint;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: fpint-fuzz [options]\n"
      "\n"
      "  --iters N            modules to generate and check (default 100)\n"
      "  --seed S             base seed (default: $FPINT_FUZZ_SEED, then 1)\n"
      "  --one S              check exactly one module with module seed S\n"
      "  --preset NAME        generator preset (default cycles through all);\n"
      "                       one of: default branchy memory fp calls tiny\n"
      "                       intonly\n"
      "  --write-repro DIR    where reduced repros go (default\n"
      "                       tests/corpus/regressions)\n"
      "  --timeout-ms N       wall-clock guard per sandboxed iteration\n"
      "                       (default 10000; hangs become triaged repros)\n"
      "  --journal DIR        journal completed batches into DIR so an\n"
      "                       interrupted campaign resumes from the last\n"
      "                       completed batch, with the journaled base seed\n"
      "                       (see docs/CAMPAIGNS.md; ignored with --one)\n"
      "  --batch N            iterations per journaled batch (default 100)\n"
      "  --no-sandbox         run iterations in-process (debugging only;\n"
      "                       a checker crash then kills the campaign)\n"
      "  --no-reduce          report failures without shrinking\n"
      "  --no-timing          skip the simulator cross-checks (faster)\n"
      "  --passes TEXT        add a variant compiling with the given pass\n"
      "                       pipeline text (repeatable; see docs/PASSES.md;\n"
      "                       checked against the unpartitioned baseline)\n"
      "  --midend             add the mid-end variant battery: licm and\n"
      "                       inline each alone, plus the opt2 preset\n"
      "                       (see docs/TRANSFORMS.md)\n"
      "  --keep-going         check all iterations even after a failure\n"
      "  --emit               print each generated module (debugging)\n"
      "  --quiet              only print failures and the final summary\n");
}

/// A seed: any 64-bit value, hex with a 0x prefix.
uint64_t parseSeed(const char *Flag, const char *S) {
  return support::flagNumber<uint64_t>("fpint-fuzz", Flag, S, 0, UINT64_MAX,
                                       0);
}

struct FuzzStats {
  uint64_t Modules = 0;
  uint64_t Skipped = 0;
  uint64_t DynInstrs = 0;
  uint64_t Mismatches = 0;
  uint64_t Crashes = 0;
  uint64_t Hangs = 0;
};

std::string sanitizeFileName(std::string S) {
  for (char &C : S)
    if (!std::isalnum(static_cast<unsigned char>(C)))
      C = '_';
  return S;
}

/// FNV-1a over \p S, rendered as 8 hex digits (bucket keys).
std::string fnv8(const std::string &S) {
  uint32_t H = 2166136261u;
  for (unsigned char C : S) {
    H ^= C;
    H *= 16777619u;
  }
  char Buf[16];
  std::snprintf(Buf, sizeof(Buf), "%08x", H);
  return Buf;
}

/// Everything the parent learns from one checked module.
struct IterOutcome {
  enum class Kind {
    Pass,         ///< Oracle ran, no mismatch.
    Skip,         ///< Baseline hit a resource limit; says nothing.
    Mismatch,     ///< Oracle found a semantic divergence.
    GeneratorBug, ///< Generated module failed the strict verifier.
    Crash,        ///< Checker died on a signal (or uncaught exception).
    Hang,         ///< Watchdog destroyed the checker.
    SpawnFailed,  ///< fork failed; infrastructure, not a finding.
  };
  Kind K = Kind::SpawnFailed;
  std::vector<std::string> Mismatches;
  std::string SkipReason;
  std::string LastStage; ///< Last oracle breadcrumb before death.
  int Signal = 0;        ///< Fatal signal for Crash.
  uint64_t DynInstrs = 0;
  std::string Describe; ///< Human-readable sandbox verdict.
};

/// The machines the timing cross-check races the two cycle loops on:
/// Table 1's two machines and every point of the full explore grid.
const std::vector<campaign::MachinePoint> &fuzzMachines() {
  static const std::vector<campaign::MachinePoint> Pool = [] {
    std::vector<campaign::MachinePoint> P = {
        {"4-way", timing::MachineConfig::fourWay()},
        {"8-way", timing::MachineConfig::eightWay()}};
    for (campaign::MachinePoint &G : campaign::exploreGrid("full"))
      P.push_back(std::move(G));
    return P;
  }();
  return Pool;
}

/// The machine module \p ModSeed is simulated on, drawn from its seed
/// alone so that --one replays the same machine.
const campaign::MachinePoint &machineFor(uint64_t ModSeed) {
  const std::vector<campaign::MachinePoint> &Pool = fuzzMachines();
  // Fibonacci hashing: the product's high half mixes every seed bit.
  return Pool[((ModSeed * 0x9e3779b97f4a7c15ULL) >> 32) % Pool.size()];
}

/// Child exit codes of the sandboxed checker (anything else, plus
/// signals and timeouts, is classified by the parent).
enum : int {
  ExitPass = 0,
  ExitMismatch = 3,
  ExitSkip = 4,
  ExitGeneratorBug = 5,
};

/// The checker body; runs in the sandbox child (or in-process with
/// --no-sandbox). Streams breadcrumbs and results as prefixed lines
/// over \p Send so a mid-flight death still leaves triage data.
template <typename SendFn>
int checkModule(const sir::Module &M, uint64_t ModSeed,
                const testgen::OracleOptions &BaseOpts, const SendFn &Send) {
  sir::VerifyOptions Strict;
  Strict.CheckDataflow = true;
  std::vector<std::string> Diags = sir::verify(M, Strict);
  if (!Diags.empty()) {
    Send("G" + Diags.front());
    return ExitGeneratorBug;
  }

  testgen::OracleOptions Opts = BaseOpts;
  Opts.Machine = machineFor(ModSeed).M;
  Opts.Progress = [&](const std::string &Stage) { Send("@" + Stage); };
  testgen::OracleReport Report = testgen::runOracle(M, Opts);
  Send("D" + std::to_string(Report.BaselineDynInstrs));
  if (Report.BaselineSkipped) {
    Send("S" + Report.BaselineError);
    return ExitSkip;
  }
  for (const std::string &Msg : Report.Mismatches)
    Send("M" + Msg);
  return Report.Mismatches.empty() ? ExitPass : ExitMismatch;
}

/// Folds the streamed checker lines into \p Out.
void parseCheckerLines(const std::string &Payload, IterOutcome &Out) {
  size_t Pos = 0;
  while (Pos < Payload.size()) {
    size_t End = Payload.find('\n', Pos);
    if (End == std::string::npos)
      End = Payload.size();
    std::string Line = Payload.substr(Pos, End - Pos);
    Pos = End + 1;
    if (Line.empty())
      continue;
    std::string Rest = Line.substr(1);
    switch (Line[0]) {
    case '@':
      Out.LastStage = Rest;
      break;
    case 'D':
      Out.DynInstrs = std::strtoull(Rest.c_str(), nullptr, 10);
      break;
    case 'S':
      Out.SkipReason = Rest;
      break;
    case 'M':
      Out.Mismatches.push_back(Rest);
      break;
    case 'G':
      Out.Mismatches.push_back("generator bug: " + Rest);
      break;
    default:
      break;
    }
  }
}

/// Checks \p M inside a forked sandbox and classifies the result.
IterOutcome checkSandboxed(const sir::Module &M, uint64_t ModSeed,
                           const testgen::OracleOptions &Opts,
                           int TimeoutMs) {
  // One attempt, never retried: a crash or hang here is a finding.
  support::SandboxLimits Limits = support::SandboxPolicy().Limits;
  Limits.WallMs = TimeoutMs;

  support::TaskResult R = support::Subprocess::run(
      [&](int Fd) {
        auto Send = [Fd](const std::string &Line) {
          support::Subprocess::writeAll(Fd, Line + "\n");
        };
        return checkModule(M, ModSeed, Opts, Send);
      },
      Limits);

  IterOutcome Out;
  Out.Describe = R.describe();
  parseCheckerLines(R.Payload, Out);

  using Status = support::TaskResult::Status;
  if (R.TimedOut || R.Killed) {
    Out.K = IterOutcome::Kind::Hang;
  } else if (R.St == Status::Signaled) {
    Out.K = IterOutcome::Kind::Crash;
    Out.Signal = R.TermSignal;
  } else if (R.St == Status::SpawnFailed) {
    Out.K = IterOutcome::Kind::SpawnFailed;
  } else {
    switch (R.ExitCode) {
    case ExitPass:
      Out.K = IterOutcome::Kind::Pass;
      break;
    case ExitMismatch:
      Out.K = IterOutcome::Kind::Mismatch;
      break;
    case ExitSkip:
      Out.K = IterOutcome::Kind::Skip;
      break;
    case ExitGeneratorBug:
      Out.K = IterOutcome::Kind::GeneratorBug;
      break;
    default:
      // Uncaught exception (125) or other abnormal exit: triage like
      // a crash, with the exit code in the signal slot's place.
      Out.K = IterOutcome::Kind::Crash;
      Out.Signal = 0;
      break;
    }
  }
  return Out;
}

/// In-process fallback (--no-sandbox): same classification, no
/// containment.
IterOutcome checkInProcess(const sir::Module &M, uint64_t ModSeed,
                           const testgen::OracleOptions &Opts) {
  IterOutcome Out;
  std::vector<std::string> Lines;
  int Code = checkModule(M, ModSeed, Opts, [&](const std::string &Line) {
    Lines.push_back(Line);
  });
  std::string Payload;
  for (const std::string &L : Lines)
    Payload += L + "\n";
  parseCheckerLines(Payload, Out);
  Out.K = Code == ExitPass         ? IterOutcome::Kind::Pass
          : Code == ExitMismatch   ? IterOutcome::Kind::Mismatch
          : Code == ExitSkip       ? IterOutcome::Kind::Skip
                                   : IterOutcome::Kind::GeneratorBug;
  Out.Describe = "in-process";
  return Out;
}

/// Stable bucket key for one failure: mismatches bucket on the first
/// verdict line, crashes/hangs on (signal, last oracle stage).
std::string bucketKey(const IterOutcome &Out) {
  switch (Out.K) {
  case IterOutcome::Kind::Mismatch:
  case IterOutcome::Kind::GeneratorBug:
    return "mismatch_" +
           fnv8(Out.Mismatches.empty() ? "?" : Out.Mismatches.front());
  case IterOutcome::Kind::Crash:
    return "crash_sig" + std::to_string(Out.Signal) + "_" +
           fnv8(Out.LastStage.empty() ? "(pre-oracle)" : Out.LastStage);
  case IterOutcome::Kind::Hang:
    return "hang_" +
           fnv8(Out.LastStage.empty() ? "(pre-oracle)" : Out.LastStage);
  default:
    return "none";
  }
}

const char *kindName(IterOutcome::Kind K) {
  switch (K) {
  case IterOutcome::Kind::Pass:
    return "pass";
  case IterOutcome::Kind::Skip:
    return "skip";
  case IterOutcome::Kind::Mismatch:
    return "MISMATCH";
  case IterOutcome::Kind::GeneratorBug:
    return "GENERATOR BUG";
  case IterOutcome::Kind::Crash:
    return "CRASH";
  case IterOutcome::Kind::Hang:
    return "HANG";
  case IterOutcome::Kind::SpawnFailed:
    return "spawn failed";
  }
  return "?";
}

} // namespace

int main(int argc, char **argv) {
  uint64_t Iters = 100;
  uint64_t BaseSeed = 1;
  if (const char *Env = std::getenv("FPINT_FUZZ_SEED"))
    BaseSeed = parseSeed("$FPINT_FUZZ_SEED", Env);
  bool HaveOne = false;
  uint64_t OneSeed = 0;
  std::string Preset; // Empty: cycle through all presets.
  std::vector<std::string> PassTexts; // Extra --passes variants.
  bool Midend = false;                // Append testgen::midendVariants().
  std::string ReproDir = "tests/corpus/regressions";
  std::string JournalDir;
  uint64_t BatchSize = 100;
  int TimeoutMs = 10000;
  bool Sandbox = true, Reduce = true, CheckTiming = true, KeepGoing = false,
       Emit = false, Quiet = false;

  for (int A = 1; A < argc; ++A) {
    const char *Arg = argv[A];
    auto Value = [&]() -> const char * {
      if (A + 1 >= argc) {
        std::fprintf(stderr, "fpint-fuzz: %s needs a value\n", Arg);
        std::exit(2);
      }
      return argv[++A];
    };
    if (!std::strcmp(Arg, "--iters"))
      Iters = support::flagNumber<uint64_t>("fpint-fuzz", Arg, Value());
    else if (!std::strcmp(Arg, "--seed"))
      BaseSeed = parseSeed(Arg, Value());
    else if (!std::strcmp(Arg, "--one")) {
      HaveOne = true;
      OneSeed = parseSeed(Arg, Value());
    } else if (!std::strcmp(Arg, "--preset"))
      Preset = Value();
    else if (!std::strcmp(Arg, "--write-repro"))
      ReproDir = Value();
    else if (!std::strcmp(Arg, "--timeout-ms"))
      TimeoutMs = support::flagNumber("fpint-fuzz", Arg, Value(), 1, 86400000);
    else if (!std::strcmp(Arg, "--journal"))
      JournalDir = Value();
    else if (!std::strcmp(Arg, "--batch"))
      BatchSize = support::flagNumber<uint64_t>("fpint-fuzz", Arg, Value(), 1);
    else if (!std::strcmp(Arg, "--no-sandbox"))
      Sandbox = false;
    else if (!std::strcmp(Arg, "--no-reduce"))
      Reduce = false;
    else if (!std::strcmp(Arg, "--no-timing"))
      CheckTiming = false;
    else if (!std::strcmp(Arg, "--passes"))
      PassTexts.push_back(Value());
    else if (!std::strcmp(Arg, "--midend"))
      Midend = true;
    else if (!std::strcmp(Arg, "--keep-going"))
      KeepGoing = true;
    else if (!std::strcmp(Arg, "--emit"))
      Emit = true;
    else if (!std::strcmp(Arg, "--quiet"))
      Quiet = true;
    else {
      usage();
      return 2;
    }
  }

  const std::vector<std::string> &Presets = testgen::presetNames();
  testgen::OracleOptions OracleOpts;
  OracleOpts.CheckTiming = CheckTiming;
  for (const std::string &Text : PassTexts) {
    // Reject malformed text up front instead of once per iteration.
    std::vector<std::unique_ptr<core::ModulePass>> Parsed;
    std::string ParseError;
    if (!core::parsePipeline(Text, Parsed, ParseError)) {
      std::fprintf(stderr, "fpint-fuzz: bad --passes: %s\n",
                   ParseError.c_str());
      return 2;
    }
    testgen::VariantSpec V;
    V.Name = "passes:" + Text;
    V.Config.Passes = Text;
    V.Config.Scheme = partition::Scheme::Advanced;
    OracleOpts.Variants.push_back(std::move(V));
  }
  if (Midend) {
    std::vector<testgen::VariantSpec> MV = testgen::midendVariants();
    OracleOpts.Variants.insert(OracleOpts.Variants.end(),
                               std::make_move_iterator(MV.begin()),
                               std::make_move_iterator(MV.end()));
  }
  FuzzStats Stats;
  std::map<std::string, uint64_t> Buckets;
  int Exit = 0;

  // --journal: resume an interrupted campaign from its last completed
  // batch. The campaign identity covers everything that changes what
  // the batches check -- iteration count, preset, generator step cap,
  // variant battery, timing machine draw, batch size -- but NOT the
  // seed: on resume the journaled header's seed is adopted, so a
  // restarted nightly run continues the exact random sequence it
  // started with (docs/CAMPAIGNS.md).
  const bool UseJournal = !JournalDir.empty() && !HaveOne;
  campaign::Journal Journal;
  std::set<uint64_t> DoneBatches;
  if (UseJournal) {
    support::ChainedKey Key("fpint-fuzz");
    Key.add(campaign::JournalSchema)
        .add(std::to_string(Iters))
        .add(Preset)
        .add(std::to_string(testgen::MaxModuleSteps))
        .add(testgen::batteryKey(OracleOpts.Variants))
        .add(std::to_string(CheckTiming));
    for (const campaign::MachinePoint &P : fuzzMachines())
      Key.add(P.M.canonicalKey()); // The timing machine draw.
    Key.add(std::to_string(BatchSize));

    json::Value Header = json::Value::object();
    char SeedBuf[32];
    std::snprintf(SeedBuf, sizeof(SeedBuf), "0x%" PRIx64, BaseSeed);
    Header.set("seed", SeedBuf);
    campaign::CampaignReplay Replay;
    std::string Err;
    if (!campaign::openCampaignJournal(Journal, JournalDir, Key.hex(), Header,
                                       Replay, &Err)) {
      std::fprintf(stderr, "fpint-fuzz: journal: %s\n", Err.c_str());
      return 2;
    }
    if (Replay.Discarded)
      std::fprintf(stderr, "fpint-fuzz: journal belongs to a different "
                           "campaign; starting fresh\n");
    // A fresh header carries this run's seed; a resumed one the seed the
    // campaign started with.
    BaseSeed =
        parseSeed("the journal seed", Replay.Header.strOr("seed", "1").c_str());
    for (const json::Value &R : Replay.Records) {
      if (R.strOr("type", "") != "batch")
        continue;
      DoneBatches.insert(static_cast<uint64_t>(R.numberOr("index", 0)));
      Stats.Modules += static_cast<uint64_t>(R.numberOr("modules", 0));
      Stats.Skipped += static_cast<uint64_t>(R.numberOr("skipped", 0));
      Stats.DynInstrs += static_cast<uint64_t>(R.numberOr("dyn_instrs", 0));
      Stats.Mismatches += static_cast<uint64_t>(R.numberOr("mismatches", 0));
      Stats.Crashes += static_cast<uint64_t>(R.numberOr("crashes", 0));
      Stats.Hangs += static_cast<uint64_t>(R.numberOr("hangs", 0));
      Exit = std::max(Exit, static_cast<int>(R.numberOr("exit", 0)));
      const json::Value *B = R.find("buckets");
      if (B && B->isObject())
        for (const auto &Member : B->members())
          Buckets[Member.first] +=
              static_cast<uint64_t>(Member.second.number());
    }
    if (!DoneBatches.empty())
      std::fprintf(stderr,
                   "fpint-fuzz: resuming campaign (base seed 0x%" PRIx64
                   "): %zu batch(es) already complete\n",
                   BaseSeed, DoneBatches.size());
  }

  auto Check = [&](const sir::Module &M, uint64_t ModSeed) {
    return Sandbox ? checkSandboxed(M, ModSeed, OracleOpts, TimeoutMs)
                   : checkInProcess(M, ModSeed, OracleOpts);
  };

  const uint64_t Total = HaveOne ? 1 : Iters;
  const uint64_t Step = UseJournal ? BatchSize : (Total ? Total : 1);
  bool Stop = false;
  for (uint64_t BatchStart = 0; BatchStart < Total && !Stop;
       BatchStart += Step) {
    const uint64_t BatchIdx = BatchStart / Step;
    const uint64_t BatchEnd = std::min(BatchStart + Step, Total);
    if (UseJournal && DoneBatches.count(BatchIdx))
      continue;
    const FuzzStats Before = Stats;
    const std::map<std::string, uint64_t> BucketsBefore = Buckets;

    for (uint64_t It = BatchStart; It < BatchEnd; ++It) {
      uint64_t ModSeed =
          HaveOne ? OneSeed : testgen::moduleSeed(BaseSeed, It);
      const std::string &PresetName =
          !Preset.empty() ? Preset : Presets[It % Presets.size()];
      testgen::GenConfig Config = testgen::presetConfig(PresetName);

      std::unique_ptr<sir::Module> M = testgen::generateModule(Config, ModSeed);
      std::string Text = sir::toString(*M);
      if (Emit)
        std::printf("# seed=0x%" PRIx64 " preset=%s\n%s\n", ModSeed,
                    PresetName.c_str(), Text.c_str());

      IterOutcome Out = Check(*M, ModSeed);
      ++Stats.Modules;
      Stats.DynInstrs += Out.DynInstrs;

      if (Out.K == IterOutcome::Kind::Pass)
        continue;
      if (Out.K == IterOutcome::Kind::Skip) {
        ++Stats.Skipped;
        if (!Quiet)
          std::fprintf(stderr, "skip seed=0x%" PRIx64 " iter=%" PRIu64 ": %s\n",
                       ModSeed, It, Out.SkipReason.c_str());
        continue;
      }
      if (Out.K == IterOutcome::Kind::SpawnFailed) {
        std::fprintf(stderr,
                     "fpint-fuzz: fork failed at iter %" PRIu64 "; stopping\n",
                     It);
        Exit = 2;
        Stop = true;
        break;
      }

      // A finding. Count, triage into a bucket, report.
      switch (Out.K) {
      case IterOutcome::Kind::Crash:
        ++Stats.Crashes;
        break;
      case IterOutcome::Kind::Hang:
        ++Stats.Hangs;
        break;
      default:
        ++Stats.Mismatches;
        break;
      }
      Exit = 1;
      std::string Bucket = bucketKey(Out);
      bool FirstInBucket = Buckets[Bucket]++ == 0;

      std::fprintf(stderr,
                   "%s seed=0x%" PRIx64 " iter=%" PRIu64
                   " preset=%s bucket=%s (%s)\n",
                   kindName(Out.K), ModSeed, It, PresetName.c_str(),
                   Bucket.c_str(), Out.Describe.c_str());
      if (!Out.LastStage.empty())
        std::fprintf(stderr, "  last oracle stage: %s\n", Out.LastStage.c_str());
      for (const std::string &Msg : Out.Mismatches)
        std::fprintf(stderr, "  %s\n", Msg.c_str());
      std::fprintf(stderr,
                   "  reproduce: fpint-fuzz --one 0x%" PRIx64
                   " --preset %s (timing machine %s)\n",
                   ModSeed, PresetName.c_str(),
                   machineFor(ModSeed).Label.c_str());

      if (Reduce && FirstInBucket) {
        // Shrink while the candidate stays in the same bucket. Crash and
        // hang probes run sandboxed even under --no-sandbox (an
        // in-process crash probe would kill the reducer itself); hang
        // probes get a tightened watchdog so reduction stays bounded.
        const IterOutcome::Kind WantKind = Out.K;
        const int WantSignal = Out.Signal;
        const int ProbeTimeout =
            WantKind == IterOutcome::Kind::Hang
                ? std::min(TimeoutMs, 1500)
                : TimeoutMs;
        testgen::InterestingPredicate SameBucket =
            [&](const sir::Module &Candidate) {
              IterOutcome Probe =
                  (WantKind == IterOutcome::Kind::Mismatch && !Sandbox)
                      ? checkInProcess(Candidate, ModSeed, OracleOpts)
                      : checkSandboxed(Candidate, ModSeed, OracleOpts,
                                       ProbeTimeout);
              if (Probe.K != WantKind)
                return false;
              if (WantKind == IterOutcome::Kind::Crash)
                return Probe.Signal == WantSignal;
              return true;
            };
        testgen::ReduceOutcome Reduced = testgen::reduceModule(Text, SameBucket);
        std::fprintf(stderr, "  reduced to %u instructions (%u probes)\n",
                     Reduced.InstrCount, Reduced.Probes);

        char Name[160];
        std::snprintf(Name, sizeof(Name), "seed_0x%" PRIx64 "_%s_%s.sir",
                      ModSeed, sanitizeFileName(PresetName).c_str(),
                      sanitizeFileName(Bucket).c_str());
        std::string Path = ReproDir + "/" + Name;
        std::ofstream OutFile(Path);
        if (OutFile) {
          OutFile << "# fpint-fuzz regression (auto-reduced)\n"
                  << "# kind=" << kindName(Out.K) << " bucket=" << Bucket
                  << "\n"
                  << "# seed=0x" << std::hex << ModSeed << std::dec
                  << " preset=" << PresetName << "\n"
                  << "# replay: fpint-fuzz --one 0x" << std::hex << ModSeed
                  << std::dec << " --preset " << PresetName << "\n"
                  << "# timing machine: " << machineFor(ModSeed).Label << "\n";
          if (!Out.LastStage.empty())
            OutFile << "# last oracle stage: " << Out.LastStage << "\n";
          for (const std::string &Msg : Out.Mismatches)
            OutFile << "# " << Msg << "\n";
          OutFile << Reduced.Text;
          std::fprintf(stderr, "  repro written to %s\n", Path.c_str());
        } else {
          std::fprintf(stderr, "  could not write %s\n", Path.c_str());
        }
      }
      if (!KeepGoing) {
        Stop = true;
        break;
      }
    }

    // One fully-completed batch = one durable unit of progress. An
    // interrupted batch (finding with !KeepGoing, fork failure, or the
    // harness dying) is deliberately not journaled: the next run
    // re-executes it from its first iteration.
    if (UseJournal && !Stop) {
      json::Value R = json::Value::object();
      R.set("type", "batch");
      R.set("index", BatchIdx);
      R.set("modules", Stats.Modules - Before.Modules);
      R.set("skipped", Stats.Skipped - Before.Skipped);
      R.set("dyn_instrs", Stats.DynInstrs - Before.DynInstrs);
      R.set("mismatches", Stats.Mismatches - Before.Mismatches);
      R.set("crashes", Stats.Crashes - Before.Crashes);
      R.set("hangs", Stats.Hangs - Before.Hangs);
      R.set("exit", Exit);
      json::Value BucketDeltas = json::Value::object();
      for (const auto &B : Buckets) {
        auto PrevIt = BucketsBefore.find(B.first);
        const uint64_t Prev =
            PrevIt == BucketsBefore.end() ? 0 : PrevIt->second;
        if (B.second > Prev)
          BucketDeltas.set(B.first, B.second - Prev);
      }
      R.set("buckets", std::move(BucketDeltas));
      std::string Err;
      if (!Journal.append(R, &Err)) {
        std::fprintf(stderr, "fpint-fuzz: journal: %s\n", Err.c_str());
        Exit = 2;
        Stop = true;
      }
    }
  }

  std::printf("fpint-fuzz: %" PRIu64 " modules, %" PRIu64 " skipped, %" PRIu64
              " dynamic instructions checked, %" PRIu64
              " mismatches, %" PRIu64 " crashes, %" PRIu64
              " hangs (base seed 0x%" PRIx64 ")\n",
              Stats.Modules, Stats.Skipped, Stats.DynInstrs, Stats.Mismatches,
              Stats.Crashes, Stats.Hangs, BaseSeed);
  for (const auto &B : Buckets)
    std::printf("  bucket %s: %" PRIu64 " hit(s)\n", B.first.c_str(),
                B.second);
  return Exit;
}
