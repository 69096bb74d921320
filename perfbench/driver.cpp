//===- perfbench/driver.cpp - End-to-end benchmark driver -----------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload for a fixed wall-clock window and writes
/// the raw measurements (per-op timings, process rusage, layer counters,
/// and, with --trace 1, per-op spans) as JSON. run.py turns them into
/// the named metrics; README.md says why each workload exists.
///
/// The driver reaches the system only through public entry points and
/// times every call from outside. It never goes through core::RunCache,
/// so every timed op does real work:
///
///   figures  one op = compileAndMeasure + refTrace + packedTrace +
///            simulate on Table 1's 4-way and 8-way machines, for one
///            (program, scheme); ops run on the shared thread pool.
///   fuzz     one op = generateModule + runOracle inside
///            Subprocess::run, serially, as fpint-fuzz does.
///   sweep    one op = one simulate call of a trace packed in set-up,
///            on one point of exploreGrid("small"); ops run on the pool.
///
/// Every op is checked; a failed check is recorded and the run goes on.
///
//===----------------------------------------------------------------------===//

#include "campaign/Explore.h"
#include "core/Pipeline.h"
#include "sir/Verifier.h"
#include "support/Json.h"
#include "support/Subprocess.h"
#include "support/ThreadPool.h"
#include "testgen/Generator.h"
#include "testgen/Oracle.h"
#include "workloads/Workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <future>
#include <map>
#include <sstream>
#include <string>
#include <vector>

using namespace fpint;

namespace {

using Clock = std::chrono::steady_clock;

/// Process start reference. steady_clock is CLOCK_MONOTONIC, which a
/// forked sandbox child shares, so child timestamps line up with ours.
const Clock::time_point T0 = Clock::now();

double nowMs() {
  return std::chrono::duration<double, std::milli>(Clock::now() - T0).count();
}

/// Environment knobs that change results or cost. run.py unsets them;
/// a direct invocation with any of them set is refused.
const char *const ForbiddenEnv[] = {
    "FPINT_SIM_SAMPLE", "FPINT_SIM_FAST",         "FPINT_PASSES",
    "FPINT_FAULT",      "FPINT_SANDBOX",          "FPINT_TELEMETRY",
    "FPINT_VERIFY_EACH_PASS", "FPINT_PRINT_AFTER"};

uint64_t splitmix(uint64_t &State) {
  uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// Deterministic Fisher-Yates permutation of [0, N) for (Seed, Pass).
std::vector<size_t> permutation(size_t N, uint64_t Seed, uint64_t Pass) {
  std::vector<size_t> P(N);
  for (size_t I = 0; I < N; ++I)
    P[I] = I;
  uint64_t State = Seed * 0x2545f4914f6cdd1dULL + Pass;
  for (size_t I = N; I > 1; --I)
    std::swap(P[I - 1], P[splitmix(State) % I]);
  return P;
}

//===----------------------------------------------------------------------===//
// Per-op records and spans.
//===----------------------------------------------------------------------===//

/// Work counted at layer boundaries, summed over ops.
struct Counters {
  uint64_t CompileCalls = 0, PassChanges = 0, AnalysisHits = 0,
           AnalysisMisses = 0, TraceInstrs = 0, TraceCaptures = 0,
           SimCalls = 0, SimCycles = 0, Spawns = 0, DynInstrs = 0,
           Skipped = 0;

  void add(const Counters &O) {
    CompileCalls += O.CompileCalls;
    PassChanges += O.PassChanges;
    AnalysisHits += O.AnalysisHits;
    AnalysisMisses += O.AnalysisMisses;
    TraceInstrs += O.TraceInstrs;
    TraceCaptures += O.TraceCaptures;
    SimCalls += O.SimCalls;
    SimCycles += O.SimCycles;
    Spawns += O.Spawns;
    DynInstrs += O.DynInstrs;
    Skipped += O.Skipped;
  }
};

struct Span {
  std::string Name;
  double Start = 0, End = 0;
  int Parent = -1; ///< Index within the op's span list; -1 for the root.
};

enum class OpStatus { Ok, Failed, Skipped };

/// One op: its timing, verdict, counters and (traced runs) spans.
/// Filled by exactly one thread.
struct OpRecord {
  size_t Item = 0; ///< Index of the op within its pass's item list.
  double Submit = 0, Start = 0, End = 0;
  OpStatus Status = OpStatus::Ok;
  std::string Failure;
  Counters C;
  std::vector<Span> Spans;
  std::vector<int> Open; ///< Stack of open span indices.
  bool Trace = false;

  void fail(std::string Why) {
    if (Status != OpStatus::Failed)
      Failure = std::move(Why);
    Status = OpStatus::Failed;
  }

  int open(std::string Name) {
    if (!Trace)
      return -1;
    Spans.push_back(
        {std::move(Name), nowMs(), 0, Open.empty() ? -1 : Open.back()});
    Open.push_back(static_cast<int>(Spans.size() - 1));
    return Open.back();
  }
  void close() {
    if (!Trace)
      return;
    Spans[Open.back()].End = nowMs();
    Open.pop_back();
  }
  /// Closes every span still open (an op that threw).
  void closeAll() {
    while (!Open.empty())
      close();
  }
  /// A finished child span of \p Parent measured elsewhere.
  void addChild(int Parent, std::string Name, double Start, double End) {
    if (Trace)
      Spans.push_back({std::move(Name), Start, End, Parent});
  }
};

/// RAII span around the calls of one layer.
class SpanScope {
public:
  SpanScope(OpRecord &R, const char *Name) : R(R), Id(R.open(Name)) {}
  ~SpanScope() {
    if (Id >= 0 && !R.Open.empty() && R.Open.back() == Id)
      R.close();
  }
  SpanScope(const SpanScope &) = delete;
  SpanScope &operator=(const SpanScope &) = delete;
  int id() const { return Id; }

private:
  OpRecord &R;
  int Id;
};

/// Times \p Body as one op: root span "op", exceptions become failures.
template <typename Fn> void runOp(OpRecord &R, Fn &&Body) {
  R.Start = nowMs();
  R.open("op");
  try {
    Body(R);
  } catch (const std::exception &E) {
    R.fail(std::string("exception: ") + E.what());
  }
  R.closeAll();
  R.End = nowMs();
}

/// compileAndMeasure under a "core.compile" span, with one derived
/// "pass.<name>" child per PassStat row laid out back to back from the
/// compile start (PassStat carries durations, not start times).
core::PipelineRun compileTraced(OpRecord &R, const sir::Module &M,
                                const core::PipelineConfig &Cfg) {
  SpanScope S(R, "core.compile");
  core::PipelineRun Run = core::compileAndMeasure(M, Cfg);
  ++R.C.CompileCalls;
  for (const core::PassStat &P : Run.PassStats) {
    R.C.PassChanges += P.Changes;
    R.C.AnalysisHits += P.AnalysisHits;
    R.C.AnalysisMisses += P.AnalysisMisses;
  }
  if (S.id() >= 0) {
    double T = R.Spans[S.id()].Start;
    for (const core::PassStat &P : Run.PassStats) {
      R.addChild(S.id(), "pass." + P.Name, T, T + P.WallMs);
      T += P.WallMs;
    }
  }
  return Run;
}

timing::SimStats simulateTraced(OpRecord &R, const core::PipelineRun &Run,
                                const timing::MachineConfig &M) {
  SpanScope S(R, "timing.sim");
  timing::SimStats St = core::simulate(Run, M);
  ++R.C.SimCalls;
  R.C.SimCycles += St.Cycles;
  return St;
}

/// FPa-disabled twin for conventional (Scheme::None) runs.
timing::MachineConfig forScheme(timing::MachineConfig M, partition::Scheme S) {
  if (S == partition::Scheme::None)
    M.FpaEnabled = false;
  return M;
}

core::PipelineConfig configFor(partition::Scheme S,
                               const std::vector<int32_t> &Train,
                               const std::vector<int32_t> &Ref) {
  core::PipelineConfig Cfg;
  Cfg.Scheme = S;
  Cfg.TrainArgs = Train;
  Cfg.RefArgs = Ref;
  return Cfg;
}

//===----------------------------------------------------------------------===//
// Workloads. Each builds its inputs in setup() and exposes a fixed list
// of ops per pass; the timed loop runs whole passes in a seeded order.
//===----------------------------------------------------------------------===//

struct Options {
  std::string Workload, Root, Out;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  bool CorruptGolden = false;
};

/// Set-up runs at least MinSetupReps times and repeats until
/// SetupBudgetS have passed (at most MaxSetupReps); setup_s is the
/// median repetition.
constexpr unsigned MinSetupReps = 3, MaxSetupReps = 15;
constexpr double SetupBudgetS = 3.0;
/// Every window completes this many ops, so ten samples lie beyond the
/// p95 (run.py refuses a percentile with fewer).
constexpr size_t MinOps = 200;
constexpr double HardCapSeconds = 120;

class Workload {
public:
  virtual ~Workload() = default;
  /// Builds all inputs; throws std::runtime_error on a broken checkout.
  virtual void setup(const Options &O) = 0;
  /// Number of ops in one pass.
  virtual size_t passSize() const = 0;
  /// Runs op \p Index of pass \p Pass into \p R.
  virtual void op(size_t Index, uint64_t Pass, OpRecord &R) = 0;
  /// Whether ops run on the shared pool (else serially on this thread).
  virtual bool pooled() const = 0;
  /// Untimed ops run at the end of setup (the warm-up pass).
  virtual std::vector<size_t> warmupOps() const = 0;
  /// Untimed work after the window that the headline numbers need
  /// (fuzz: the calibration compiles and simulations).
  virtual void finish() {}
  /// Deterministic headline numbers, valid after finish().
  virtual double speedupGeomean() const = 0;
  virtual double offloadPct() const = 0;
  /// Work outside the window that the traced run reports instead of
  /// ops (fuzz: pass times, which runOracle keeps to itself).
  virtual void replay(std::vector<OpRecord> &) {}
  /// Traces captured in set-up and replayed by the ops (sweep).
  virtual size_t setupTraces() const { return 0; }
};

/// Records the first value seen per key and checks later ones against
/// it, so every pass must reproduce the first exactly.
class Reference {
public:
  bool check(const std::string &Key, uint64_t V) {
    std::lock_guard<std::mutex> L(Mu);
    auto [It, New] = Values.emplace(Key, V);
    return New || It->second == V;
  }
  std::map<std::string, uint64_t> snapshot() const {
    std::lock_guard<std::mutex> L(Mu);
    return Values;
  }

private:
  mutable std::mutex Mu;
  std::map<std::string, uint64_t> Values;
};

double geomean(const std::vector<double> &Xs) {
  double LogSum = 0;
  for (double X : Xs)
    LogSum += std::log(X);
  return Xs.empty() ? 0.0 : std::exp(LogSum / static_cast<double>(Xs.size()));
}

/// Geomean over programs x machines of conventional over advanced
/// cycles, from the "<program>/<scheme>/<machine>" reference counts.
double geomeanSpeedup(const Reference &Ref,
                      const std::vector<std::string> &Progs,
                      const std::vector<std::string> &Machines) {
  std::map<std::string, uint64_t> C = Ref.snapshot();
  std::vector<double> Xs;
  for (const std::string &P : Progs)
    for (const std::string &M : Machines) {
      auto Conv = C.find(P + "/conventional/" + M);
      auto Adv = C.find(P + "/advanced/" + M);
      if (Conv != C.end() && Adv != C.end() && Adv->second)
        Xs.push_back(static_cast<double>(Conv->second) /
                     static_cast<double>(Adv->second));
    }
  return geomean(Xs);
}

double mean(const std::vector<double> &Xs) {
  double S = 0;
  for (double X : Xs)
    S += X;
  return Xs.empty() ? 0.0 : S / static_cast<double>(Xs.size());
}

const partition::Scheme AllSchemes[] = {partition::Scheme::None,
                                        partition::Scheme::Basic,
                                        partition::Scheme::Advanced};

/// Golden cycle counts keyed "<program>/<scheme>/<machine>", read from
/// the committed fig9/fig10 bench reports.
std::map<std::string, uint64_t> loadGoldens(const std::string &Root) {
  std::map<std::string, uint64_t> Out;
  for (const char *File : {"fig9_speedup_4way", "fig10_speedup_8way"}) {
    std::string Path = Root + "/scripts/golden/" + File + ".json";
    std::ifstream In(Path);
    if (!In)
      throw std::runtime_error("cannot read " + Path);
    std::stringstream SS;
    SS << In.rdbuf();
    json::Value Doc;
    std::string Err;
    if (!json::Value::parse(SS.str(), Doc, &Err))
      throw std::runtime_error(Path + ": " + Err);
    const json::Value *Runs = Doc.find("runs");
    if (!Runs || !Runs->isArray())
      throw std::runtime_error(Path + ": no runs");
    for (const json::Value &Run : Runs->items()) {
      const json::Value *M = Run.find("machine");
      const json::Value *St = Run.find("stats");
      if (!M || !St)
        throw std::runtime_error(Path + ": malformed run");
      std::string Key = Run.strOr("workload", "") + "/" +
                        Run.strOr("scheme", "") + "/" + M->strOr("name", "");
      uint64_t Cycles = static_cast<uint64_t>(St->numberOr("cycles", 0));
      auto [It, New] = Out.emplace(Key, Cycles);
      if (!New && It->second != Cycles)
        throw std::runtime_error("goldens disagree on " + Key);
    }
  }
  return Out;
}

//--- figures -----------------------------------------------------------===//

class FiguresWorkload : public Workload {
  struct Item {
    workloads::Workload W; ///< Each op owns its module: ops run in parallel.
    partition::Scheme Scheme;
  };
  std::vector<Item> Items;
  std::vector<timing::MachineConfig> Machines;
  std::map<std::string, uint64_t> Goldens;
  Reference Ref;
  std::mutex FpaMu;
  std::map<std::string, double> AdvFpaPct; ///< Program -> FPa share (%).

public:
  void setup(const Options &O) override {
    Items.clear();
    std::vector<std::string> Names;
    for (const workloads::Workload &W : workloads::intWorkloads())
      Names.push_back(W.Name);
    Names.push_back("ear");
    Names.push_back("swim");
    for (const std::string &N : Names)
      for (partition::Scheme S : AllSchemes)
        Items.push_back({workloads::workloadByName(N), S});
    Machines = {timing::MachineConfig::fourWay(),
                timing::MachineConfig::eightWay()};
    Goldens = loadGoldens(O.Root);
    if (O.CorruptGolden)
      Goldens.at("compress/advanced/4-way") += 1;
  }
  size_t passSize() const override { return Items.size(); }
  bool pooled() const override { return true; }
  std::vector<size_t> warmupOps() const override {
    std::vector<size_t> All(Items.size());
    for (size_t I = 0; I < All.size(); ++I)
      All[I] = I;
    return All;
  }

  void op(size_t Index, uint64_t, OpRecord &R) override {
    const Item &It = Items[Index];
    const std::string Prog = It.W.Name;
    const std::string Scheme = partition::schemeName(It.Scheme);
    core::PipelineRun Run = compileTraced(
        R, *It.W.M, configFor(It.Scheme, It.W.TrainArgs, It.W.RefArgs));
    if (!Run.ok()) {
      R.fail(Prog + "/" + Scheme + ": pipeline not ok: " +
             (Run.Errors.empty() ? "output mismatch" : Run.Errors[0]));
      return;
    }
    size_t N = 0;
    {
      SpanScope S(R, "vm.trace");
      N = Run.refTrace().size();
    }
    ++R.C.TraceCaptures;
    R.C.TraceInstrs += N;
    {
      SpanScope S(R, "timing.pack");
      Run.packedTrace();
    }
    for (const timing::MachineConfig &M : Machines) {
      timing::SimStats St = simulateTraced(R, Run, forScheme(M, It.Scheme));
      const std::string Key = Prog + "/" + Scheme + "/" + M.Name;
      if (St.Instructions != N)
        R.fail(Key + ": simulated " + std::to_string(St.Instructions) +
               " instructions of a " + std::to_string(N) + "-entry trace");
      auto G = Goldens.find(Key);
      if (!It.W.IsFloatingPoint &&
          (G == Goldens.end() || G->second != St.Cycles))
        R.fail(Key + ": " + std::to_string(St.Cycles) +
               " cycles, golden " +
               (G == Goldens.end() ? std::string("missing")
                                   : std::to_string(G->second)));
      if (!Ref.check(Key, St.Cycles))
        R.fail(Key + ": cycles differ from an earlier pass");
    }
    if (It.Scheme == partition::Scheme::Advanced) {
      std::lock_guard<std::mutex> L(FpaMu);
      AdvFpaPct[Prog] = 100.0 * Run.Stats.fpaFraction();
    }
  }

  double speedupGeomean() const override {
    std::vector<std::string> Progs, Names;
    for (const Item &It : Items)
      if (It.Scheme == partition::Scheme::Advanced)
        Progs.push_back(It.W.Name);
    for (const timing::MachineConfig &M : Machines)
      Names.push_back(M.Name);
    return geomeanSpeedup(Ref, Progs, Names);
  }
  double offloadPct() const override {
    std::vector<double> Xs;
    for (const auto &[Prog, Pct] : AdvFpaPct)
      Xs.push_back(Pct);
    return mean(Xs);
  }
};

//--- sweep -------------------------------------------------------------===//

class SweepWorkload : public Workload {
  struct Compiled {
    std::string Prog;
    partition::Scheme Scheme;
    core::PipelineRun Run;
    size_t TraceLen = 0;
  };
  struct Item {
    size_t Trace;
    size_t Point;
  };
  std::vector<Compiled> Traces;
  std::vector<campaign::MachinePoint> Grid;
  std::vector<Item> Items;
  Reference Ref;

public:
  void setup(const Options &) override {
    Traces.clear();
    Items.clear();
    Grid = campaign::exploreGrid("small");
    if (Grid.empty())
      throw std::runtime_error("exploreGrid(\"small\") is empty");
    for (workloads::Workload &W : workloads::intWorkloads())
      for (partition::Scheme S :
           {partition::Scheme::None, partition::Scheme::Advanced}) {
        Compiled C{W.Name, S,
                   core::compileAndMeasure(
                       *W.M, configFor(S, W.TrainArgs, W.RefArgs)),
                   0};
        if (!C.Run.ok())
          throw std::runtime_error(W.Name + ": pipeline not ok");
        C.TraceLen = C.Run.packedTrace().size();
        Traces.push_back(std::move(C));
      }
    for (size_t T = 0; T < Traces.size(); ++T)
      for (size_t P = 0; P < Grid.size(); ++P)
        Items.push_back({T, P});
  }
  size_t passSize() const override { return Items.size(); }
  bool pooled() const override { return true; }
  size_t setupTraces() const override { return Traces.size(); }
  /// One simulation per trace: the full 546-op pass would triple set-up.
  std::vector<size_t> warmupOps() const override {
    std::vector<size_t> Ops;
    for (size_t T = 0; T < Traces.size(); ++T)
      Ops.push_back(T * Grid.size());
    return Ops;
  }

  void op(size_t Index, uint64_t, OpRecord &R) override {
    const Item &It = Items[Index];
    const Compiled &C = Traces[It.Trace];
    const campaign::MachinePoint &P = Grid[It.Point];
    timing::SimStats St = simulateTraced(R, C.Run, forScheme(P.M, C.Scheme));
    const std::string Key =
        C.Prog + "/" + partition::schemeName(C.Scheme) + "/" + P.Label;
    if (St.Instructions != C.TraceLen)
      R.fail(Key + ": simulated " + std::to_string(St.Instructions) +
             " instructions of a " + std::to_string(C.TraceLen) +
             "-entry packed trace");
    if (!Ref.check(Key, St.Cycles))
      R.fail(Key + ": cycles differ from an earlier pass");
  }

  double speedupGeomean() const override {
    std::vector<std::string> Progs, Labels;
    for (const Compiled &T : Traces)
      if (T.Scheme == partition::Scheme::Advanced)
        Progs.push_back(T.Prog);
    for (const campaign::MachinePoint &P : Grid)
      Labels.push_back(P.Label);
    return geomeanSpeedup(Ref, Progs, Labels);
  }
  double offloadPct() const override {
    std::vector<double> Xs;
    for (const Compiled &T : Traces)
      if (T.Scheme == partition::Scheme::Advanced)
        Xs.push_back(100.0 * T.Run.Stats.fpaFraction());
    return mean(Xs);
  }
};

//--- fuzz --------------------------------------------------------------===//

class FuzzWorkload : public Workload {
  /// Ops per pass, one module per preset; modules are drawn from an
  /// unbounded seeded sequence (op I of pass P checks module
  /// P * PassOps + I, whose preset is I).
  const size_t PassOps = testgen::presetNames().size();
  /// Calibration modules for the headline numbers: two per preset, from
  /// a fixed seed, so they do not move with --seed. Calibrated after the
  /// window, so neither setup_s nor the ops pay for it.
  static constexpr uint64_t CalibrationSeed = 0x5eed;
  static constexpr unsigned CalibrationPerPreset = 2;
  /// Modules whose oracle compiles the traced run replays.
  static constexpr size_t ReplayModules = 28;

  uint64_t BaseSeed = 1;
  const testgen::OracleOptions Opts; ///< fpint-fuzz defaults.
  double Speedup = 0, Offload = 0;

  std::unique_ptr<sir::Module> module(uint64_t Index) const {
    const std::vector<std::string> &Presets = testgen::presetNames();
    return testgen::generateModule(
        testgen::presetConfig(Presets[Index % Presets.size()]),
        testgen::moduleSeed(BaseSeed, Index));
  }

  /// Conventional-vs-advanced cycles and FPa share of the calibration
  /// set on the 4-way machine.
  void calibrate() {
    const std::vector<std::string> &Presets = testgen::presetNames();
    std::vector<double> Speedups, Fpa;
    timing::MachineConfig M = timing::MachineConfig::fourWay();
    for (size_t P = 0; P < Presets.size(); ++P) {
      unsigned Found = 0;
      for (uint64_t I = 0; Found < CalibrationPerPreset && I < 64; ++I) {
        std::unique_ptr<sir::Module> Mod = testgen::generateModule(
            testgen::presetConfig(Presets[P]),
            testgen::moduleSeed(CalibrationSeed, I * Presets.size() + P));
        core::PipelineRun Conv = core::compileAndMeasure(
            *Mod, configFor(partition::Scheme::None, {}, {}));
        core::PipelineRun Adv = core::compileAndMeasure(
            *Mod, configFor(partition::Scheme::Advanced, {}, {}));
        if (!Conv.ok() || !Adv.ok() ||
            Conv.RefResult.Trap.Kind != vm::TrapKind::None)
          continue;
        timing::SimStats C =
            core::simulate(Conv, forScheme(M, partition::Scheme::None));
        timing::SimStats A = core::simulate(Adv, M);
        Speedups.push_back(core::speedup(C, A));
        Fpa.push_back(100.0 * Adv.Stats.fpaFraction());
        ++Found;
      }
    }
    if (Speedups.empty())
      throw std::runtime_error("no usable calibration module");
    Speedup = geomean(Speedups);
    Offload = mean(Fpa);
  }

public:
  void setup(const Options &O) override { BaseSeed = O.Seed; }
  void finish() override { calibrate(); }
  size_t passSize() const override { return PassOps; }
  bool pooled() const override { return false; }
  /// One module per preset.
  std::vector<size_t> warmupOps() const override {
    std::vector<size_t> Ops(PassOps);
    for (size_t I = 0; I < Ops.size(); ++I)
      Ops[I] = I;
    return Ops;
  }

  void op(size_t Index, uint64_t Pass, OpRecord &R) override {
    const uint64_t ModIndex = Pass * PassOps + Index;
    std::unique_ptr<sir::Module> M;
    {
      SpanScope S(R, "testgen.generate");
      M = module(ModIndex);
    }
    // Child -> parent payload: "<start ms> <end ms> <dyn instrs>
    // <skipped 0|1>", then one mismatch per line.
    support::SandboxLimits Limits;
    Limits.WallMs = 10000;
    Limits.KillGraceMs = 300;
    Limits.AddressSpaceMb = 4096;
    support::TaskResult TR;
    {
      SpanScope S(R, "support.sandbox");
      TR = support::Subprocess::run(
          [&](int Fd) {
            double Start = nowMs();
            sir::VerifyOptions Strict;
            Strict.CheckDataflow = true;
            std::vector<std::string> Diags = sir::verify(*M, Strict);
            testgen::OracleReport Rep;
            if (Diags.empty())
              Rep = testgen::runOracle(*M, Opts);
            else
              Rep.Mismatches.push_back("generator bug: " + Diags.front());
            char Head[128];
            std::snprintf(Head, sizeof(Head), "%.6f %.6f %llu %d\n", Start,
                          nowMs(),
                          static_cast<unsigned long long>(
                              Rep.BaselineDynInstrs),
                          Rep.BaselineSkipped ? 1 : 0);
            std::string Payload = Head;
            for (const std::string &Mm : Rep.Mismatches)
              Payload += Mm + "\n";
            return support::Subprocess::writeAll(Fd, Payload) ? 0 : 2;
          },
          Limits);
      ++R.C.Spawns;
      double OStart = 0, OEnd = 0;
      unsigned long long Dyn = 0;
      int Skipped = 0;
      if (TR.ok() && std::sscanf(TR.Payload.c_str(), "%lf %lf %llu %d",
                                 &OStart, &OEnd, &Dyn, &Skipped) == 4) {
        R.addChild(S.id(), "testgen.oracle", OStart, OEnd);
        R.C.DynInstrs += Dyn;
        size_t Nl = TR.Payload.find('\n');
        std::string Rest =
            Nl == std::string::npos ? "" : TR.Payload.substr(Nl + 1);
        if (!Rest.empty())
          R.fail("module " + std::to_string(ModIndex) + ": " +
                 Rest.substr(0, Rest.find('\n')));
        else if (Skipped) {
          R.Status = OpStatus::Skipped;
          ++R.C.Skipped;
        }
        return;
      }
    }
    R.fail("module " + std::to_string(ModIndex) + ": sandbox " +
           TR.describe());
  }

  double speedupGeomean() const override { return Speedup; }
  double offloadPct() const override { return Offload; }

  /// runOracle keeps its compiles' PassStat rows to itself, so the
  /// traced run repeats the default variants' compiles of the first
  /// modules in-process, after the window, to attribute pass time on
  /// this workload.
  void replay(std::vector<OpRecord> &Out) override {
    std::vector<testgen::VariantSpec> Variants = testgen::defaultVariants();
    for (size_t I = 0; I < ReplayModules; ++I) {
      std::unique_ptr<sir::Module> M = module(I);
      OpRecord R;
      R.Trace = true;
      runOp(R, [&](OpRecord &R) {
        for (const testgen::VariantSpec &V : Variants) {
          core::PipelineConfig Cfg = V.Config;
          Cfg.TrainArgs = Opts.Args;
          Cfg.RefArgs = Opts.Args;
          compileTraced(R, *M, Cfg);
        }
      });
      Out.push_back(std::move(R));
    }
  }
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "figures")
    return std::make_unique<FiguresWorkload>();
  if (Name == "fuzz")
    return std::make_unique<FuzzWorkload>();
  if (Name == "sweep")
    return std::make_unique<SweepWorkload>();
  return nullptr;
}

//===----------------------------------------------------------------------===//
// The timed loop.
//===----------------------------------------------------------------------===//

/// Runs \p Indices of pass \p Pass, on the pool when the workload is
/// pooled, and appends the records in completion-independent order.
void runPass(Workload &W, const std::vector<size_t> &Indices, uint64_t Pass,
             bool Trace, std::vector<OpRecord> &Out) {
  if (!W.pooled()) {
    for (size_t I : Indices) {
      OpRecord R;
      R.Item = I;
      R.Trace = Trace;
      R.Submit = nowMs();
      runOp(R, [&](OpRecord &R) { W.op(I, Pass, R); });
      Out.push_back(std::move(R));
    }
    return;
  }
  support::ThreadPool &Pool = support::ThreadPool::global();
  std::vector<std::future<OpRecord>> Pending;
  Pending.reserve(Indices.size());
  for (size_t I : Indices) {
    double Submit = nowMs();
    Pending.push_back(Pool.submit([&W, I, Pass, Trace, Submit] {
      OpRecord R;
      R.Item = I;
      R.Trace = Trace;
      R.Submit = Submit;
      runOp(R, [&](OpRecord &R) { W.op(I, Pass, R); });
      return R;
    }));
  }
  for (std::future<OpRecord> &F : Pending)
    Out.push_back(F.get());
}

struct Usage {
  double UserMs = 0, SysMs = 0;
  long MinFlt = 0;
};

Usage usage() {
  Usage U;
  for (int Who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
    rusage RU{};
    getrusage(Who, &RU);
    U.UserMs += RU.ru_utime.tv_sec * 1e3 + RU.ru_utime.tv_usec / 1e3;
    U.SysMs += RU.ru_stime.tv_sec * 1e3 + RU.ru_stime.tv_usec / 1e3;
    U.MinFlt += RU.ru_minflt;
  }
  return U;
}

long maxRssKb(int Who) {
  rusage RU{};
  getrusage(Who, &RU);
  return RU.ru_maxrss;
}

json::Value counters(const std::vector<OpRecord> &Ops) {
  Counters C;
  for (const OpRecord &R : Ops)
    C.add(R.C);
  json::Value V = json::Value::object();
  V.set("compile_calls", C.CompileCalls);
  V.set("pass_changes", C.PassChanges);
  V.set("analysis_hits", C.AnalysisHits);
  V.set("analysis_misses", C.AnalysisMisses);
  V.set("trace_instrs", C.TraceInstrs);
  V.set("trace_captures", C.TraceCaptures);
  V.set("sim_calls", C.SimCalls);
  V.set("sim_cycles", C.SimCycles);
  V.set("spawns", C.Spawns);
  V.set("dyn_instrs", C.DynInstrs);
  V.set("skipped", C.Skipped);
  return V;
}

/// Spans as [op, index, parent, name, start ms, end ms].
json::Value spans(const std::vector<OpRecord> &Ops) {
  json::Value V = json::Value::array();
  for (size_t Op = 0; Op < Ops.size(); ++Op)
    for (size_t I = 0; I < Ops[Op].Spans.size(); ++I) {
      const Span &S = Ops[Op].Spans[I];
      json::Value Row = json::Value::array();
      Row.push(Op);
      Row.push(I);
      Row.push(S.Parent);
      Row.push(S.Name);
      Row.push(S.Start);
      Row.push(S.End);
      V.push(std::move(Row));
    }
  return V;
}

int usageError(const char *Msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "figures|fuzz|sweep --root DIR --out FILE [--seed N] "
               "[--seconds S] [--trace 0|1] [--corrupt-golden]\n",
               Msg);
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int A = 1; A < Argc; ++A) {
    std::string Arg = Argv[A];
    auto Next = [&]() -> const char * {
      return A + 1 < Argc ? Argv[++A] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--corrupt-golden") {
      O.CorruptGolden = true;
      continue;
    }
    if (!(V = Next()))
      return usageError(("missing value for " + Arg).c_str());
    if (Arg == "--workload")
      O.Workload = V;
    else if (Arg == "--root")
      O.Root = V;
    else if (Arg == "--out")
      O.Out = V;
    else if (Arg == "--seed")
      O.Seed = std::strtoull(V, nullptr, 10);
    else if (Arg == "--seconds")
      O.Seconds = std::atof(V);
    else if (Arg == "--trace")
      O.Trace = std::atoi(V) != 0;
    else
      return usageError(("unknown argument " + Arg).c_str());
  }
  if (O.Root.empty() || O.Out.empty())
    return usageError("--root and --out are required");
  for (const char *E : ForbiddenEnv)
    if (const char *Val = std::getenv(E); Val && *Val) {
      std::fprintf(stderr,
                   "perfbench_driver: refusing to run with %s set; it "
                   "changes results or cost\n",
                   E);
      return 2;
    }
  std::unique_ptr<Workload> W = makeWorkload(O.Workload);
  if (!W)
    return usageError(("unknown workload '" + O.Workload + "'").c_str());

  // Set-up, repeated: the first repetition runs from process start.
  std::vector<double> SetupS;
  std::vector<OpRecord> Scratch;
  try {
    double RepStart = 0;
    for (unsigned Rep = 0;
         Rep < MinSetupReps ||
         (Rep < MaxSetupReps && RepStart / 1e3 < SetupBudgetS);
         ++Rep) {
      W->setup(O);
      // Warm-up verdicts are not counted: the timed ops repeat them.
      Scratch.clear();
      runPass(*W, W->warmupOps(), 0, false, Scratch);
      double End = nowMs();
      SetupS.push_back((End - RepStart) / 1e3);
      RepStart = End;
    }
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench_driver: set-up failed: %s\n", E.what());
    return 1;
  }

  // The timed window: whole passes until --seconds have passed and
  // enough ops completed for the tail percentile.
  std::vector<OpRecord> Ops;
  const Usage U0 = usage();
  const double WinStart = nowMs();
  double Elapsed = 0;
  for (uint64_t Pass = 0;; ++Pass) {
    runPass(*W, permutation(W->passSize(), O.Seed, Pass), Pass, O.Trace, Ops);
    Elapsed = (nowMs() - WinStart) / 1e3;
    if ((Elapsed >= O.Seconds && Ops.size() >= MinOps) ||
        Elapsed >= HardCapSeconds)
      break;
  }
  const Usage U1 = usage();

  try {
    W->finish();
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench_driver: finish failed: %s\n", E.what());
    return 1;
  }
  std::vector<OpRecord> Replay;
  if (O.Trace)
    W->replay(Replay);

  json::Value Doc = json::Value::object();
  Doc.set("workload", O.Workload);
  Doc.set("seed", O.Seed);
  Doc.set("trace", O.Trace);
  Doc.set("jobs",
          W->pooled() ? support::ThreadPool::global().threadCount() : 1u);
  json::Value Setup = json::Value::array();
  for (double S : SetupS)
    Setup.push(S);
  Doc.set("setup_s", std::move(Setup));
  Doc.set("window_s", Elapsed);
  json::Value Use = json::Value::object();
  Use.set("user_ms", U1.UserMs - U0.UserMs);
  Use.set("sys_ms", U1.SysMs - U0.SysMs);
  Use.set("minflt", static_cast<int64_t>(U1.MinFlt - U0.MinFlt));
  Use.set("maxrss_kb_self", static_cast<int64_t>(maxRssKb(RUSAGE_SELF)));
  Use.set("maxrss_kb_children",
          static_cast<int64_t>(maxRssKb(RUSAGE_CHILDREN)));
  Doc.set("usage", std::move(Use));
  Doc.set("counters", counters(Ops));
  Doc.set("replay_counters", counters(Replay));
  Doc.set("setup_traces", W->setupTraces());
  Doc.set("speedup_geomean", W->speedupGeomean());
  Doc.set("offload_pct", W->offloadPct());
  // Ops: [submit, start, end, status (0 ok, 1 failed, 2 skipped), item].
  json::Value OpRows = json::Value::array();
  json::Value Failures = json::Value::array();
  for (const OpRecord &R : Ops) {
    json::Value Row = json::Value::array();
    Row.push(R.Submit);
    Row.push(R.Start);
    Row.push(R.End);
    Row.push(static_cast<int>(R.Status));
    Row.push(R.Item);
    OpRows.push(std::move(Row));
    if (R.Status == OpStatus::Failed && Failures.size() < 20)
      Failures.push(R.Failure);
  }
  Doc.set("ops", std::move(OpRows));
  Doc.set("failures", std::move(Failures));
  Doc.set("spans", spans(Ops));
  Doc.set("replay_spans", spans(Replay));
  Doc.set("replay_units", Replay.size());

  std::ofstream Out(O.Out);
  Out << Doc.dump() << "\n";
  Out.close();
  if (!Out) {
    std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                 O.Out.c_str());
    return 1;
  }
  return 0;
}
