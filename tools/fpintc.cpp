//===- tools/fpintc.cpp - Command-line driver ------------------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// fpintc: the repository's command-line front end. Reads a .sir
/// program (or a named built-in workload), runs the offload pipeline,
/// and prints whatever the user asks for: the partitioned assembly, a
/// Graphviz dot dump of a function's partitioned RDG, functional run
/// output, partition statistics, and cycle-level simulation results.
///
///   fpintc prog.sir --scheme=advanced --print --simulate=4way
///   fpintc @m88ksim --scheme=basic --stats
///   fpintc prog.sir --dot=main > rdg.dot
///   fpintc prog.sir --run --args=5,10
///
//===----------------------------------------------------------------------===//

#include "analysis/CFG.h"
#include "analysis/RDG.h"
#include "core/PassManager.h"
#include "core/Pipeline.h"
#include "partition/AdvancedPartitioner.h"
#include "partition/BasicPartitioner.h"
#include "partition/DotExport.h"
#include "sir/Parser.h"
#include "sir/Printer.h"
#include "support/ParseNumber.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

using namespace fpint;

namespace {

void usage() {
  std::fprintf(
      stderr,
      "usage: fpintc <file.sir | @workload> [options]\n"
      "\n"
      "input:\n"
      "  file.sir             program in sir assembly\n"
      "  @name                built-in workload (@compress, @gcc, @go,\n"
      "                       @ijpeg, @li, @m88ksim, @perl, @ear, @swim, @tomcatv)\n"
      "\n"
      "pipeline options:\n"
      "  --scheme=S           none | basic | advanced (default advanced)\n"
      "  --ocopy=N            copy overhead o_copy (default 4.0)\n"
      "  --odupl=N            duplication overhead o_dupl (default 2.5)\n"
      "  --fpa-cap=F          load-balance cap on the FPa share (6.6)\n"
      "  --args=a,b           main() arguments for measurement runs\n"
      "  --train-args=a,b     main() arguments for the profiling run\n"
      "  --passes=TEXT        explicit pass pipeline (comma-separated\n"
      "                       pass names or the opt2 mid-end preset;\n"
      "                       see docs/PASSES.md and\n"
      "                       docs/TRANSFORMS.md; overrides $FPINT_PASSES;\n"
      "                       default opt,profile,partition,regalloc)\n"
      "\n"
      "outputs:\n"
      "  --print              partitioned assembly\n"
      "  --dot=FUNC           Graphviz dot of FUNC's partitioned RDG\n"
      "  --run                execute and print the output stream\n"
      "  --stats              partition statistics (Figure 8 metrics)\n"
      "  --simulate=M         cycle simulation: 4way | 8way (Figure 9/10)\n"
      "  --trace=N            dump the first N dynamic trace entries\n"
      "  --print-after=PASS   dump the module after PASS to stderr\n"
      "  --time-passes        per-pass wall-clock / change table to\n"
      "                       stderr\n");
}

bool parseIntList(const std::string &Text, std::vector<int32_t> &Out) {
  Out.clear();
  if (Text.empty())
    return true;
  std::stringstream In(Text);
  std::string Item;
  while (std::getline(In, Item, ',')) {
    int32_t V;
    if (!support::parseNumber(Item.c_str(), INT32_MIN, INT32_MAX, V))
      return false;
    Out.push_back(V);
  }
  return true;
}

} // namespace

int main(int argc, char **argv) {
  if (argc < 2) {
    usage();
    return 2;
  }

  std::string Input;
  partition::Scheme Scheme = partition::Scheme::Advanced;
  partition::CostParams Costs;
  bool DoPrint = false, DoRun = false, DoStats = false;
  bool TimePasses = false;
  unsigned TraceCount = 0;
  std::string DotFunc, SimMachine, Passes, PrintAfter;
  std::vector<int32_t> Args, TrainArgs;
  bool TrainArgsSet = false;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto Value = [&](const char *Prefix) -> const char * {
      size_t Len = std::strlen(Prefix);
      if (Arg.compare(0, Len, Prefix) == 0)
        return Arg.c_str() + Len;
      return nullptr;
    };
    if (Arg == "--help" || Arg == "-h") {
      usage();
      return 0;
    }
    if (Arg == "--print") {
      DoPrint = true;
    } else if (Arg == "--run") {
      DoRun = true;
    } else if (Arg == "--stats") {
      DoStats = true;
    } else if (Arg == "--time-passes") {
      TimePasses = true;
    } else if (const char *V = Value("--scheme=")) {
      if (!std::strcmp(V, "none"))
        Scheme = partition::Scheme::None;
      else if (!std::strcmp(V, "basic"))
        Scheme = partition::Scheme::Basic;
      else if (!std::strcmp(V, "advanced"))
        Scheme = partition::Scheme::Advanced;
      else {
        std::fprintf(stderr, "fpintc: unknown scheme '%s'\n", V);
        return 2;
      }
    } else if (const char *V = Value("--ocopy=")) {
      Costs.CopyOverhead = support::flagNumber<double>("fpintc", "--ocopy", V);
    } else if (const char *V = Value("--odupl=")) {
      Costs.DupOverhead = support::flagNumber<double>("fpintc", "--odupl", V);
    } else if (const char *V = Value("--fpa-cap=")) {
      Costs.FpaShareCap =
          support::flagNumber("fpintc", "--fpa-cap", V, 0.0, 1.0);
    } else if (const char *V = Value("--passes=")) {
      Passes = V;
    } else if (const char *V = Value("--print-after=")) {
      PrintAfter = V;
    } else if (const char *V = Value("--dot=")) {
      DotFunc = V;
    } else if (const char *V = Value("--simulate=")) {
      SimMachine = V;
    } else if (const char *V = Value("--trace=")) {
      TraceCount = support::flagNumber<unsigned>("fpintc", "--trace", V);
    } else if (const char *V = Value("--args=")) {
      if (!parseIntList(V, Args)) {
        std::fprintf(stderr, "fpintc: bad --args list\n");
        return 2;
      }
    } else if (const char *V = Value("--train-args=")) {
      if (!parseIntList(V, TrainArgs)) {
        std::fprintf(stderr, "fpintc: bad --train-args list\n");
        return 2;
      }
      TrainArgsSet = true;
    } else if (Arg.size() && Arg[0] == '-') {
      std::fprintf(stderr, "fpintc: unknown option '%s'\n", Arg.c_str());
      return 2;
    } else if (Input.empty()) {
      Input = Arg;
    } else {
      std::fprintf(stderr, "fpintc: multiple inputs\n");
      return 2;
    }
  }
  if (Input.empty()) {
    usage();
    return 2;
  }

  // Load the program.
  std::unique_ptr<sir::Module> M;
  if (Input[0] == '@') {
    workloads::Workload W = workloads::workloadByName(Input.substr(1));
    M = std::move(W.M);
    if (Args.empty())
      Args = W.RefArgs;
    if (!TrainArgsSet)
      TrainArgs = W.TrainArgs;
  } else {
    std::ifstream In(Input);
    if (!In) {
      std::fprintf(stderr, "fpintc: cannot open '%s'\n", Input.c_str());
      return 1;
    }
    std::stringstream Buf;
    Buf << In.rdbuf();
    sir::ParseResult PR = sir::parseModule(Buf.str());
    if (!PR.ok()) {
      std::fprintf(stderr, "%s:%u: error: %s\n", Input.c_str(), PR.Line,
                   PR.Error.c_str());
      return 1;
    }
    M = std::move(PR.M);
  }
  if (!TrainArgsSet && Input[0] != '@')
    TrainArgs = Args;

  // Standalone dot dump works directly off the partitioner, before
  // rewriting, so node identities match the input program.
  if (!DotFunc.empty()) {
    sir::Function *F = M->functionByName(DotFunc);
    if (!F) {
      std::fprintf(stderr, "fpintc: no function '%s'\n", DotFunc.c_str());
      return 1;
    }
    F->renumber();
    analysis::CFG Cfg(*F);
    analysis::RDG G(*F, Cfg);
    if (Scheme == partition::Scheme::None) {
      std::fputs(partition::toDot(G).c_str(), stdout);
      return 0;
    }
    const std::string CostError = partition::costParamsError(Costs);
    if (Scheme == partition::Scheme::Advanced && !CostError.empty()) {
      std::fprintf(stderr, "fpintc: error: partition: %s\n",
                   CostError.c_str());
      return 1;
    }
    analysis::BlockWeights Weights(*M, nullptr);
    partition::Assignment A =
        Scheme == partition::Scheme::Basic
            ? partition::partitionBasic(G)
            : partition::partitionAdvanced(G, Weights, Costs);
    std::fputs(partition::toDot(G, &A).c_str(), stdout);
    return 0;
  }

  core::PipelineConfig Cfg;
  Cfg.Scheme = Scheme;
  Cfg.Costs = Costs;
  Cfg.TrainArgs = TrainArgs;
  Cfg.RefArgs = Args;
  if (!Passes.empty()) {
    // Validate up front for a friendly diagnostic; compileAndMeasure
    // re-parses the same text.
    std::vector<std::unique_ptr<core::ModulePass>> Parsed;
    std::string ParseError;
    if (!core::parsePipeline(Passes, Parsed, ParseError)) {
      std::fprintf(stderr, "fpintc: bad --passes: %s\n", ParseError.c_str());
      return 2;
    }
    Cfg.Passes = Passes;
  }
  if (!PrintAfter.empty())
    setenv("FPINT_PRINT_AFTER", PrintAfter.c_str(), 1);
  core::PipelineRun Run = core::compileAndMeasure(*M, Cfg);
  if (TimePasses) {
    Table T({"pass", "wall ms", "changes"});
    for (const core::PassStat &P : Run.PassStats)
      T.addRow({P.Name, Table::fmt(P.WallMs, 3), std::to_string(P.Changes)});
    T.print(stderr);
  }
  if (!Run.ok()) {
    for (const std::string &E : Run.Errors)
      std::fprintf(stderr, "fpintc: error: %s\n", E.c_str());
    if (Run.Errors.empty())
      std::fprintf(stderr, "fpintc: error: output mismatch\n");
    return 1;
  }

  if (DoPrint)
    std::fputs(sir::toString(*Run.Compiled).c_str(), stdout);
  if (DoRun) {
    std::printf("exit value: %d\noutput:", Run.RefResult.ExitValue);
    for (int32_t V : Run.RefResult.Output)
      std::printf(" %d", V);
    std::printf("\n(%llu dynamic instructions)\n",
                static_cast<unsigned long long>(Run.RefResult.Steps));
  }
  if (DoStats) {
    std::printf("scheme:            %s\n", partition::schemeName(Scheme));
    std::printf("dynamic instrs:    %llu\n",
                static_cast<unsigned long long>(Run.Stats.Total));
    std::printf("offloaded to FPa:  %.2f%%\n",
                100.0 * Run.Stats.fpaFraction());
    std::printf("copy overhead:     %.2f%%\n",
                100.0 * Run.Stats.copyFraction());
    std::printf("dup overhead:      %.2f%%\n",
                100.0 * Run.Stats.dupFraction());
    std::printf("loads / stores:    %llu / %llu\n",
                static_cast<unsigned long long>(Run.Stats.Loads),
                static_cast<unsigned long long>(Run.Stats.Stores));
    std::printf("static copies/dups/copy-backs: %u / %u / %u\n",
                Run.Rewrite.StaticCopies, Run.Rewrite.StaticDups,
                Run.Rewrite.StaticCopyBacks);
  }
  if (TraceCount > 0) {
    vm::VM::Options TraceOpts;
    TraceOpts.CollectTrace = true;
    vm::VM Machine(*Run.Compiled, TraceOpts);
    auto TR = Machine.run(Args);
    if (!TR.Ok) {
      std::fprintf(stderr, "fpintc: trace run failed: %s\n",
                   TR.Error.c_str());
      return 1;
    }
    std::printf("# pc        instruction%*s taken/addr\n", 24, "");
    size_t Limit = std::min<size_t>(TraceCount, Machine.trace().size());
    for (size_t T = 0; T < Limit; ++T) {
      const vm::TraceEntry &TE = Machine.trace()[T];
      std::string Text = sir::toString(*TE.I);
      std::printf("%08x  %-34s", TE.Pc, Text.c_str());
      if (TE.I->isCondBranch())
        std::printf("  %s", TE.Taken ? "taken" : "not-taken");
      else if (TE.I->isLoad() || TE.I->isStore())
        std::printf("  @%08x", TE.MemAddr);
      std::printf("\n");
    }
    std::printf("... (%zu entries total)\n", Machine.trace().size());
  }
  if (!SimMachine.empty()) {
    timing::MachineConfig Machine = SimMachine == "8way"
                                        ? timing::MachineConfig::eightWay()
                                        : timing::MachineConfig::fourWay();
    if (Scheme == partition::Scheme::None)
      Machine.FpaEnabled = false;
    timing::SimStats S;
    try {
      S = core::simulate(Run, Machine);
    } catch (const std::invalid_argument &E) {
      std::fprintf(stderr, "fpintc: error: %s\n", E.what());
      return 1;
    }
    std::printf("machine:           %s%s\n", Machine.Name,
                Machine.FpaEnabled ? " (augmented)" : " (conventional)");
    std::printf("cycles:            %llu\n",
                static_cast<unsigned long long>(S.Cycles));
    std::printf("IPC:               %.2f\n", S.ipc());
    std::printf("branch accuracy:   %.2f%%\n", 100.0 * S.branchAccuracy());
    std::printf("int/fp issued:     %llu / %llu\n",
                static_cast<unsigned long long>(S.IntIssued),
                static_cast<unsigned long long>(S.FpIssued));
    std::printf("int idle|fpa busy: %.2f%%\n",
                100.0 * S.intIdleWhileFpBusy());
    std::printf("dcache misses:     %llu\n",
                static_cast<unsigned long long>(S.DCacheMisses));
  }
  return 0;
}
