//===- bench/sec4_slice_profile.cpp - Section 4 slice accounting ----------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 4 motivates the greedy partitioning goal with a slice
/// census: "the LdSt slices of integer programs account for close to
/// 50% of all dynamic instructions executed. This puts an upper bound
/// on the size of the FPa partition." This harness reproduces that
/// census: for each benchmark it weighs every RDG node by its block's
/// execution count and classifies the dynamic instruction stream into
///
///   ldst slice      -- feeds a load/store address (pinned to INT),
///   memory ops      -- the loads/stores themselves (INT's LSU),
///   call/ret pinned -- calling-convention-pinned work,
///   unsupported     -- multiply/divide and other non-FPa opcodes,
///   offloadable     -- everything else (branch and store-value slices),
///
/// and prints the implied upper bound next to what the advanced scheme
/// actually achieves.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "analysis/CFG.h"
#include "analysis/RDG.h"
#include "partition/Assignment.h"
#include "support/Table.h"
#include "vm/VM.h"

#include <unordered_set>

using namespace fpint;

int main(int argc, char **argv) {
  bench::ScopedBenchReport Report("sec4_slice_profile", argc, argv);
  std::printf("Section 4: dynamic slice census and the FPa upper bound\n\n");

  Table T({"benchmark", "ldst slice", "mem ops", "call/ret", "unsupported",
           "offloadable bound", "advanced achieves"});

  std::vector<workloads::Workload> Ws = workloads::intWorkloads();
  bench::runMatrix(Ws, T, [&](const workloads::Workload &W) {
    // The census renumber()s functions before building RDGs; analyze a
    // private clone so the shared workload module is never mutated and
    // the rows can run concurrently with the other matrix tasks.
    std::unique_ptr<sir::Module> M = W.M->clone();
    M->renumber();

    // Profile the original (unpartitioned) program on the ref input.
    vm::VM::Options Opts;
    Opts.CollectProfile = true;
    vm::VM Machine(*M, Opts);
    auto R = Machine.run(W.RefArgs);
    if (!R.Ok)
      throw bench::CompileError("ref run failed for " + W.Name);

    double Total = 0, LdSt = 0, MemOps = 0, CallRet = 0, Unsupported = 0;
    for (const auto &F : M->functions()) {
      analysis::CFG Cfg(*F);
      analysis::RDG G(*F, Cfg);
      std::vector<bool> Slice = G.ldstSlice();

      // Classify each *instruction* once (not per split node).
      F->forEachInstr([&](const sir::Instruction &I) {
        double N = static_cast<double>(
            Machine.profile().countOf(I.parent()));
        if (N == 0)
          return;
        Total += N;
        if (I.isLoad() || I.isStore()) {
          MemOps += N;
          return;
        }
        if (I.op() == sir::Opcode::Call || I.op() == sir::Opcode::Ret ||
            I.op() == sir::Opcode::Jump) {
          CallRet += N;
          return;
        }
        unsigned Node = G.primaryNode(I);
        if (Node != ~0u && Slice[Node]) {
          LdSt += N;
          return;
        }
        if (!sir::fpaSupports(I.op()) && I.op() != sir::Opcode::Out) {
          Unsupported += N;
          return;
        }
      });
    }
    double Bound = 1.0 - (LdSt + MemOps + CallRet + Unsupported) / Total;

    core::PipelineRun Adv =
        bench::compileWorkload(W, partition::Scheme::Advanced);
    return bench::MatrixRows{
        {W.Name, Table::pct(LdSt / Total), Table::pct(MemOps / Total),
         Table::pct(CallRet / Total), Table::pct(Unsupported / Total),
         Table::pct(Bound), Table::pct(Adv.Stats.fpaFraction())}};
  });
  T.print();
  std::printf(
      "\nPaper (citing Palacharla & Smith): LdSt slices plus the memory "
      "operations\nthemselves approach ~50%% of dynamic instructions, "
      "bounding the FPa partition;\ncalling conventions and communication "
      "costs reduce achievable offload further.\n");
  return bench::harnessExit();
}
