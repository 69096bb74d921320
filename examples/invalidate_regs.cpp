//===- examples/invalidate_regs.cpp - The paper's Figures 3-6 example -----===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's running example: invalidate_for_call from gcc (Figure 3),
/// partitioned three ways:
///
///  * basic scheme (Figure 4): only the reg_tick increment component
///    moves; the branch slices through regno stay INT because regno
///    also feeds addresses;
///  * advanced scheme (Figures 5/6): copies or duplicates of the regno
///    chain free the branch slices to execute in FPa.
///
/// The example prints all three variants and the offload statistics so
/// the reader can line them up against the paper's figures.
///
//===----------------------------------------------------------------------===//

#include "core/Pipeline.h"
#include "sir/Parser.h"
#include "sir/Printer.h"

#include <cstdio>

using namespace fpint;

namespace {

// The Figure 3 program (same fixture the test suite uses).
const char *InvalidateForCall = R"(
global regs_invalidated_by_call 1 = 151065093
global reg_tick 66 = -3 5 0 -1 2 9 -2 4 1 0 7 -5 3 3 -9 2
global deleted_count 1

func delete_equiv_reg(%regno) {
entry:
  lw %c, deleted_count
  addi %c1, %c, 1
  sw %c1, deleted_count
  ret
}

func main() {
entry:
  li %regno, 0                              # I1
loop:
  lw %mask, regs_invalidated_by_call        # I2
  srav %bit, %mask, %regno                  # I3
  andi %b1, %bit, 1                         # I4
  beq %b1, %zero, skip                      # I5
  move %arg, %regno                         # I6
  call delete_equiv_reg(%arg)               # I7
  la %base, reg_tick                        # I8
  sll %idx, %regno, 2                       # I9
  add %ea, %base, %idx                      # I10
  lw %tick, 0(%ea)                          # I11
  bltz %tick, skip                          # I12
  addi %tick1, %tick, 1                     # I13
  sw %tick1, 0(%ea)                         # I14
skip:
  addi %regno, %regno, 1                    # I15
  slti %t, %regno, 66                       # I16
  bne %t, %zero, loop                       # I17
  lw %dc, deleted_count
  out %dc
  ret
}
)";

void show(const char *Title, partition::Scheme S) {
  sir::ParseResult PR = sir::parseModule(InvalidateForCall);
  if (!PR.ok()) {
    std::fprintf(stderr, "parse error: %s\n", PR.Error.c_str());
    std::exit(1);
  }
  core::PipelineConfig Cfg;
  Cfg.Scheme = S;
  Cfg.Passes = "opt,profile,partition"; // No regalloc: close to Fig 4-6.
  core::PipelineRun Run = core::compileAndMeasure(*PR.M, Cfg);
  if (!Run.ok()) {
    std::fprintf(stderr, "pipeline failed for %s\n",
                 partition::schemeName(S));
    std::exit(1);
  }
  std::printf("=== %s ===\n%s", Title,
              sir::toString(*Run.Compiled->functionByName("main")).c_str());
  std::printf("offloaded: %.1f%% of dynamic instructions; copies+dups "
              "inserted: %u; outputs match: %s\n\n",
              100.0 * Run.Stats.fpaFraction(),
              Run.Rewrite.StaticCopies + Run.Rewrite.StaticDups +
                  Run.Rewrite.StaticCopyBacks,
              Run.OutputsMatchOriginal ? "yes" : "NO");
}

} // namespace

int main() {
  show("Figure 3: conventional code", partition::Scheme::None);
  show("Figure 4: basic partitioning (reg_tick component only)",
       partition::Scheme::Basic);
  show("Figures 5/6: advanced partitioning (regno duplicated/copied)",
       partition::Scheme::Advanced);
  return 0;
}
