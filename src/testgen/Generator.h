//===- testgen/Generator.h - Seeded random sir module generator -----------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Generates random but well-formed sir modules for differential testing
/// of the partitioning pipeline. Every generated module satisfies, by
/// construction:
///
///  * it passes sir::verify including the strict dataflow check (no use
///    of a register without a definition on every path);
///  * it terminates: all loop backedges belong to counted do-while loops
///    over fresh counter registers, conditional forward branches form
///    structured diamonds, and the call graph is acyclic;
///  * it runs at most MaxModuleSteps dynamic instructions: every
///    function's steps are bounded bottom-up as it is generated, and a
///    call or loop that would pass the cap is refused or shortened;
///  * every memory access is in bounds: addresses are either constant
///    offsets into a global or index computations masked to the
///    (power-of-two) global size;
///  * main takes no arguments, helpers take at most 3 (the register
///    allocator's argument-register limit is 4).
///
/// Generation is a pure function of (GenConfig, Seed): the same pair
/// reproduces the same module bit-for-bit on every platform, which is
/// what makes fuzzing failures replayable from a single integer.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_TESTGEN_GENERATOR_H
#define FPINT_TESTGEN_GENERATOR_H

#include "sir/IR.h"

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace fpint {
namespace testgen {

/// The most dynamic instructions (VM steps) a generated module runs:
/// the trace length the fuzz oracle keeps in memory (1.5 MiB of trace
/// entries). A module whose unconstrained bound fits is generated
/// exactly as it would be without the cap.
constexpr uint64_t MaxModuleSteps = 65536;

/// Knobs for the shape and opcode mix of generated modules. All
/// probabilities are percentages; weights are relative.
struct GenConfig {
  // --- Program shape -----------------------------------------------------
  unsigned NumHelpers = 2;     ///< Callable helper functions (acyclic).
  unsigned MaxFormals = 3;     ///< Per-helper formal parameters (<= 3).
  unsigned NumGlobals = 2;     ///< Global arrays (power-of-two sized).
  unsigned MaxGlobalWords = 32;///< Upper bound on global size in words.

  // --- Control flow ------------------------------------------------------
  unsigned MainRegionDepth = 3;   ///< Max nesting of loops/diamonds in main.
  unsigned HelperRegionDepth = 1; ///< Max nesting in helpers (bounds work).
  unsigned MaxLoopTrip = 12;      ///< Max iterations of one counted loop.
  unsigned LoopPct = 22;          ///< Chance a region step opens a loop.
  unsigned DiamondPct = 28;       ///< Chance a region step opens a diamond.
  unsigned ElsePct = 50;          ///< Chance a diamond has an else arm.

  // --- Instruction mix (relative weights) --------------------------------
  unsigned AluWeight = 10;    ///< Simple ALU ops (the FPa-offloadable set).
  unsigned MulDivWeight = 2;  ///< Mul/Div/Rem and variable shifts.
  unsigned MemWeight = 6;     ///< Loads and stores (word and byte).
  unsigned FpWeight = 3;      ///< Native floating-point operations.
  unsigned CallWeight = 2;    ///< Calls to lower-index helpers.
  unsigned OutWeight = 3;     ///< Output-stream writes.

  // --- Budgets -----------------------------------------------------------
  unsigned MainInstrBudget = 90;   ///< Static instructions in main.
  unsigned HelperInstrBudget = 30; ///< Static instructions per helper.

  // --- Feature gates -----------------------------------------------------
  bool AllowFp = true;    ///< Emit native FP ops and FP-conditional diamonds.
  bool AllowBytes = true; ///< Emit lb/lbu/sb.
  bool AllowCalls = true; ///< Emit calls.
};

/// A handful of named opcode-mix/shape presets the fuzzer cycles
/// through ("default", "branchy", "memory", "fp", "calls", "tiny").
GenConfig presetConfig(const std::string &Name);

/// Names accepted by presetConfig, for --help text and iteration.
const std::vector<std::string> &presetNames();

/// Generates one module from \p Config and \p Seed. The result is
/// renumbered and verifier-clean (callers may assert so).
std::unique_ptr<sir::Module> generateModule(const GenConfig &Config,
                                            uint64_t Seed);

/// Mixes a base seed and an iteration index into a module seed
/// (splitmix64-style), so "--seed S" runs are reproducible per
/// iteration with "--one <moduleSeed>".
uint64_t moduleSeed(uint64_t BaseSeed, uint64_t Iteration);

} // namespace testgen
} // namespace fpint

#endif // FPINT_TESTGEN_GENERATOR_H
