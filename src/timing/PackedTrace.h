//===- timing/PackedTrace.h - SoA-packed dynamic trace --------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A cache-friendly structure-of-arrays encoding of a VM dynamic trace,
/// pre-decoded for the timing simulator's fast path.
///
/// The reference simulator walks a `std::vector<vm::TraceEntry>` and
/// chases `const sir::Instruction *` pointers on every dynamic
/// instruction: opcode class, latency, subsystem, and renamed operand
/// identities are re-derived per fetch through a per-run hash map. A
/// PackedTrace performs that decode exactly once per compiled module:
///
///  * per *static* instruction, one dense `PackedOp` record (execution
///    class, FU latency, unpipelined/load/store/branch flags, packed
///    def/use architectural register ids from the regalloc ArchIndex
///    map) -- the set of static instructions is small, so the table
///    stays hot in L1;
///  * per *dynamic* instruction, three flat parallel arrays: the index
///    of its PackedOp, its effective memory address, and its
///    branch-taken bit.
///
/// A PackedTraceBuilder packs the trace while the VM runs (it is the
/// run's vm::TraceSink), so the 24-byte entries are never held: the
/// packed form costs 9 bytes per dynamic instruction. Static
/// instructions are keyed by their dense code slot (vm::VM::codeSlot),
/// so packing an entry is one array lookup.
///
/// A PackedTrace is a pure function of (compiled module, ref input) --
/// it is independent of any timing::MachineConfig, so one build serves
/// every machine sweep. It is the only trace core::TraceHandle keeps
/// (built at most once per module) and is borrowed by every
/// simulation.
///
/// The encoding is lossless: entry(i) reconstructs the exact
/// vm::TraceEntry the packer consumed (asserted field-for-field by
/// tests/SimulatorTest.cpp), which is also how the reference loop runs
/// from a PackedTrace when the fast path is disabled.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_TIMING_PACKEDTRACE_H
#define FPINT_TIMING_PACKEDTRACE_H

#include "regalloc/RegAlloc.h"
#include "sir/IR.h"
#include "vm/VM.h"

#include <cstdint>
#include <vector>

namespace fpint {
namespace timing {

/// One statically decoded instruction of a PackedTrace. Operand fields
/// pack (file, arch index) into one byte: bit 5 selects the register
/// file (0 = INT, 1 = FP), bits 0-4 the architectural index within it
/// (regalloc::ArchLayout::FileSize == 32).
struct PackedOp {
  static constexpr uint8_t FileBit = 1u << 5;
  static constexpr uint8_t ArchMask = FileBit - 1;

  /// Static flag bits of Flags.
  enum : uint8_t {
    FpSubsystem = 1u << 0,   ///< Issues from the FP window / FP units.
    IsLoad = 1u << 1,
    IsStore = 1u << 2,
    IsCondBranch = 1u << 3,
    Unpipelined = 1u << 4,   ///< Divides occupy their unit fully.
    HasDef = 1u << 5,
    UncondTransfer = 1u << 6, ///< Jump / Call / Ret (perfectly predicted).
    InFpa = 1u << 7,          ///< Partitioned (",a") instruction.
  };

  const sir::Instruction *I = nullptr; ///< Identity (round-trip/debug).
  uint32_t Pc = 0;     ///< Static instruction address (4-byte spaced).
  uint8_t Class = 0;   ///< sir::ExecClass of the opcode.
  uint8_t Latency = 1; ///< sir::execLatency(Class).
  uint8_t Flags = 0;
  uint8_t Def = 0;     ///< Packed destination (valid iff HasDef).
  uint8_t NumUses = 0;
  uint8_t Uses[4] = {0, 0, 0, 0}; ///< Packed sources.

  bool is(uint8_t Flag) const { return (Flags & Flag) != 0; }
};

/// The packed structure-of-arrays trace (see file comment).
struct PackedTrace {
  /// Dense static decode table; OpIdx values index into it.
  std::vector<PackedOp> Ops;

  /// Parallel per-dynamic-instruction arrays, all of size().
  std::vector<uint32_t> OpIdx;
  std::vector<uint32_t> MemAddr; ///< Effective address (loads/stores).
  std::vector<uint8_t> Taken;    ///< Outcome for conditional branches.

  /// Whether any instruction carries the FPa (",a") partition bit; a
  /// conventional (FpaEnabled == false) machine must reject such a
  /// trace, checked once per run instead of once per fetch.
  bool HasFpa = false;

  size_t size() const { return OpIdx.size(); }
  bool empty() const { return OpIdx.empty(); }

  const PackedOp &op(size_t I) const { return Ops[OpIdx[I]]; }

  /// Reconstructs dynamic entry \p I exactly as the packer consumed it.
  vm::TraceEntry entry(size_t I) const {
    const PackedOp &Op = Ops[OpIdx[I]];
    vm::TraceEntry TE;
    TE.I = Op.I;
    TE.Pc = Op.Pc;
    TE.MemAddr = MemAddr[I];
    TE.Taken = Taken[I] != 0;
    return TE;
  }

  /// The full reconstructed entry vector (reference-loop fallback and
  /// round-trip tests).
  std::vector<vm::TraceEntry> entries() const;

  /// Packs \p Trace with a PackedTraceBuilder against \p Alloc.
  static PackedTrace build(const std::vector<vm::TraceEntry> &Trace,
                           const regalloc::ModuleAlloc &Alloc);
};

/// Packs a VM trace as it arrives (see the file comment). The trace
/// must come from a register-allocated module (every operand of every
/// traced instruction has an ArchIndex mapping in \p Alloc).
class PackedTraceBuilder final : public vm::TraceSink {
public:
  /// \p ExpectedSize: the trace length when known (a previous run's
  /// VM::Result::Steps). The per-dynamic arrays are reserved to it, so
  /// a trace of that length never reallocates.
  explicit PackedTraceBuilder(const regalloc::ModuleAlloc &Alloc,
                              size_t ExpectedSize = 0);

  void consume(const vm::TraceEntry *Entries, size_t Count) override;

  /// The trace packed so far; the builder is empty afterwards.
  PackedTrace take();

private:
  static constexpr uint32_t Unseen = ~0u;

  const regalloc::ModuleAlloc &Alloc;
  PackedTrace PT;
  std::vector<uint32_t> OpOfSlot; ///< PT.Ops index by code slot.
};

} // namespace timing
} // namespace fpint

#endif // FPINT_TIMING_PACKEDTRACE_H
