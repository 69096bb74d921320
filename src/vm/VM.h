//===- vm/VM.h - Functional interpreter for sir modules -------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A functional (not timing) interpreter for sir modules. It serves three
/// roles in the reproduction:
///
///  1. Correctness oracle: partitioned/allocated code must produce the
///     same output stream as the original program.
///  2. Profiler: per-basic-block execution counts feed the advanced
///     partitioning scheme's cost model (the paper used basic-block
///     execution profiles the same way).
///  3. Trace generator: the dynamic instruction stream (with branch
///     outcomes and effective addresses) drives the cycle-level timing
///     simulator, mirroring the SimpleScalar-derived methodology. The
///     VM either keeps the trace or hands it to a TraceSink in batches.
///
/// Semantics: 32-bit two's-complement integer arithmetic with wrapping;
/// division by zero yields 0 (remainder yields the dividend) so that
/// randomly generated programs cannot trap; single-precision IEEE floats;
/// byte-addressed little-endian memory with globals placed from 0x1000
/// upward and frame stacks growing down from the top.
///
/// Memory is lazily mapped: the Options::MemBytes flat space is one
/// private anonymous mapping that the kernel zero-fills a page at a
/// time on first touch, so pages a run never touches cost nothing. A
/// small module touches a few pages of globals and stack, not the
/// whole space. Stores and global initialisers mark the pages they
/// write; a VM that dirtied at most GuestMemory::MaxKeptPages pages
/// zeroes just those when it is destroyed and leaves the mapping to the
/// next VM of the same size on its thread (one idle mapping per
/// thread), so constructing many VMs per module costs neither an mmap
/// nor page faults. A VM that wrote more unmaps, as does one whose
/// thread already holds an idle mapping (a nested VM).
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_VM_VM_H
#define FPINT_VM_VM_H

#include "sir/IR.h"
#include "vm/Trap.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace fpint {
namespace vm {

/// One dynamically executed instruction, as consumed by the timing
/// simulator.
struct TraceEntry {
  const sir::Instruction *I = nullptr;
  uint32_t Pc = 0;      ///< Static instruction address (4-byte spaced).
  uint32_t MemAddr = 0; ///< Effective address for loads/stores.
  bool Taken = false;   ///< Outcome for conditional branches.
};

/// Receives a run's dynamic trace in program order, a batch at a time
/// (VM::Options::Sink). A consumer that processes entries as they come
/// handles traces of any length in bounded memory.
class TraceSink {
public:
  TraceSink() = default;
  TraceSink(const TraceSink &) = delete;
  TraceSink &operator=(const TraceSink &) = delete;
  virtual ~TraceSink() = default;
  virtual void consume(const TraceEntry *Entries, size_t Count) = 0;
};

/// Per-module execution profile. The VM counts blocks in a dense array
/// while it runs and fills BlockCounts (executed blocks only) once, when
/// the run ends.
struct Profile {
  std::unordered_map<const sir::BasicBlock *, uint64_t> BlockCounts;
  uint64_t DynInstrs = 0;

  uint64_t countOf(const sir::BasicBlock *BB) const {
    auto It = BlockCounts.find(BB);
    return It == BlockCounts.end() ? 0 : It->second;
  }
};

/// Interprets a module starting from "main". The VM resolves the
/// module's static instructions when it is constructed, so the module
/// must not change while the VM lives, and its blocks must be
/// renumbered (Module::renumber(): each block's index() equal to its
/// position in its function).
class VM {
public:
  struct Options {
    uint32_t MemBytes = 16u << 20;  ///< Flat memory size.
    uint64_t MaxSteps = 400000000;  ///< Dynamic instruction budget.
    /// Recursion guard. exec() recurses on the native stack (each
    /// guest frame costs a few KB of C++ stack), so this must stay
    /// small enough that the guard trap fires well before the host
    /// stack does.
    unsigned MaxCallDepth = 2000;
    /// Backstop for the depth guard: native exec() frame sizes vary
    /// wildly between builds (sanitizer redzones inflate them
    /// several-fold), so the byte consumption measured from the
    /// outermost frame is also capped, well inside the typical 8 MB
    /// host stack.
    size_t MaxNativeStackBytes = 4u << 20;
    bool CollectTrace = false;      ///< Record the dynamic trace.
    /// With CollectTrace: hand the trace to this sink in batches of
    /// TraceBatch entries as the run goes, instead of keeping it; the
    /// last partial batch arrives before run() returns, and trace()
    /// stays empty.
    TraceSink *Sink = nullptr;
    bool CollectProfile = false;    ///< Record block execution counts.
  };

  /// Entries per TraceSink::consume call (all but the last).
  static constexpr size_t TraceBatch = 4096;

  /// Origin of the synthetic text segment. A module's instructions get
  /// consecutive code slots in layout order, each function starting on
  /// a 16-slot (64-byte) boundary, and instruction address
  /// CodeBase + 4 * slot. On a renumbered module an instruction's slot
  /// is its function's first slot plus sir::Instruction::id(). Slots
  /// are dense, so per-static-instruction tables index by codeSlot().
  static constexpr uint32_t CodeBase = 0x400000;
  static uint32_t codeSlot(uint32_t Pc) { return (Pc - CodeBase) >> 2; }

  struct Result {
    bool Ok = false;
    /// Typed cause of an abnormal stop (Kind == None iff Ok). The
    /// taxonomy lives in vm/Trap.h; kinds are deterministic properties
    /// of (program, input) except the resource traps.
    vm::Trap Trap;
    /// Rendered Trap.message() for display; empty when Ok.
    std::string Error;
    uint64_t Steps = 0;
    int32_t ExitValue = 0;
    std::vector<int32_t> Output;
  };

  VM(const sir::Module &M, Options Opts);
  explicit VM(const sir::Module &M) : VM(M, Options()) {}

  /// Runs main(MainArgs...). The module's "main" must take exactly
  /// MainArgs.size() formals.
  Result run(const std::vector<int32_t> &MainArgs = {});

  const std::vector<TraceEntry> &trace() const { return Trace; }

  /// Moves the collected trace out of the VM (for callers that cache
  /// it beyond the VM's lifetime without copying).
  std::vector<TraceEntry> takeTrace() { return std::move(Trace); }
  const Profile &profile() const { return Prof; }

  /// Data address of global \p Name; 0 if unknown.
  uint32_t globalAddress(const std::string &Name) const;

  /// Copies out the globals region of memory (empty if the module has
  /// no globals). Globals are laid out purely by declaration order, so
  /// a module and its partitioned/allocated clone agree on the layout:
  /// equality of images after a run means the programs computed the
  /// same memory state. Frame/spill areas are deliberately excluded --
  /// they legitimately differ between compilations.
  std::vector<uint8_t> globalImage() const;

  /// Guest mappings the calling thread has mmapped so far. A VM that
  /// takes its thread's idle mapping maps none.
  static uint64_t threadMappings();

private:
  /// Owns the guest memory mapping (see the file comment): takes the
  /// thread's idle mapping of its size or maps a fresh one, and on
  /// destruction zeroes what it wrote and leaves the mapping idle, or
  /// unmaps it. Being non-copyable, it makes the VM non-copyable.
  class GuestMemory {
  public:
    /// Granule of the dirty bitmap.
    static constexpr uint32_t PageBytes = 4096;
    /// A mapping with more dirtied pages is unmapped, not kept: an idle
    /// mapping holds at most this many resident pages. A generated
    /// module's VM dirties one or two (globals, top of the stack).
    static constexpr uint32_t MaxKeptPages = 4;

    explicit GuestMemory(size_t Bytes);
    ~GuestMemory();
    GuestMemory(const GuestMemory &) = delete;
    GuestMemory &operator=(const GuestMemory &) = delete;

    const uint8_t *data() const { return Base; }
    size_t size() const { return Bytes; }

    /// Copies \p N bytes to guest address \p Addr (in bounds) and marks
    /// the pages they land on dirty.
    void write(uint32_t Addr, const void *Src, uint32_t N);

  private:
    void markDirty(uint32_t Page);

    uint8_t *Base = nullptr;
    size_t Bytes = 0;
    std::vector<uint64_t> DirtyBits; ///< One bit per page.
    uint32_t NumDirty = 0;
    /// The first MaxKeptPages pages dirtied.
    uint32_t DirtyPages[MaxKeptPages] = {};
  };

  struct Frame {
    /// The frame's registers: the INT file, then the FP file.
    int32_t *IntRegs = nullptr;
    uint32_t FramePtr = 0;
  };

  /// Marks a symbol or callee that names nothing in the module. It
  /// traps only when the instruction executes.
  static constexpr uint32_t Unresolved = ~0u;

  /// One static instruction, resolved once at construction. Static is
  /// indexed by code slot.
  struct StaticInstr {
    uint32_t Pc = 0;
    /// Address of the memory operand's global (0 without a symbol, or
    /// Unresolved).
    uint32_t Global = 0;
    uint32_t Callee = Unresolved; ///< Funcs index of a call's callee.
    uint32_t Block = 0;           ///< Module-wide block number.
    /// Data slots of the def and the first two uses: the register's
    /// index in the file its class names, where a frame holds the INT
    /// file at [0, numRegs) and the FP file (raw bits) above it.
    uint32_t Def = 0;
    uint32_t Use[2] = {0, 0};
  };

  struct FuncInfo {
    const sir::Function *F = nullptr;
    /// Code slot of each block's first instruction, by block index().
    std::vector<uint32_t> BlockSlot;
  };

  bool exec(uint32_t FnIdx, const std::vector<int32_t> &Args,
            int32_t &RetValue, unsigned Depth);
  uint32_t effectiveAddress(const Frame &Fr, const sir::MemOperand &Mem,
                            const StaticInstr &SI, bool &OkFlag);

  bool loadWord(uint32_t Addr, int32_t &Out);
  bool storeWord(uint32_t Addr, int32_t Value);
  bool loadByte(uint32_t Addr, uint8_t &Out);
  bool storeByte(uint32_t Addr, uint8_t Value);

  const sir::Module &M;
  Options Opts;
  GuestMemory Mem;
  std::vector<uint32_t> GlobalAddrs; ///< By M.globals() position.
  std::vector<FuncInfo> Funcs;       ///< By M.functions() position.
  std::vector<StaticInstr> Static;
  std::vector<const sir::BasicBlock *> Blocks; ///< By block number.
  uint32_t MainIdx = Unresolved;
  uint32_t StackTop = 0;
  uintptr_t NativeStackBase = 0;

  /// Records the typed trap that stops the current run (first trap
  /// wins) and returns false so trap sites can `return trap(...)`.
  bool trap(TrapKind Kind, std::string Detail);

  /// Hands the buffered trace entries to Opts.Sink.
  void flushTrace();

  // Run state.
  uint64_t Steps = 0;
  Trap CurTrap;
  std::vector<int32_t> Output;
  std::vector<TraceEntry> Trace;
  std::vector<uint64_t> BlockHits; ///< By block number (CollectProfile).
  Profile Prof;
};

/// Convenience: runs \p M and returns the result (no trace/profile).
VM::Result runModule(const sir::Module &M,
                     const std::vector<int32_t> &MainArgs = {},
                     VM::Options Opts = VM::Options());

} // namespace vm
} // namespace fpint

#endif // FPINT_VM_VM_H
