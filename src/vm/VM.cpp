//===- vm/VM.cpp - Functional interpreter for sir modules -----------------===//

#include "vm/VM.h"

#include "sir/Printer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>
#include <unordered_map>
#include <utility>

#include <sys/mman.h>

using namespace fpint;
using namespace fpint::vm;
using sir::Instruction;
using sir::Opcode;
using sir::Reg;
using sir::RegClass;

namespace {
constexpr uint32_t GlobalBase = 0x1000;

/// Index of \p R in a frame's register array (VM::StaticInstr). An
/// absent or out-of-range register maps to slot 0, the unused slot of
/// the invalid register id.
uint32_t dataSlot(const sir::Function &F, Reg R) {
  if (!R.isValid() || R.id() >= F.numRegs())
    return 0;
  return F.regClass(R) == RegClass::Fp ? F.numRegs() + R.id() : R.id();
}

/// The thread's idle guest mapping (VM::GuestMemory), unmapped when the
/// thread exits.
struct IdleMapping {
  uint8_t *Base = nullptr;
  size_t Bytes = 0;
  std::vector<uint64_t> DirtyBits; ///< All clear.
  uint64_t Mapped = 0;             ///< VM::threadMappings().

  ~IdleMapping() {
    if (Base)
      munmap(Base, Bytes);
  }
};
thread_local IdleMapping Idle;
} // namespace

VM::GuestMemory::GuestMemory(size_t Bytes) : Bytes(Bytes) {
  if (Bytes == 0)
    return; // mmap rejects empty mappings; every access traps anyway.
  if (Idle.Base && Idle.Bytes == Bytes) {
    Base = std::exchange(Idle.Base, nullptr);
    DirtyBits = std::move(Idle.DirtyBits);
    return;
  }
  void *P = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (P == MAP_FAILED)
    throw std::bad_alloc();
  ++Idle.Mapped;
  Base = static_cast<uint8_t *>(P);
  const size_t Pages = (Bytes + PageBytes - 1) / PageBytes;
  DirtyBits.assign((Pages + 63) / 64, 0);
}

VM::GuestMemory::~GuestMemory() {
  if (!Base)
    return;
  if (NumDirty > MaxKeptPages || Idle.Base) {
    munmap(Base, Bytes);
    return;
  }
  // Every set bit is a listed page, so clearing whole words is exact.
  for (uint32_t K = 0; K < NumDirty; ++K) {
    const size_t Start = size_t(DirtyPages[K]) * PageBytes;
    std::memset(Base + Start, 0, std::min<size_t>(PageBytes, Bytes - Start));
    DirtyBits[DirtyPages[K] / 64] = 0;
  }
  Idle.Base = Base;
  Idle.Bytes = Bytes;
  Idle.DirtyBits = std::move(DirtyBits);
}

void VM::GuestMemory::markDirty(uint32_t Page) {
  uint64_t &Word = DirtyBits[Page / 64];
  const uint64_t Bit = uint64_t(1) << (Page % 64);
  if (Word & Bit)
    return;
  Word |= Bit;
  if (NumDirty < MaxKeptPages)
    DirtyPages[NumDirty] = Page;
  ++NumDirty;
}

void VM::GuestMemory::write(uint32_t Addr, const void *Src, uint32_t N) {
  std::memcpy(Base + Addr, Src, N);
  if (NumDirty > MaxKeptPages)
    return; // To be unmapped: which pages no longer matters.
  markDirty(Addr / PageBytes);
  if ((Addr + N - 1) / PageBytes != Addr / PageBytes)
    markDirty((Addr + N - 1) / PageBytes);
}

VM::VM(const sir::Module &M, Options Opts)
    : M(M), Opts(Opts), Mem(Opts.MemBytes) {
  StackTop = Opts.MemBytes;

  // Lay out globals from GlobalBase upward, word aligned, and copy in
  // initializers. The layout depends only on declaration order, so the
  // original and partitioned variants of a program agree on addresses.
  uint32_t Next = GlobalBase;
  GlobalAddrs.reserve(M.globals().size());
  for (const sir::Global &G : M.globals()) {
    GlobalAddrs.push_back(Next);
    for (size_t W = 0; W < G.Init.size(); ++W) {
      uint32_t A = Next + static_cast<uint32_t>(W) * 4;
      if (A + 4 <= Mem.size())
        Mem.write(A, &G.Init[W], 4);
    }
    Next += G.SizeWords * 4;
  }

  // Resolve every static instruction once: its code slot and text
  // address (for the branch predictor and instruction cache), the
  // address of the global it names, its callee, and its block number.
  // Names that resolve to nothing trap only if the instruction runs.
  std::unordered_map<const sir::Function *, uint32_t> FuncIdx;
  for (const auto &F : M.functions())
    FuncIdx.emplace(F.get(), static_cast<uint32_t>(FuncIdx.size()));
  if (const sir::Function *Main = M.functionByName("main"))
    MainIdx = FuncIdx.at(Main);
  Funcs.resize(M.functions().size());
  uint32_t Slot = 0;
  for (size_t K = 0; K < Funcs.size(); ++K) {
    FuncInfo &FI = Funcs[K];
    FI.F = M.functions()[K].get();
    for (const auto &BB : FI.F->blocks()) {
      // Branches find their target's slot by block index, so two
      // blocks sharing an index would run with each other's operands.
      assert(BB->index() == FI.BlockSlot.size() &&
             "VM needs a renumbered module");
      FI.BlockSlot.push_back(Slot);
      const uint32_t Block = static_cast<uint32_t>(Blocks.size());
      Blocks.push_back(BB.get());
      for (const auto &I : BB->instructions()) {
        StaticInstr SI;
        SI.Pc = CodeBase + Slot++ * 4;
        SI.Block = Block;
        SI.Def = dataSlot(*FI.F, I->def());
        for (size_t U = 0; U < 2 && U < I->uses().size(); ++U)
          SI.Use[U] = dataSlot(*FI.F, I->uses()[U]);
        const sir::MemOperand &Mem = I->mem();
        if (!Mem.IsFrame && !Mem.Symbol.empty()) {
          const sir::Global *G = M.globalByName(Mem.Symbol);
          SI.Global = G ? GlobalAddrs[G - M.globals().data()] : Unresolved;
        }
        if (I->op() == Opcode::Call)
          if (const sir::Function *Callee = M.functionByName(I->callee()))
            SI.Callee = FuncIdx.at(Callee);
        Static.push_back(SI);
      }
    }
    Slot = (Slot + 15u) & ~15u;
    Static.resize(Slot);
  }
}

uint64_t VM::threadMappings() { return Idle.Mapped; }

uint32_t VM::globalAddress(const std::string &Name) const {
  const sir::Global *G = M.globalByName(Name);
  return G ? GlobalAddrs[G - M.globals().data()] : 0;
}

std::vector<uint8_t> VM::globalImage() const {
  uint32_t End = GlobalBase;
  for (size_t K = 0; K < GlobalAddrs.size(); ++K)
    End = std::max(End, GlobalAddrs[K] + M.globals()[K].SizeWords * 4);
  End = std::min(End, static_cast<uint32_t>(Mem.size()));
  if (End <= GlobalBase)
    return {};
  return std::vector<uint8_t>(Mem.data() + GlobalBase, Mem.data() + End);
}

bool VM::trap(TrapKind Kind, std::string Detail) {
  if (!CurTrap) {
    CurTrap.Kind = Kind;
    CurTrap.Detail = std::move(Detail);
  }
  return false;
}

uint32_t VM::effectiveAddress(const Frame &Fr, const sir::MemOperand &Mem,
                              const StaticInstr &SI, bool &OkFlag) {
  OkFlag = true;
  int64_t Addr = Mem.Offset;
  if (Mem.IsFrame) {
    Addr += Fr.FramePtr;
  } else if (SI.Global == Unresolved) {
    trap(TrapKind::UnknownGlobal, "unknown global '" + Mem.Symbol + "'");
    OkFlag = false;
    return 0;
  } else {
    Addr += SI.Global;
  }
  if (Mem.Base.isValid())
    Addr += static_cast<uint32_t>(Fr.IntRegs[Mem.Base.id()]);
  return static_cast<uint32_t>(Addr);
}

bool VM::loadWord(uint32_t Addr, int32_t &Out) {
  if (Addr + 4 > Mem.size() || Addr + 4 < Addr) {
    return trap(TrapKind::OobLoad, "load out of bounds at " + std::to_string(Addr));
  }
  std::memcpy(&Out, Mem.data() + Addr, 4);
  return true;
}

bool VM::storeWord(uint32_t Addr, int32_t Value) {
  if (Addr + 4 > Mem.size() || Addr + 4 < Addr) {
    return trap(TrapKind::OobStore, "store out of bounds at " + std::to_string(Addr));
  }
  Mem.write(Addr, &Value, 4);
  return true;
}

bool VM::loadByte(uint32_t Addr, uint8_t &Out) {
  if (Addr >= Mem.size()) {
    return trap(TrapKind::OobLoad, "load out of bounds at " + std::to_string(Addr));
  }
  Out = Mem.data()[Addr];
  return true;
}

bool VM::storeByte(uint32_t Addr, uint8_t Value) {
  if (Addr >= Mem.size()) {
    return trap(TrapKind::OobStore, "store out of bounds at " + std::to_string(Addr));
  }
  Mem.write(Addr, &Value, 1);
  return true;
}

bool VM::exec(uint32_t FnIdx, const std::vector<int32_t> &Args,
              int32_t &RetValue, unsigned Depth) {
  const FuncInfo &FI = Funcs[FnIdx];
  const sir::Function &F = *FI.F;
  // Native-stack headroom backstop for the depth guard: the byte cost
  // of one exec() frame varies several-fold between builds (sanitizer
  // redzones), so measure actual consumption from the outermost frame.
  char Probe;
  uintptr_t Here = reinterpret_cast<uintptr_t>(&Probe);
  if (Depth == 0) {
    NativeStackBase = Here;
  } else {
    size_t Used = NativeStackBase > Here ? NativeStackBase - Here
                                         : Here - NativeStackBase;
    if (Used > Opts.MaxNativeStackBytes)
      return trap(TrapKind::StackOverflow,
                  "interpreter stack limit exceeded in '" + F.name() + "'");
  }
  if (Depth > Opts.MaxCallDepth)
    return trap(TrapKind::CallDepthExceeded,
                "call depth limit exceeded in '" + F.name() + "'");

  // Both register files in one array: INT register R at R, FP
  // register R at NumRegs + R (see StaticInstr's data slots).
  const uint32_t NumRegs = F.numRegs();
  std::vector<int32_t> RegFile(2 * static_cast<size_t>(NumRegs), 0);
  Frame Fr;
  Fr.IntRegs = RegFile.data();
  // FPa-assigned ALU instructions read/write the FP register file but
  // perform integer arithmetic on the 32-bit pattern, so the FP file
  // holds raw bits; float operations bit-cast on access.
  int32_t *const FpBits = Fr.IntRegs + NumRegs;

  // Reachable from unverified modules (a call site whose argument list
  // does not match the callee); a trap, not an assert, so malformed
  // input degrades instead of aborting the harness.
  if (Args.size() != F.formals().size())
    return trap(TrapKind::BadArgCount,
                "call to '" + F.name() + "' with " +
                    std::to_string(Args.size()) + " arguments, expected " +
                    std::to_string(F.formals().size()));
  for (size_t A = 0; A < Args.size(); ++A) {
    Reg Formal = F.formals()[A];
    if (F.regClass(Formal) == RegClass::Fp) {
      // FP-passed integer argument (Section 6.6 extension): the value
      // travels as raw bits in the FP file.
      FpBits[Formal.id()] = Args[A];
    } else {
      Fr.IntRegs[Formal.id()] = Args[A];
    }
  }

  // Allocate this invocation's spill frame.
  uint32_t FrameBytes = (F.frameWords() * 4 + 15u) & ~15u;
  if (FrameBytes > StackTop - GlobalBase)
    return trap(TrapKind::StackOverflow, "stack overflow in '" + F.name() + "'");
  StackTop -= FrameBytes;
  Fr.FramePtr = StackTop;

  auto IntUse = [&](const Instruction &I, unsigned Idx) {
    return Fr.IntRegs[I.uses()[Idx].id()];
  };
  auto FpBitsUse = [&](const Instruction &I, unsigned Idx) {
    return FpBits[I.uses()[Idx].id()];
  };
  auto SetFpBits = [&](Reg R, int32_t V) { FpBits[R.id()] = V; };
  auto FpUse = [&](const Instruction &I, unsigned Idx) {
    float V;
    std::memcpy(&V, &FpBits[I.uses()[Idx].id()], 4);
    return V;
  };
  auto SetFp = [&](Reg R, float V) { std::memcpy(&FpBits[R.id()], &V, 4); };
  // Operands in the file their register class names, through the data
  // slots decoded at construction.
  const StaticInstr *SI = nullptr;
  auto DataUse = [&](unsigned Idx) { return Fr.IntRegs[SI->Use[Idx]]; };
  auto SetData = [&](int32_t V) { Fr.IntRegs[SI->Def] = V; };

  auto Bail = [&]() {
    StackTop += FrameBytes;
    return false;
  };

  const sir::BasicBlock *BB = F.entry();
  size_t Idx = 0;
  if (!BB) {
    trap(TrapKind::NoEntryBlock, "function '" + F.name() + "' has no entry block");
    return Bail();
  }

  bool EnteredBlock = false;
  uint32_t BlockSlot = 0; // Code slot of BB's first instruction.
  for (;;) {
    // Advance across empty blocks / block ends by falling through.
    while (BB && Idx >= BB->instructions().size()) {
      BB = BB->fallthrough();
      Idx = 0;
      EnteredBlock = false;
    }
    if (!BB) {
      trap(TrapKind::ControlFellOffEnd,
           "control fell off the end of '" + F.name() + "'");
      return Bail();
    }
    if (Idx == 0 && !EnteredBlock) {
      BlockSlot = FI.BlockSlot[BB->index()];
      if (Opts.CollectProfile)
        ++BlockHits[Static[BlockSlot].Block];
      EnteredBlock = true;
    }

    const Instruction &I = *BB->instructions()[Idx];
    SI = &Static[BlockSlot + Idx];
    if (++Steps > Opts.MaxSteps) {
      trap(TrapKind::FuelExhausted, "dynamic instruction budget exceeded");
      return Bail();
    }

    TraceEntry TE;
    if (Opts.CollectTrace) {
      TE.I = &I;
      TE.Pc = SI->Pc;
    }
    auto Record = [&]() {
      if (Opts.CollectTrace) {
        Trace.push_back(TE);
        if (Opts.Sink && Trace.size() == TraceBatch)
          flushTrace();
      }
    };

    bool BranchTaken = false;
    const Opcode Op = I.op();
    switch (Op) {
    case Opcode::Add:
      SetData(static_cast<int32_t>(static_cast<uint32_t>(DataUse(0)) +
                                   static_cast<uint32_t>(DataUse(1))));
      break;
    case Opcode::Sub:
      SetData(static_cast<int32_t>(static_cast<uint32_t>(DataUse(0)) -
                                   static_cast<uint32_t>(DataUse(1))));
      break;
    case Opcode::AddI:
      SetData(static_cast<int32_t>(static_cast<uint32_t>(DataUse(0)) +
                                   static_cast<uint32_t>(I.imm())));
      break;
    case Opcode::And:
      SetData(DataUse(0) & DataUse(1));
      break;
    case Opcode::AndI:
      SetData(DataUse(0) & static_cast<int32_t>(I.imm()));
      break;
    case Opcode::Or:
      SetData(DataUse(0) | DataUse(1));
      break;
    case Opcode::OrI:
      SetData(DataUse(0) | static_cast<int32_t>(I.imm()));
      break;
    case Opcode::Xor:
      SetData(DataUse(0) ^ DataUse(1));
      break;
    case Opcode::XorI:
      SetData(DataUse(0) ^ static_cast<int32_t>(I.imm()));
      break;
    case Opcode::Sll:
      SetData(static_cast<int32_t>(static_cast<uint32_t>(DataUse(0))
                                   << (I.imm() & 31)));
      break;
    case Opcode::Srl:
      SetData(static_cast<int32_t>(static_cast<uint32_t>(DataUse(0)) >>
                                   (I.imm() & 31)));
      break;
    case Opcode::Sra:
      SetData(DataUse(0) >> (I.imm() & 31));
      break;
    case Opcode::Slt:
      SetData(DataUse(0) < DataUse(1) ? 1 : 0);
      break;
    case Opcode::SltU:
      SetData(static_cast<uint32_t>(DataUse(0)) <
                      static_cast<uint32_t>(DataUse(1))
                  ? 1
                  : 0);
      break;
    case Opcode::SltI:
      SetData(DataUse(0) < static_cast<int32_t>(I.imm()) ? 1 : 0);
      break;
    case Opcode::Li:
      SetData(static_cast<int32_t>(I.imm()));
      break;
    case Opcode::Move:
      SetData(DataUse(0));
      break;

    case Opcode::Mul:
      SetData(static_cast<int32_t>(static_cast<uint32_t>(DataUse(0)) *
                                   static_cast<uint32_t>(DataUse(1))));
      break;
    case Opcode::Div: {
      int32_t A = DataUse(0), B = DataUse(1);
      int32_t R = 0;
      if (B != 0 && !(A == INT32_MIN && B == -1))
        R = A / B;
      SetData(R);
      break;
    }
    case Opcode::Rem: {
      int32_t A = DataUse(0), B = DataUse(1);
      int32_t R = A;
      if (B != 0 && !(A == INT32_MIN && B == -1))
        R = A % B;
      SetData(R);
      break;
    }
    case Opcode::SllV:
      SetData(static_cast<int32_t>(static_cast<uint32_t>(DataUse(0))
                                   << (DataUse(1) & 31)));
      break;
    case Opcode::SrlV:
      SetData(static_cast<int32_t>(static_cast<uint32_t>(DataUse(0)) >>
                                   (DataUse(1) & 31)));
      break;
    case Opcode::SraV:
      SetData(DataUse(0) >> (DataUse(1) & 31));
      break;
    case Opcode::Nor:
      SetData(~(DataUse(0) | DataUse(1)));
      break;
    case Opcode::La: {
      bool AddrOk = true;
      uint32_t A = effectiveAddress(Fr, I.mem(), *SI, AddrOk);
      if (!AddrOk)
        return Bail();
      Fr.IntRegs[I.def().id()] = static_cast<int32_t>(A);
      break;
    }

    case Opcode::Lw: {
      bool AddrOk = true;
      uint32_t A = effectiveAddress(Fr, I.mem(), *SI, AddrOk);
      if (!AddrOk)
        return Bail();
      TE.MemAddr = A;
      int32_t V;
      if (!loadWord(A, V))
        return Bail();
      SetData(V);
      break;
    }
    case Opcode::Lb:
    case Opcode::Lbu: {
      bool AddrOk = true;
      uint32_t A = effectiveAddress(Fr, I.mem(), *SI, AddrOk);
      if (!AddrOk)
        return Bail();
      TE.MemAddr = A;
      uint8_t B;
      if (!loadByte(A, B))
        return Bail();
      int32_t V = Op == Opcode::Lb ? static_cast<int32_t>(static_cast<int8_t>(B))
                                   : static_cast<int32_t>(B);
      Fr.IntRegs[I.def().id()] = V;
      break;
    }
    case Opcode::Sw: {
      bool AddrOk = true;
      uint32_t A = effectiveAddress(Fr, I.mem(), *SI, AddrOk);
      if (!AddrOk)
        return Bail();
      TE.MemAddr = A;
      if (!storeWord(A, DataUse(0)))
        return Bail();
      break;
    }
    case Opcode::Sb: {
      bool AddrOk = true;
      uint32_t A = effectiveAddress(Fr, I.mem(), *SI, AddrOk);
      if (!AddrOk)
        return Bail();
      TE.MemAddr = A;
      if (!storeByte(A, static_cast<uint8_t>(DataUse(0) & 0xFF)))
        return Bail();
      break;
    }

    case Opcode::Beq:
      BranchTaken = DataUse(0) == DataUse(1);
      break;
    case Opcode::Bne:
      BranchTaken = DataUse(0) != DataUse(1);
      break;
    case Opcode::Blez:
      BranchTaken = DataUse(0) <= 0;
      break;
    case Opcode::Bgtz:
      BranchTaken = DataUse(0) > 0;
      break;
    case Opcode::Bltz:
      BranchTaken = DataUse(0) < 0;
      break;
    case Opcode::FBnez:
      BranchTaken = FpUse(I, 0) != 0.0f;
      break;
    case Opcode::FBeqz:
      BranchTaken = FpUse(I, 0) == 0.0f;
      break;

    case Opcode::Jump:
      TE.Taken = true;
      Record();
      BB = I.target();
      Idx = 0;
      EnteredBlock = false;
      continue;

    case Opcode::Call: {
      if (SI->Callee == Unresolved) {
        trap(TrapKind::UnknownCallee, "unknown callee '" + I.callee() + "'");
        return Bail();
      }
      std::vector<int32_t> CallArgs;
      CallArgs.reserve(I.uses().size());
      for (unsigned A = 0; A < I.uses().size(); ++A) {
        Reg ArgReg = I.uses()[A];
        if (F.regClass(ArgReg) == RegClass::Fp)
          CallArgs.push_back(FpBitsUse(I, A)); // FP-passed argument.
        else
          CallArgs.push_back(IntUse(I, A));
      }
      Record();
      int32_t CallRet = 0;
      if (!exec(SI->Callee, CallArgs, CallRet, Depth + 1))
        return Bail();
      if (I.def().isValid())
        Fr.IntRegs[I.def().id()] = CallRet;
      ++Idx;
      continue;
    }
    case Opcode::Ret:
      RetValue = I.uses().empty() ? 0 : IntUse(I, 0);
      Record();
      StackTop += FrameBytes;
      return true;

    case Opcode::CpToFp:
      SetFpBits(I.def(), Fr.IntRegs[I.uses()[0].id()]);
      break;
    case Opcode::CpToInt:
      Fr.IntRegs[I.def().id()] = FpBitsUse(I, 0);
      break;

    case Opcode::FAdd:
      SetFp(I.def(), FpUse(I, 0) + FpUse(I, 1));
      break;
    case Opcode::FSub:
      SetFp(I.def(), FpUse(I, 0) - FpUse(I, 1));
      break;
    case Opcode::FMul:
      SetFp(I.def(), FpUse(I, 0) * FpUse(I, 1));
      break;
    case Opcode::FDiv:
      SetFp(I.def(), FpUse(I, 0) / FpUse(I, 1));
      break;
    case Opcode::FLi:
      SetFp(I.def(), I.fimm());
      break;
    case Opcode::FMove:
      SetFp(I.def(), FpUse(I, 0));
      break;
    case Opcode::FCvtIF:
      SetFp(I.def(), static_cast<float>(FpBitsUse(I, 0)));
      break;
    case Opcode::FCvtFI: {
      // trunc.w.s semantics: NaN, infinities, and values outside the
      // int32 range produce INT32_MAX, as on MIPS. The plain cast is
      // undefined behavior for those inputs (fuzzer-found; see
      // tests/corpus/regressions/fcvt_overflow.sir).
      float Raw = FpUse(I, 0);
      int32_t V;
      if (std::isnan(Raw) || Raw >= 2147483648.0f || Raw < -2147483648.0f)
        V = std::numeric_limits<int32_t>::max();
      else
        V = static_cast<int32_t>(Raw);
      SetFpBits(I.def(), V);
      break;
    }
    case Opcode::FCmpLt:
      SetFp(I.def(), FpUse(I, 0) < FpUse(I, 1) ? 1.0f : 0.0f);
      break;
    case Opcode::FCmpLe:
      SetFp(I.def(), FpUse(I, 0) <= FpUse(I, 1) ? 1.0f : 0.0f);
      break;
    case Opcode::FCmpEq:
      SetFp(I.def(), FpUse(I, 0) == FpUse(I, 1) ? 1.0f : 0.0f);
      break;

    case Opcode::Out:
      Output.push_back(DataUse(0));
      break;
    }

    if (I.isCondBranch()) {
      TE.Taken = BranchTaken;
      Record();
      if (BranchTaken) {
        BB = I.target();
        Idx = 0;
        EnteredBlock = false;
      } else {
        ++Idx;
      }
      continue;
    }

    Record();
    ++Idx;
  }
}

VM::Result VM::run(const std::vector<int32_t> &MainArgs) {
  Result R;
  Steps = 0;
  CurTrap = Trap();
  const sir::Function *Main = M.functionByName("main");
  if (!Main) {
    trap(TrapKind::NoMain, "module has no 'main' function");
    R.Trap = CurTrap;
    R.Error = CurTrap.message();
    return R;
  }
  if (Main->formals().size() != MainArgs.size()) {
    trap(TrapKind::BadMainArity,
         "main expects " + std::to_string(Main->formals().size()) +
             " arguments, got " + std::to_string(MainArgs.size()));
    R.Trap = CurTrap;
    R.Error = CurTrap.message();
    return R;
  }

  Output.clear();
  Trace.clear();
  Prof = Profile();
  BlockHits.assign(Opts.CollectProfile ? Blocks.size() : 0, 0);

  int32_t Ret = 0;
  bool Ok = exec(MainIdx, MainArgs, Ret, 0);
  if (Opts.Sink)
    flushTrace();
  if (Opts.CollectProfile) {
    // Every step that passed the fuel check executed.
    Prof.DynInstrs = std::min(Steps, Opts.MaxSteps);
    for (size_t B = 0; B < BlockHits.size(); ++B)
      if (BlockHits[B])
        Prof.BlockCounts.emplace(Blocks[B], BlockHits[B]);
  }
  R.Ok = Ok;
  R.Trap = CurTrap;
  R.Error = Ok ? std::string() : CurTrap.message();
  R.Steps = Steps;
  R.ExitValue = Ret;
  R.Output = Output;
  return R;
}

void VM::flushTrace() {
  if (!Trace.empty())
    Opts.Sink->consume(Trace.data(), Trace.size());
  Trace.clear();
}

VM::Result vm::runModule(const sir::Module &M,
                         const std::vector<int32_t> &MainArgs,
                         VM::Options Opts) {
  VM Machine(M, Opts);
  return Machine.run(MainArgs);
}
