//===- vm/VM.cpp - Functional interpreter for sir modules -----------------===//

#include "vm/VM.h"

#include "sir/Printer.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>

#include <sys/mman.h>

using namespace fpint;
using namespace fpint::vm;
using sir::Instruction;
using sir::Opcode;
using sir::Reg;
using sir::RegClass;

namespace {
constexpr uint32_t GlobalBase = 0x1000;
constexpr uint32_t CodeBase = 0x400000; // Synthetic text segment origin.
} // namespace

VM::GuestMemory::GuestMemory(size_t Bytes) : Bytes(Bytes) {
  if (Bytes == 0)
    return; // mmap rejects empty mappings; every access traps anyway.
  void *P = mmap(nullptr, Bytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (P == MAP_FAILED)
    throw std::bad_alloc();
  Base = static_cast<uint8_t *>(P);
}

VM::GuestMemory::~GuestMemory() {
  if (Base)
    munmap(Base, Bytes);
}

VM::VM(const sir::Module &M, Options Opts)
    : M(M), Opts(Opts), Mem(Opts.MemBytes) {
  StackTop = Opts.MemBytes;

  // Lay out globals from GlobalBase upward, word aligned, and copy in
  // initializers. The layout depends only on declaration order, so the
  // original and partitioned variants of a program agree on addresses.
  uint32_t Next = GlobalBase;
  for (const sir::Global &G : M.globals()) {
    GlobalAddrs[G.Name] = Next;
    for (size_t W = 0; W < G.Init.size(); ++W) {
      uint32_t A = Next + static_cast<uint32_t>(W) * 4;
      if (A + 4 <= Mem.size())
        std::memcpy(Mem.data() + A, &G.Init[W], 4);
    }
    Next += G.SizeWords * 4;
  }

  // Assign a synthetic text address to every function (4 bytes per
  // instruction, 64-byte alignment between functions) for the branch
  // predictor and instruction cache.
  uint32_t Pc = CodeBase;
  for (const auto &F : M.functions()) {
    FuncBasePc[F.get()] = Pc;
    Pc += F->numInstrIds() * 4;
    Pc = (Pc + 63u) & ~63u;
  }
}

uint32_t VM::pcOf(const Instruction &I) const {
  const sir::Function *F = I.parent()->parent();
  auto It = FuncBasePc.find(F);
  assert(It != FuncBasePc.end() && "instruction from foreign module");
  return It->second + I.id() * 4;
}

uint32_t VM::globalAddress(const std::string &Name) const {
  auto It = GlobalAddrs.find(Name);
  return It == GlobalAddrs.end() ? 0 : It->second;
}

std::vector<uint8_t> VM::globalImage() const {
  uint32_t End = GlobalBase;
  for (const sir::Global &G : M.globals()) {
    auto It = GlobalAddrs.find(G.Name);
    if (It != GlobalAddrs.end())
      End = std::max(End, It->second + G.SizeWords * 4);
  }
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
                              bool &OkFlag) {
  OkFlag = true;
  int64_t Addr = Mem.Offset;
  if (Mem.IsFrame) {
    Addr += Fr.FramePtr;
  } else if (!Mem.Symbol.empty()) {
    auto It = GlobalAddrs.find(Mem.Symbol);
    if (It == GlobalAddrs.end()) {
      trap(TrapKind::UnknownGlobal, "unknown global '" + Mem.Symbol + "'");
      OkFlag = false;
      return 0;
    }
    Addr += It->second;
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
  std::memcpy(Mem.data() + Addr, &Value, 4);
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
  Mem.data()[Addr] = Value;
  return true;
}

bool VM::exec(const sir::Function &F, const std::vector<int32_t> &Args,
              int32_t &RetValue, unsigned Depth) {
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

  Frame Fr;
  Fr.F = &F;
  Fr.IntRegs.assign(F.numRegs(), 0);
  Fr.FpRegs.assign(F.numRegs(), 0.0f);

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
      float Raw;
      std::memcpy(&Raw, &Args[A], 4);
      Fr.FpRegs[Formal.id()] = Raw;
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
  auto FpUse = [&](const Instruction &I, unsigned Idx) {
    return Fr.FpRegs[I.uses()[Idx].id()];
  };
  // FPa-assigned ALU instructions read/write the FP register file but
  // perform integer arithmetic on the 32-bit pattern. We model FP
  // registers of FPa values as exact integer-valued floats is NOT safe;
  // instead FP registers store raw bits for FPa data. To keep one
  // representation, integer data held in the FP file is stored via
  // bit-punned int32 inside the float array.
  auto FpBitsUse = [&](const Instruction &I, unsigned Idx) {
    int32_t V;
    float Raw = Fr.FpRegs[I.uses()[Idx].id()];
    std::memcpy(&V, &Raw, 4);
    return V;
  };
  auto SetFpBits = [&](Reg R, int32_t V) {
    float Raw;
    std::memcpy(&Raw, &V, 4);
    Fr.FpRegs[R.id()] = Raw;
  };
  const sir::Function &Fn = F;
  auto DataUse = [&](const Instruction &I, unsigned Idx) -> int32_t {
    Reg R = I.uses()[Idx];
    if (Fn.regClass(R) == RegClass::Fp)
      return FpBitsUse(I, Idx);
    return Fr.IntRegs[R.id()];
  };
  auto SetData = [&](Reg R, int32_t V) {
    if (Fn.regClass(R) == RegClass::Fp)
      SetFpBits(R, V);
    else
      Fr.IntRegs[R.id()] = V;
  };

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

  bool CountedBlock = false;
  for (;;) {
    // Advance across empty blocks / block ends by falling through.
    while (BB && Idx >= BB->instructions().size()) {
      BB = BB->fallthrough();
      Idx = 0;
      CountedBlock = false;
    }
    if (!BB) {
      trap(TrapKind::ControlFellOffEnd,
           "control fell off the end of '" + F.name() + "'");
      return Bail();
    }
    if (Idx == 0 && !CountedBlock) {
      if (Opts.CollectProfile)
        ++Prof.BlockCounts[BB];
      CountedBlock = true;
    }

    const Instruction &I = *BB->instructions()[Idx];
    if (++Steps > Opts.MaxSteps) {
      trap(TrapKind::FuelExhausted, "dynamic instruction budget exceeded");
      return Bail();
    }
    if (Opts.CollectProfile)
      ++Prof.DynInstrs;

    TraceEntry TE;
    if (Opts.CollectTrace) {
      TE.I = &I;
      TE.Pc = pcOf(I);
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
      SetData(I.def(), static_cast<int32_t>(
                           static_cast<uint32_t>(DataUse(I, 0)) +
                           static_cast<uint32_t>(DataUse(I, 1))));
      break;
    case Opcode::Sub:
      SetData(I.def(), static_cast<int32_t>(
                           static_cast<uint32_t>(DataUse(I, 0)) -
                           static_cast<uint32_t>(DataUse(I, 1))));
      break;
    case Opcode::AddI:
      SetData(I.def(), static_cast<int32_t>(
                           static_cast<uint32_t>(DataUse(I, 0)) +
                           static_cast<uint32_t>(I.imm())));
      break;
    case Opcode::And:
      SetData(I.def(), DataUse(I, 0) & DataUse(I, 1));
      break;
    case Opcode::AndI:
      SetData(I.def(), DataUse(I, 0) & static_cast<int32_t>(I.imm()));
      break;
    case Opcode::Or:
      SetData(I.def(), DataUse(I, 0) | DataUse(I, 1));
      break;
    case Opcode::OrI:
      SetData(I.def(), DataUse(I, 0) | static_cast<int32_t>(I.imm()));
      break;
    case Opcode::Xor:
      SetData(I.def(), DataUse(I, 0) ^ DataUse(I, 1));
      break;
    case Opcode::XorI:
      SetData(I.def(), DataUse(I, 0) ^ static_cast<int32_t>(I.imm()));
      break;
    case Opcode::Sll:
      SetData(I.def(), static_cast<int32_t>(static_cast<uint32_t>(DataUse(I, 0))
                                            << (I.imm() & 31)));
      break;
    case Opcode::Srl:
      SetData(I.def(), static_cast<int32_t>(static_cast<uint32_t>(DataUse(I, 0)) >>
                                            (I.imm() & 31)));
      break;
    case Opcode::Sra:
      SetData(I.def(), DataUse(I, 0) >> (I.imm() & 31));
      break;
    case Opcode::Slt:
      SetData(I.def(), DataUse(I, 0) < DataUse(I, 1) ? 1 : 0);
      break;
    case Opcode::SltU:
      SetData(I.def(), static_cast<uint32_t>(DataUse(I, 0)) <
                               static_cast<uint32_t>(DataUse(I, 1))
                           ? 1
                           : 0);
      break;
    case Opcode::SltI:
      SetData(I.def(), DataUse(I, 0) < static_cast<int32_t>(I.imm()) ? 1 : 0);
      break;
    case Opcode::Li:
      SetData(I.def(), static_cast<int32_t>(I.imm()));
      break;
    case Opcode::Move:
      SetData(I.def(), DataUse(I, 0));
      break;

    case Opcode::Mul:
      SetData(I.def(), static_cast<int32_t>(
                           static_cast<uint32_t>(DataUse(I, 0)) *
                           static_cast<uint32_t>(DataUse(I, 1))));
      break;
    case Opcode::Div: {
      int32_t A = DataUse(I, 0), B = DataUse(I, 1);
      int32_t R = 0;
      if (B != 0 && !(A == INT32_MIN && B == -1))
        R = A / B;
      SetData(I.def(), R);
      break;
    }
    case Opcode::Rem: {
      int32_t A = DataUse(I, 0), B = DataUse(I, 1);
      int32_t R = A;
      if (B != 0 && !(A == INT32_MIN && B == -1))
        R = A % B;
      SetData(I.def(), R);
      break;
    }
    case Opcode::SllV:
      SetData(I.def(), static_cast<int32_t>(static_cast<uint32_t>(DataUse(I, 0))
                                            << (DataUse(I, 1) & 31)));
      break;
    case Opcode::SrlV:
      SetData(I.def(), static_cast<int32_t>(static_cast<uint32_t>(DataUse(I, 0)) >>
                                            (DataUse(I, 1) & 31)));
      break;
    case Opcode::SraV:
      SetData(I.def(), DataUse(I, 0) >> (DataUse(I, 1) & 31));
      break;
    case Opcode::Nor:
      SetData(I.def(), ~(DataUse(I, 0) | DataUse(I, 1)));
      break;
    case Opcode::La: {
      bool AddrOk = true;
      uint32_t A = effectiveAddress(Fr, I.mem(), AddrOk);
      if (!AddrOk)
        return Bail();
      Fr.IntRegs[I.def().id()] = static_cast<int32_t>(A);
      break;
    }

    case Opcode::Lw: {
      bool AddrOk = true;
      uint32_t A = effectiveAddress(Fr, I.mem(), AddrOk);
      if (!AddrOk)
        return Bail();
      TE.MemAddr = A;
      int32_t V;
      if (!loadWord(A, V))
        return Bail();
      SetData(I.def(), V);
      break;
    }
    case Opcode::Lb:
    case Opcode::Lbu: {
      bool AddrOk = true;
      uint32_t A = effectiveAddress(Fr, I.mem(), AddrOk);
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
      uint32_t A = effectiveAddress(Fr, I.mem(), AddrOk);
      if (!AddrOk)
        return Bail();
      TE.MemAddr = A;
      if (!storeWord(A, DataUse(I, 0)))
        return Bail();
      break;
    }
    case Opcode::Sb: {
      bool AddrOk = true;
      uint32_t A = effectiveAddress(Fr, I.mem(), AddrOk);
      if (!AddrOk)
        return Bail();
      TE.MemAddr = A;
      if (!storeByte(A, static_cast<uint8_t>(DataUse(I, 0) & 0xFF)))
        return Bail();
      break;
    }

    case Opcode::Beq:
      BranchTaken = DataUse(I, 0) == DataUse(I, 1);
      break;
    case Opcode::Bne:
      BranchTaken = DataUse(I, 0) != DataUse(I, 1);
      break;
    case Opcode::Blez:
      BranchTaken = DataUse(I, 0) <= 0;
      break;
    case Opcode::Bgtz:
      BranchTaken = DataUse(I, 0) > 0;
      break;
    case Opcode::Bltz:
      BranchTaken = DataUse(I, 0) < 0;
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
      CountedBlock = false;
      continue;

    case Opcode::Call: {
      const sir::Function *Callee = M.functionByName(I.callee());
      if (!Callee) {
        trap(TrapKind::UnknownCallee, "unknown callee '" + I.callee() + "'");
        return Bail();
      }
      std::vector<int32_t> CallArgs;
      CallArgs.reserve(I.uses().size());
      for (unsigned A = 0; A < I.uses().size(); ++A) {
        Reg ArgReg = I.uses()[A];
        if (Fn.regClass(ArgReg) == RegClass::Fp)
          CallArgs.push_back(FpBitsUse(I, A)); // FP-passed argument.
        else
          CallArgs.push_back(IntUse(I, A));
      }
      Record();
      int32_t CallRet = 0;
      if (!exec(*Callee, CallArgs, CallRet, Depth + 1))
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
    case Opcode::CpToInt: {
      int32_t V;
      float Raw = Fr.FpRegs[I.uses()[0].id()];
      std::memcpy(&V, &Raw, 4);
      Fr.IntRegs[I.def().id()] = V;
      break;
    }

    case Opcode::FAdd:
      Fr.FpRegs[I.def().id()] = FpUse(I, 0) + FpUse(I, 1);
      break;
    case Opcode::FSub:
      Fr.FpRegs[I.def().id()] = FpUse(I, 0) - FpUse(I, 1);
      break;
    case Opcode::FMul:
      Fr.FpRegs[I.def().id()] = FpUse(I, 0) * FpUse(I, 1);
      break;
    case Opcode::FDiv:
      Fr.FpRegs[I.def().id()] = FpUse(I, 0) / FpUse(I, 1);
      break;
    case Opcode::FLi:
      Fr.FpRegs[I.def().id()] = I.fimm();
      break;
    case Opcode::FMove:
      Fr.FpRegs[I.def().id()] = FpUse(I, 0);
      break;
    case Opcode::FCvtIF: {
      int32_t V;
      float Raw = FpUse(I, 0);
      std::memcpy(&V, &Raw, 4);
      Fr.FpRegs[I.def().id()] = static_cast<float>(V);
      break;
    }
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
      Fr.FpRegs[I.def().id()] = FpUse(I, 0) < FpUse(I, 1) ? 1.0f : 0.0f;
      break;
    case Opcode::FCmpLe:
      Fr.FpRegs[I.def().id()] = FpUse(I, 0) <= FpUse(I, 1) ? 1.0f : 0.0f;
      break;
    case Opcode::FCmpEq:
      Fr.FpRegs[I.def().id()] = FpUse(I, 0) == FpUse(I, 1) ? 1.0f : 0.0f;
      break;

    case Opcode::Out:
      Output.push_back(DataUse(I, 0));
      break;
    }

    if (I.isCondBranch()) {
      TE.Taken = BranchTaken;
      Record();
      if (BranchTaken) {
        BB = I.target();
        Idx = 0;
        CountedBlock = false;
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

  int32_t Ret = 0;
  bool Ok = exec(*Main, MainArgs, Ret, 0);
  if (Opts.Sink)
    flushTrace();
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
