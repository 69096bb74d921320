//===- testgen/Generator.cpp - Seeded random sir module generator ---------===//

#include "testgen/Generator.h"

#include "sir/IRBuilder.h"
#include "sir/Verifier.h"
#include "support/Rng.h"

#include <algorithm>
#include <cassert>

using namespace fpint;
using namespace fpint::testgen;
using sir::BasicBlock;
using sir::Function;
using sir::Instruction;
using sir::IRBuilder;
using sir::MemOperand;
using sir::Opcode;
using sir::Reg;
using sir::RegClass;

namespace {

/// Rounds \p V down to a power of two (minimum 1).
uint32_t floorPow2(uint32_t V) {
  uint32_t P = 1;
  while (P * 2 <= V)
    P *= 2;
  return P;
}

class GeneratorImpl {
public:
  GeneratorImpl(const GenConfig &C, uint64_t Seed) : C(C), R(Seed) {}

  std::unique_ptr<sir::Module> run() {
    M = std::make_unique<sir::Module>();
    genGlobals();
    // Helpers first, lowest index first, so that any function may call
    // only strictly lower-index helpers: the call graph is acyclic.
    for (unsigned H = 0; H < C.NumHelpers; ++H)
      genFunction("f" + std::to_string(H), /*IsMain=*/false);
    genFunction("main", /*IsMain=*/true);
    M->renumber();
    return std::move(M);
  }

private:
  //===--------------------------------------------------------------------===
  // Globals
  //===--------------------------------------------------------------------===

  void genGlobals() {
    unsigned N = std::max(1u, C.NumGlobals);
    for (unsigned G = 0; G < N; ++G) {
      uint32_t Words =
          floorPow2(static_cast<uint32_t>(4 + R.nextBelow(
                        std::max(1u, C.MaxGlobalWords - 3))));
      std::vector<int32_t> Init;
      uint32_t InitCount = static_cast<uint32_t>(R.nextBelow(Words + 1));
      for (uint32_t W = 0; W < InitCount; ++W)
        Init.push_back(randomValue());
      M->addGlobal("g" + std::to_string(G), Words, std::move(Init));
      GlobalWords.push_back(Words);
    }
  }

  /// A value distribution that mixes small counters, bit patterns, and
  /// full-width extremes (so shifts, compares, and wrap-around all see
  /// interesting operands).
  int32_t randomValue() {
    switch (R.nextBelow(5)) {
    case 0:
      return static_cast<int32_t>(R.nextInRange(-8, 8));
    case 1:
      return static_cast<int32_t>(R.nextInRange(-300, 300));
    case 2:
      return static_cast<int32_t>(1u << R.nextBelow(32));
    case 3: {
      static const int32_t Extremes[] = {INT32_MIN, INT32_MAX, -1, 0,
                                         0x55555555, static_cast<int32_t>(0xAAAAAAAA)};
      return Extremes[R.nextBelow(6)];
    }
    default:
      return static_cast<int32_t>(static_cast<uint32_t>(R.next()));
    }
  }

  //===--------------------------------------------------------------------===
  // Per-function state
  //===--------------------------------------------------------------------===

  struct FnState {
    Function *F = nullptr;
    IRBuilder B;
    std::vector<Reg> IntPool; ///< Registers defined on every path to here.
    std::vector<Reg> FpPool;
    unsigned Budget = 0;      ///< Remaining static instructions to emit.
    unsigned MaxDepth = 0;
    unsigned HelperIndex = 0; ///< Callable helpers: indices < HelperIndex.
    unsigned NextBlock = 0;   ///< Fresh block name counter.
  };

  Reg pickInt(FnState &S) {
    assert(!S.IntPool.empty());
    return S.IntPool[R.nextBelow(S.IntPool.size())];
  }
  Reg pickFp(FnState &S) {
    assert(!S.FpPool.empty());
    return S.FpPool[R.nextBelow(S.FpPool.size())];
  }
  void pushInt(FnState &S, Reg V) {
    // Bound the pool so pick distribution stays spread while register
    // pressure (and thus spilling) still grows with program size.
    if (S.IntPool.size() >= 32)
      S.IntPool[R.nextBelow(S.IntPool.size())] = V;
    else
      S.IntPool.push_back(V);
  }
  void pushFp(FnState &S, Reg V) {
    if (S.FpPool.size() >= 16)
      S.FpPool[R.nextBelow(S.FpPool.size())] = V;
    else
      S.FpPool.push_back(V);
  }

  BasicBlock *newBlock(FnState &S, const char *Tag) {
    return S.F->addBlock(std::string(Tag) + std::to_string(S.NextBlock++));
  }

  /// Saturating budget spend (the budget is advisory; shapes may
  /// overshoot by a few instructions near zero).
  void spend(FnState &S, unsigned N) {
    S.Budget = S.Budget > N ? S.Budget - N : 0;
  }

  /// Appends a conditional branch / jump whose target may be patched
  /// after the arms exist (blocks must be created in layout order, so
  /// forward targets are not known yet at emission time).
  Instruction *emitBranch(FnState &S, Opcode Op, Reg A, Reg B) {
    auto I = std::make_unique<Instruction>(Op);
    if (A.isValid())
      I->uses().push_back(A);
    if (B.isValid())
      I->uses().push_back(B);
    return S.B.insertBlock()->append(std::move(I));
  }

  /// Emits "Dst = Dst + Imm" (the builder only creates fresh defs; loop
  /// counters need an in-place update).
  void addiInto(FnState &S, Reg Dst, int64_t Imm) {
    auto I = std::make_unique<Instruction>(Opcode::AddI);
    I->setDef(Dst);
    I->uses().push_back(Dst);
    I->setImm(Imm);
    S.B.insertBlock()->append(std::move(I));
  }

  //===--------------------------------------------------------------------===
  // Function generation
  //===--------------------------------------------------------------------===

  void genFunction(const std::string &Name, bool IsMain) {
    Function *F = M->addFunction(Name);
    FnState S;
    S.F = F;
    S.Budget = IsMain ? C.MainInstrBudget : C.HelperInstrBudget;
    S.MaxDepth = IsMain ? C.MainRegionDepth : C.HelperRegionDepth;
    // A helper is not yet in Helpers while its own body is generated,
    // so both cases reduce to "everything generated so far is callable".
    S.HelperIndex = static_cast<unsigned>(Helpers.size());

    unsigned NumFormals =
        IsMain ? 0
               : static_cast<unsigned>(R.nextBelow(
                     std::min(C.MaxFormals, 3u) + 1));
    for (unsigned A = 0; A < NumFormals; ++A)
      S.IntPool.push_back(F->addFormal());

    BasicBlock *Entry = F->addBlock("entry");
    S.B.setInsertPoint(Entry);

    // Seed the data pool with a few constants so every picker has
    // material to work with.
    unsigned Seeds = 2 + static_cast<unsigned>(R.nextBelow(3));
    for (unsigned I = 0; I < Seeds; ++I)
      pushInt(S, S.B.li(randomValue()));
    if (C.AllowFp)
      pushFp(S, S.B.fli(randomFloat()));

    // The region may run what the cap leaves after the prologue and the
    // shortest epilogue: the return, and in main one out.
    const uint64_t Prologue = Entry->instructions().size();
    const uint64_t Epilogue = IsMain ? 2 : 1;
    const uint64_t Steps =
        Prologue +
        genRegion(S, /*Depth=*/0, MaxModuleSteps - Prologue - Epilogue);

    // Make the function's work observable, then return.
    if (IsMain) {
      uint64_t Outs = 1 + R.nextBelow(3);
      Outs = std::min(Outs, MaxModuleSteps - Steps - 1);
      for (uint64_t I = 0; I < Outs; ++I)
        S.B.out(pickInt(S));
      S.B.ret();
    } else {
      S.B.ret(pickInt(S));
      Helpers.push_back(F);
      HelperFormals.push_back(NumFormals);
      HelperSteps.push_back(Steps + 1);
    }
  }

  float randomFloat() {
    switch (R.nextBelow(4)) {
    case 0:
      return static_cast<float>(R.nextInRange(-10, 10));
    case 1:
      return static_cast<float>(R.nextDouble() * 100.0 - 50.0);
    case 2:
      return 0.0f;
    default:
      return static_cast<float>(R.nextInRange(-5, 5)) * 0.25f;
    }
  }

  /// Emits a structured region: a sequence of straight-line
  /// instructions, diamonds, and counted loops. Consumes S.Budget.
  /// Returns an upper bound on the region's dynamic steps, which stays
  /// within \p Allowance: each shape gets what is left, and one that
  /// cannot fit is refused (it emits nothing and costs 0).
  uint64_t genRegion(FnState &S, unsigned Depth, uint64_t Allowance) {
    uint64_t Steps = 0;
    // Leave headroom for the enclosing loop/diamond plumbing and the
    // function epilogue.
    while (S.Budget > 4) {
      uint64_t Shape = R.nextBelow(100);
      if (Depth < S.MaxDepth && Shape < C.LoopPct && S.Budget > 12) {
        Steps += genLoop(S, Depth, Allowance - Steps);
      } else if (Depth < S.MaxDepth && Shape < C.LoopPct + C.DiamondPct &&
                 S.Budget > 10) {
        Steps += genDiamond(S, Depth, Allowance - Steps);
      } else {
        Steps += genStraightline(S, Depth, Allowance - Steps);
      }
      // Occasionally stop early so region lengths vary.
      if (R.chance(1, 8))
        break;
    }
    return Steps;
  }

  //===--------------------------------------------------------------------===
  // Control-flow shapes
  //===--------------------------------------------------------------------===

  /// Counted do-while loop over a fresh counter register:
  ///
  ///   li %n, trip
  /// body:
  ///   ...region...
  ///   addi %n, %n, -1
  ///   bgtz %n, body
  /// after:
  ///
  /// The counter is fresh and never enters the data pool, so nothing in
  /// the body can change it: the loop always terminates, after exactly
  /// 1 + trip * (body + 2) steps. The trip count is known before the
  /// body, so the body gets a trip's share of the allowance; a trip
  /// count under which not even an empty body fits shrinks to one that
  /// does.
  uint64_t genLoop(FnState &S, unsigned Depth, uint64_t Allowance) {
    // Shrink trip counts with nesting depth to keep most modules small.
    unsigned MaxTrip = std::max(2u, C.MaxLoopTrip >> (2 * Depth));
    uint64_t Trip = 1 + R.nextBelow(MaxTrip);
    if (Allowance < 3)
      return 0;
    Trip = std::min(Trip, (Allowance - 1) / 2);
    Reg Counter = S.B.function()->newReg(RegClass::Int);
    S.B.liInto(Counter, static_cast<int64_t>(Trip));

    BasicBlock *Body = newBlock(S, "loop");
    S.B.setInsertPoint(Body);
    spend(S, 3);

    // Body additions to the pool are not definitely defined after a
    // later reentry's partial path; structurally they are (do-while,
    // straight pool discipline), but discarding keeps the invariant
    // trivially true for nested shapes.
    std::vector<Reg> SavedInt = S.IntPool, SavedFp = S.FpPool;
    const uint64_t BodySteps =
        genRegion(S, Depth + 1, (Allowance - 1) / Trip - 2);
    S.IntPool = std::move(SavedInt);
    S.FpPool = std::move(SavedFp);

    addiInto(S, Counter, -1);
    S.B.bgtz(Counter, Body);

    BasicBlock *After = newBlock(S, "after");
    S.B.setInsertPoint(After);
    return 1 + Trip * (BodySteps + 2);
  }

  /// Structured if/then[/else] diamond with a forward branch:
  ///
  ///   b<cc> ..., else      (or join when there is no else arm)
  /// then:
  ///   ...region... [jump join]
  /// else:
  ///   ...region...
  /// join:
  ///
  /// Blocks are created strictly in layout order (nested shapes append
  /// their own blocks while an arm is generated), so the branch and
  /// jump targets are patched in once the arms are complete. Costs the
  /// condition plus the longer arm.
  uint64_t genDiamond(FnState &S, unsigned Depth, uint64_t Allowance) {
    bool HasElse = R.chance(C.ElsePct, 100);
    bool FpCond = C.AllowFp && !S.FpPool.empty() && R.chance(1, 4);
    // An FP condition is a compare plus an FP branch.
    const uint64_t CondSteps = FpCond ? 2 : 1;
    if (Allowance < CondSteps + HasElse)
      return 0;

    Instruction *CondBr;
    if (FpCond) {
      Reg Cond;
      switch (R.nextBelow(3)) {
      case 0:
        Cond = S.B.fcmplt(pickFp(S), pickFp(S));
        break;
      case 1:
        Cond = S.B.fcmple(pickFp(S), pickFp(S));
        break;
      default:
        Cond = S.B.fcmpeq(pickFp(S), pickFp(S));
        break;
      }
      CondBr = emitBranch(
          S, R.chance(1, 2) ? Opcode::FBnez : Opcode::FBeqz, Cond, Reg());
      spend(S, 2);
    } else {
      switch (R.nextBelow(5)) {
      case 0:
        CondBr = emitBranch(S, Opcode::Beq, pickInt(S), pickInt(S));
        break;
      case 1:
        CondBr = emitBranch(S, Opcode::Bne, pickInt(S), pickInt(S));
        break;
      case 2:
        CondBr = emitBranch(S, Opcode::Blez, pickInt(S), Reg());
        break;
      case 3:
        CondBr = emitBranch(S, Opcode::Bgtz, pickInt(S), Reg());
        break;
      default:
        CondBr = emitBranch(S, Opcode::Bltz, pickInt(S), Reg());
        break;
      }
      spend(S, 1);
    }

    // Then arm: registers defined inside are not defined on the
    // branch-taken path, so arm-local defs never escape to the pool.
    std::vector<Reg> SavedInt = S.IntPool, SavedFp = S.FpPool;
    S.B.setInsertPoint(newBlock(S, "then"));
    uint64_t ArmSteps =
        genRegion(S, Depth + 1, Allowance - CondSteps - HasElse) + HasElse;

    Instruction *ThenJmp = nullptr;
    if (HasElse) {
      ThenJmp = emitBranch(S, Opcode::Jump, Reg(), Reg());
      spend(S, 1);
      BasicBlock *Else = newBlock(S, "else");
      CondBr->setTarget(Else);
      S.IntPool = SavedInt;
      S.FpPool = SavedFp;
      S.B.setInsertPoint(Else);
      ArmSteps =
          std::max(ArmSteps, genRegion(S, Depth + 1, Allowance - CondSteps));
    }

    BasicBlock *Join = newBlock(S, "join");
    if (HasElse)
      ThenJmp->setTarget(Join);
    else
      CondBr->setTarget(Join);
    S.IntPool = std::move(SavedInt);
    S.FpPool = std::move(SavedFp);
    S.B.setInsertPoint(Join);
    return CondSteps + ArmSteps;
  }

  //===--------------------------------------------------------------------===
  // Straight-line instructions
  //===--------------------------------------------------------------------===

  /// Emits one straight-line step and returns its dynamic steps: a few
  /// instructions in the current block, each run once, plus a callee's
  /// whole run. A step that would pass \p Allowance is taken back whole.
  uint64_t genStraightline(FnState &S, unsigned Depth, uint64_t Allowance) {
    unsigned WAlu = C.AluWeight;
    unsigned WMulDiv = WAlu + C.MulDivWeight;
    unsigned WMem = WMulDiv + C.MemWeight;
    unsigned WFp = WMem + (C.AllowFp ? C.FpWeight : 0);
    unsigned WCall = WFp + (C.AllowCalls && !Helpers.empty() && canCall(Depth)
                                ? C.CallWeight
                                : 0);
    unsigned WOut = WCall + C.OutWeight;
    if (WOut == 0)
      return 0;

    uint64_t Pick = R.nextBelow(WOut);
    BasicBlock::InstrList &Block = S.B.insertBlock()->instructions();
    const size_t Mark = Block.size();
    UndoInt.assign(S.IntPool.begin(), S.IntPool.end());
    UndoFp.assign(S.FpPool.begin(), S.FpPool.end());
    uint64_t CalleeSteps = 0;
    if (Pick < WAlu)
      genAlu(S);
    else if (Pick < WMulDiv)
      genMulDiv(S);
    else if (Pick < WMem)
      genMem(S);
    else if (Pick < WFp)
      genFp(S);
    else if (Pick < WCall)
      CalleeSteps = genCall(S);
    else {
      S.B.out(pickInt(S));
      spend(S, 1);
    }
    const uint64_t Steps = Block.size() - Mark + CalleeSteps;
    if (Steps <= Allowance)
      return Steps;
    Block.resize(Mark);
    S.IntPool.swap(UndoInt);
    S.FpPool.swap(UndoFp);
    return 0;
  }

  /// Calls inside deeply nested loops multiply the callee's dynamic
  /// cost, so calls stay near the top level. The step cap itself is
  /// genStraightline's: it takes back a call whose callee does not fit.
  bool canCall(unsigned Depth) const { return Depth <= 2; }

  void genAlu(FnState &S) {
    static const Opcode Bin[] = {Opcode::Add, Opcode::Sub,  Opcode::And,
                                 Opcode::Or,  Opcode::Xor,  Opcode::Nor,
                                 Opcode::Slt, Opcode::SltU};
    static const Opcode Imm[] = {Opcode::AddI, Opcode::AndI, Opcode::OrI,
                                 Opcode::XorI, Opcode::Sll,  Opcode::Srl,
                                 Opcode::Sra,  Opcode::SltI};
    if (R.chance(1, 2)) {
      Opcode Op = Bin[R.nextBelow(8)];
      pushInt(S, S.B.binop(Op, pickInt(S), pickInt(S)));
    } else {
      Opcode Op = Imm[R.nextBelow(8)];
      int64_t ImmVal;
      if (Op == Opcode::Sll || Op == Opcode::Srl || Op == Opcode::Sra)
        ImmVal = static_cast<int64_t>(R.nextBelow(32));
      else
        ImmVal = R.nextInRange(-32768, 32767);
      pushInt(S, S.B.immop(Op, pickInt(S), ImmVal));
    }
    if (R.chance(1, 6))
      pushInt(S, S.B.li(randomValue()));
    spend(S, 1);
  }

  void genMulDiv(FnState &S) {
    static const Opcode Ops[] = {Opcode::Mul,  Opcode::Div,  Opcode::Rem,
                                 Opcode::SllV, Opcode::SrlV, Opcode::SraV};
    Opcode Op = Ops[R.nextBelow(6)];
    pushInt(S, S.B.binop(Op, pickInt(S), pickInt(S)));
    spend(S, 1);
  }

  /// An always-in-bounds address for global \p G: either a constant
  /// offset, or a pool value masked to the global's power-of-two size.
  /// Returns the operand and charges \p S.Budget for any address code.
  MemOperand genAddress(FnState &S, unsigned G, bool ByteGranular) {
    uint32_t Words = GlobalWords[G];
    std::string Name = "g" + std::to_string(G);
    if (R.chance(1, 2)) {
      // Direct: constant offset inside the global.
      int32_t Offset =
          ByteGranular
              ? static_cast<int32_t>(R.nextBelow(Words * 4))
              : static_cast<int32_t>(R.nextBelow(Words)) * 4;
      return MemOperand::global(Name, Offset);
    }
    // Computed: base = &g; index = pool & (Words - 1); addr = base+idx*4.
    Reg Base = S.B.la(Name);
    Reg Idx = S.B.andi(pickInt(S), Words - 1);
    Reg Off = S.B.sll(Idx, 2);
    Reg Ea = S.B.add(Base, Off);
    spend(S, 4);
    int32_t Offset =
        ByteGranular ? static_cast<int32_t>(R.nextBelow(4)) : 0;
    return MemOperand::reg(Ea, Offset);
  }

  void genMem(FnState &S) {
    unsigned G = static_cast<unsigned>(R.nextBelow(GlobalWords.size()));
    bool Byte = C.AllowBytes && R.chance(1, 4);
    MemOperand Addr = genAddress(S, G, Byte);
    switch (R.nextBelow(3)) {
    case 0: // Load.
      if (Byte)
        pushInt(S, R.chance(1, 2) ? S.B.lb(Addr) : S.B.lbu(Addr));
      else if (C.AllowFp && R.chance(1, 5))
        pushFp(S, S.B.lwFp(Addr)); // l.s: word load into the FP file.
      else
        pushInt(S, S.B.lw(Addr));
      break;
    case 1: // Store.
      if (Byte)
        S.B.sb(pickInt(S), Addr);
      else if (C.AllowFp && !S.FpPool.empty() && R.chance(1, 5))
        S.B.sw(pickFp(S), Addr); // s.s: word store from the FP file.
      else
        S.B.sw(pickInt(S), Addr);
      break;
    default: // Read-modify-write, a dense address/value slice mix.
      if (Byte) {
        Reg V = S.B.lbu(Addr);
        Reg V2 = S.B.addi(V, R.nextInRange(-4, 4));
        S.B.sb(V2, Addr);
        spend(S, 2);
      } else {
        Reg V = S.B.lw(Addr);
        Reg V2 = S.B.binop(R.chance(1, 2) ? Opcode::Add : Opcode::Xor, V,
                           pickInt(S));
        S.B.sw(V2, Addr);
        spend(S, 2);
      }
      break;
    }
    spend(S, 1);
  }

  void genFp(FnState &S) {
    if (S.FpPool.empty()) {
      pushFp(S, S.B.fli(randomFloat()));
      spend(S, 1);
      return;
    }
    switch (R.nextBelow(8)) {
    case 0:
      pushFp(S, S.B.fadd(pickFp(S), pickFp(S)));
      break;
    case 1:
      pushFp(S, S.B.fsub(pickFp(S), pickFp(S)));
      break;
    case 2:
      pushFp(S, S.B.fmul(pickFp(S), pickFp(S)));
      break;
    case 3:
      pushFp(S, S.B.fdiv(pickFp(S), pickFp(S)));
      break;
    case 4:
      pushFp(S, S.B.fli(randomFloat()));
      break;
    case 5:
      pushFp(S, S.B.fmove(pickFp(S)));
      break;
    case 6:
      // int bits -> float value (cvt.s.w on a value copied across).
      pushFp(S, S.B.fcvtIF(S.B.cpToFp(pickInt(S))));
      spend(S, 1);
      break;
    default:
      // float -> int bits, then back to the INT file as data.
      pushInt(S, S.B.cpToInt(S.B.fcvtFI(pickFp(S))));
      spend(S, 1);
      break;
    }
    spend(S, 1);
  }

  /// Returns the callee's steps.
  uint64_t genCall(FnState &S) {
    // Only strictly lower-index helpers are callable: acyclic graph.
    unsigned Limit = S.HelperIndex;
    if (Limit == 0)
      return 0;
    unsigned Callee = static_cast<unsigned>(R.nextBelow(Limit));
    std::vector<Reg> Args;
    for (unsigned A = 0; A < HelperFormals[Callee]; ++A)
      Args.push_back(pickInt(S));
    bool WantResult = R.chance(3, 4);
    Reg Res = S.B.call(Helpers[Callee]->name(), Args, WantResult);
    if (WantResult)
      pushInt(S, Res);
    spend(S, 1);
    return HelperSteps[Callee];
  }

  const GenConfig &C;
  Rng R;
  std::unique_ptr<sir::Module> M;
  std::vector<uint32_t> GlobalWords;
  std::vector<Function *> Helpers;
  std::vector<unsigned> HelperFormals;
  std::vector<uint64_t> HelperSteps; ///< Each helper's step bound.
  /// The pools before the straight-line step in progress.
  std::vector<Reg> UndoInt, UndoFp;
};

} // namespace

std::unique_ptr<sir::Module> testgen::generateModule(const GenConfig &Config,
                                                     uint64_t Seed) {
  auto M = GeneratorImpl(Config, Seed).run();
  assert(sir::verify(*M).empty() && "generator emitted an invalid module");
  return M;
}

uint64_t testgen::moduleSeed(uint64_t BaseSeed, uint64_t Iteration) {
  // splitmix64 finalizer over the combined pair.
  uint64_t Z = BaseSeed + 0x9e3779b97f4a7c15ULL * (Iteration + 1);
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

GenConfig testgen::presetConfig(const std::string &Name) {
  GenConfig C;
  if (Name == "default" || Name.empty())
    return C;
  if (Name == "branchy") {
    C.LoopPct = 30;
    C.DiamondPct = 45;
    C.AluWeight = 12;
    C.MemWeight = 3;
    C.FpWeight = 1;
    C.MainRegionDepth = 4;
    return C;
  }
  if (Name == "memory") {
    C.MemWeight = 14;
    C.AluWeight = 6;
    C.NumGlobals = 4;
    C.MaxGlobalWords = 64;
    return C;
  }
  if (Name == "fp") {
    C.FpWeight = 10;
    C.AluWeight = 6;
    C.MemWeight = 4;
    return C;
  }
  if (Name == "calls") {
    C.NumHelpers = 3;
    C.CallWeight = 8;
    C.HelperInstrBudget = 40;
    return C;
  }
  if (Name == "tiny") {
    C.NumHelpers = 0;
    C.NumGlobals = 1;
    C.MainInstrBudget = 20;
    C.MainRegionDepth = 1;
    C.FpWeight = 1;
    return C;
  }
  if (Name == "intonly") {
    C.AllowFp = false;
    C.FpWeight = 0;
    return C;
  }
  assert(false && "unknown generator preset");
  return C;
}

const std::vector<std::string> &testgen::presetNames() {
  static const std::vector<std::string> Names = {
      "default", "branchy", "memory", "fp", "calls", "tiny", "intonly"};
  return Names;
}
