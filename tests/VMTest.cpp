//===- tests/VMTest.cpp - Functional interpreter tests --------------------===//

#include "sir/IRBuilder.h"
#include "sir/Parser.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <type_traits>

using namespace fpint;
using namespace fpint::sir;
using namespace fpint::vm;

namespace {

std::unique_ptr<Module> parseOrDie(const char *Src) {
  ParseResult PR = parseModule(Src);
  EXPECT_TRUE(PR.ok()) << PR.Error << " at line " << PR.Line;
  return std::move(PR.M);
}

TEST(VM, ArithmeticBasics) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %a, 7
  li %b, 5
  add %s, %a, %b
  sub %d, %a, %b
  mul %p, %a, %b
  div %q, %a, %b
  rem %r, %a, %b
  out %s
  out %d
  out %p
  out %q
  out %r
  ret
}
)");
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int32_t>{12, 2, 35, 1, 2}));
}

TEST(VM, WrappingAndShifts) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %max, 2147483647
  addi %w, %max, 1
  out %w
  li %a, -8
  sra %x, %a, 1
  srl %y, %a, 28
  sll %z, %a, 1
  out %x
  out %y
  out %z
  li %b, 3
  sllv %v, %a, %b
  out %v
  ret
}
)");
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output,
            (std::vector<int32_t>{INT32_MIN, -4, 15, -16, -64}));
}

TEST(VM, DivisionByZeroIsTotal) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %a, 42
  li %z, 0
  div %q, %a, %z
  rem %r, %a, %z
  out %q
  out %r
  li %min, -2147483648
  li %m1, -1
  div %q2, %min, %m1
  out %q2
  ret
}
)");
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int32_t>{0, 42, 0}));
}

TEST(VM, ComparisonsAndBranches) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %a, -3
  li %b, 2
  slt %s, %a, %b
  sltu %u, %a, %b
  out %s
  out %u
  bltz %a, neg
  out %b
  ret
neg:
  li %one, 1
  out %one
  ret
}
)");
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  // -3 < 2 signed; 0xFFFFFFFD > 2 unsigned.
  EXPECT_EQ(R.Output, (std::vector<int32_t>{1, 0, 1}));
}

TEST(VM, GlobalsAndByteMemory) {
  auto M = parseOrDie(R"(
global words 4 = 100 200 300
global bytes 2

func main() {
entry:
  lw %a, words+4
  out %a
  li %v, 300
  sw %v, words+12
  lw %b, words+12
  out %b
  li %c, 513
  sb %c, bytes
  lbu %d, bytes
  out %d
  li %n, -1
  sb %n, bytes+1
  lb %e, bytes+1
  lbu %f, bytes+1
  out %e
  out %f
  ret
}
)");
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int32_t>{200, 300, 1, -1, 255}));
}

TEST(VM, RegisterIndirectAddressing) {
  auto M = parseOrDie(R"(
global tab 8 = 5 10 15 20 25 30 35 40

func main() {
entry:
  la %base, tab
  li %i, 0
  li %sum, 0
loop:
  sll %off, %i, 2
  add %p, %base, %off
  lw %v, 0(%p)
  add %sum, %sum, %v
  addi %i, %i, 1
  slti %t, %i, 8
  bne %t, %zero, loop
  out %sum
  ret
}
)");
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int32_t>{180}));
}

TEST(VM, CallsArgumentsAndReturnValues) {
  auto M = parseOrDie(R"(
func fib(%n) {
entry:
  slti %t, %n, 2
  beq %t, %zero, rec
  ret %n
rec:
  addi %n1, %n, -1
  call %a, fib(%n1)
  addi %n2, %n, -2
  call %b, fib(%n2)
  add %s, %a, %b
  ret %s
}

func main() {
entry:
  li %n, 10
  call %r, fib(%n)
  out %r
  ret
}
)");
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int32_t>{55}));
}

TEST(VM, MainArguments) {
  auto M = parseOrDie(R"(
func main(%x, %y) {
entry:
  add %s, %x, %y
  out %s
  ret %s
}
)");
  VM Machine(*M);
  auto R = Machine.run({30, 12});
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int32_t>{42}));
  EXPECT_EQ(R.ExitValue, 42);
}

TEST(VM, FramesIsolatePerInvocation) {
  auto M = parseOrDie(R"(
func helper(%depth) {
entry:
  sw %depth, [frame+0]
  blez %depth, base
  addi %d1, %depth, -1
  call %ignored, helper(%d1)
base:
  lw %back, [frame+0]
  ret %back
}

func main() {
entry:
  li %n, 5
  call %r, helper(%n)
  out %r
  ret
}
)");
  // Each invocation's frame slot must be private: after the recursive
  // call, the outer frame still holds its own depth.
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int32_t>{5}));
}

TEST(VM, FloatingPointPipeline) {
  auto M = parseOrDie(R"(
global fv 2

func main() {
entry:
  fli %a, 1.5
  fli %b, 2.25
  fadd %c, %a, %b
  s.s %c, fv
  l.s %d, fv
  fmul %e, %d, %d
  fcmplt %t, %a, %e
  fbeqz %t, skip
  li %yes, 1
  out %yes
skip:
  cp_to_int %bits, %e
  out %bits
  ret
}
)");
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  ASSERT_EQ(R.Output.size(), 2u);
  EXPECT_EQ(R.Output[0], 1);
  float E;
  static_assert(sizeof(float) == 4);
  std::memcpy(&E, &R.Output[1], 4);
  EXPECT_FLOAT_EQ(E, 3.75f * 3.75f);
}

TEST(VM, IntToFloatConversions) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %i, 7
  cp_to_fp %fbits, %i
  cvtif %f, %fbits
  fadd %g, %f, %f
  cvtfi %gi, %g
  cp_to_int %out, %gi
  out %out
  ret
}
)");
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int32_t>{14}));
}

TEST(VM, FpaAssignedCodeComputesIntegerResults) {
  // FPa-offloaded integer arithmetic operates on integer bit patterns
  // held in FP registers; results must match plain integer execution.
  auto M = parseOrDie(R"(
func main() {
entry:
  li,a %x, 1000
  addi,a %y, %x, -58
  sll,a %z, %y, 2
  andi,a %w, %z, 4095
  out,a %w
  ret
}
)");
  auto R = runModule(*M);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int32_t>{(((1000 - 58) << 2) & 4095)}));
}

TEST(VM, ProfileCountsBlocks) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %i, 0
  li %n, 17
loop:
  addi %i, %i, 1
  slt %t, %i, %n
  bne %t, %zero, loop
  out %i
  ret
}
)");
  VM::Options Opts;
  Opts.CollectProfile = true;
  VM Machine(*M, Opts);
  auto R = Machine.run();
  ASSERT_TRUE(R.Ok) << R.Error;
  const Function *F = M->functionByName("main");
  const BasicBlock *Entry = F->blocks()[0].get();
  const BasicBlock *Loop = F->blocks()[1].get();
  EXPECT_EQ(Machine.profile().countOf(Entry), 1u);
  EXPECT_EQ(Machine.profile().countOf(Loop), 17u);
  EXPECT_EQ(Machine.profile().DynInstrs, R.Steps);
}

TEST(VM, TraceRecordsBranchOutcomesAndAddresses) {
  auto M = parseOrDie(R"(
global g 1 = 11

func main() {
entry:
  li %i, 0
loop:
  addi %i, %i, 1
  slti %t, %i, 3
  bne %t, %zero, loop
  lw %v, g
  out %v
  ret
}
)");
  VM::Options Opts;
  Opts.CollectTrace = true;
  VM Machine(*M, Opts);
  auto R = Machine.run();
  ASSERT_TRUE(R.Ok) << R.Error;

  unsigned Branches = 0, Taken = 0, Loads = 0;
  for (const TraceEntry &TE : Machine.trace()) {
    if (TE.I->isCondBranch()) {
      ++Branches;
      Taken += TE.Taken;
    }
    if (TE.I->isLoad()) {
      ++Loads;
      EXPECT_EQ(TE.MemAddr, Machine.globalAddress("g"));
    }
  }
  EXPECT_EQ(Branches, 3u); // Loop runs three iterations.
  EXPECT_EQ(Taken, 2u);
  EXPECT_EQ(Loads, 1u);
  // PCs are 4-byte spaced and monotone within a straight-line block.
  ASSERT_GE(Machine.trace().size(), 2u);
  EXPECT_EQ(Machine.trace()[1].Pc, Machine.trace()[0].Pc + 4);
}

/// Collects what a TraceSink is handed.
struct CollectingSink final : TraceSink {
  std::vector<TraceEntry> Entries;
  std::vector<size_t> Batches;
  void consume(const TraceEntry *E, size_t Count) override {
    Entries.insert(Entries.end(), E, E + Count);
    Batches.push_back(Count);
  }
};

TEST(VM, TraceSinkGetsTheWholeTraceInBatches) {
  // Stops on the step budget, so the last partial batch must also be
  // handed over when a run ends in a trap.
  auto M = parseOrDie(R"(
global g 1
func main() {
entry:
  li %i, 0
  la %p, g
spin:
  addi %i, %i, 1
  sw %i, 0(%p)
  slti %t, %i, 100000
  bne %t, %zero, spin
  ret
}
)");
  VM::Options Opts;
  Opts.CollectTrace = true;
  Opts.MaxSteps = 10000;
  VM Kept(*M, Opts);
  VM::Result KeptR = Kept.run();
  CollectingSink Sink;
  Opts.Sink = &Sink;
  VM Streamed(*M, Opts);
  VM::Result StreamedR = Streamed.run();

  EXPECT_EQ(KeptR.Trap.Kind, TrapKind::FuelExhausted);
  EXPECT_EQ(StreamedR.Trap.Kind, TrapKind::FuelExhausted);
  EXPECT_TRUE(Streamed.trace().empty());
  ASSERT_EQ(Sink.Entries.size(), Kept.trace().size());
  for (size_t I = 0; I < Sink.Entries.size(); ++I) {
    const TraceEntry &A = Kept.trace()[I], &B = Sink.Entries[I];
    ASSERT_TRUE(A.I == B.I && A.Pc == B.Pc && A.MemAddr == B.MemAddr &&
                A.Taken == B.Taken)
        << "entry " << I;
  }
  ASSERT_EQ(Sink.Batches.size(), 3u); // 4096 + 4096 + the rest.
  EXPECT_EQ(Sink.Batches[0], VM::TraceBatch);
  EXPECT_EQ(Sink.Batches[1], VM::TraceBatch);
  EXPECT_EQ(Sink.Batches[2], Kept.trace().size() - 2 * VM::TraceBatch);
}

TEST(VM, InfiniteLoopHitsBudget) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %a, 1
spin:
  add %a, %a, %a
  jmp spin
}
)");
  VM::Options Opts;
  Opts.MaxSteps = 1000;
  VM Machine(*M, Opts);
  auto R = Machine.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("budget"), std::string::npos);
}

TEST(VM, OutOfBoundsAccessFails) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %p, -4
  lw %v, 0(%p)
  out %v
  ret
}
)");
  auto R = runModule(*M);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("out of bounds"), std::string::npos);
}

TEST(VM, DeepRecursionGuard) {
  auto M = parseOrDie(R"(
func f(%n) {
entry:
  addi %m, %n, 1
  call %r, f(%m)
  ret %r
}

func main() {
entry:
  li %z, 0
  call %r, f(%z)
  ret
}
)");
  VM::Options Opts;
  Opts.MaxCallDepth = 100;
  VM Machine(*M, Opts);
  auto R = Machine.run();
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("depth"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Lazily mapped memory: same address map, bounds and traps as a flat
// zero-filled array of Options::MemBytes bytes.
//===----------------------------------------------------------------------===//

static_assert(!std::is_copy_constructible_v<VM>,
              "a VM owns its memory mapping");
static_assert(!std::is_copy_assignable_v<VM>,
              "a VM owns its memory mapping");

const uint32_t MemTop = VM::Options().MemBytes;

/// Runs a main that applies \p Body to the address %p = \p Addr.
VM::Result runAt(uint32_t Addr, const std::string &Body) {
  auto M = parseOrDie(("func main() {\nentry:\n  li %p, " +
                       std::to_string(Addr) + "\n" + Body + "  ret\n}\n")
                          .c_str());
  return runModule(*M);
}

TEST(VMMemory, WordAccessAtTopOfMemory) {
  auto R = runAt(MemTop - 4, "  li %v, 77\n  sw %v, 0(%p)\n"
                             "  lw %w, 0(%p)\n  out %w\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int32_t>{77}));

  const std::string Past = std::to_string(MemTop - 3);
  auto St = runAt(MemTop - 3, "  li %v, 1\n  sw %v, 0(%p)\n");
  EXPECT_EQ(St.Trap.Kind, TrapKind::OobStore);
  EXPECT_EQ(St.Error, "store out of bounds at " + Past);
  auto Ld = runAt(MemTop - 3, "  lw %w, 0(%p)\n  out %w\n");
  EXPECT_EQ(Ld.Trap.Kind, TrapKind::OobLoad);
  EXPECT_EQ(Ld.Error, "load out of bounds at " + Past);
}

TEST(VMMemory, ByteAccessAtTopOfMemory) {
  auto R = runAt(MemTop - 1, "  li %v, 200\n  sb %v, 0(%p)\n"
                             "  lbu %w, 0(%p)\n  out %w\n");
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, (std::vector<int32_t>{200}));

  const std::string Past = std::to_string(MemTop);
  auto St = runAt(MemTop, "  li %v, 1\n  sb %v, 0(%p)\n");
  EXPECT_EQ(St.Trap.Kind, TrapKind::OobStore);
  EXPECT_EQ(St.Error, "store out of bounds at " + Past);
  auto Ld = runAt(MemTop, "  lbu %w, 0(%p)\n  out %w\n");
  EXPECT_EQ(Ld.Trap.Kind, TrapKind::OobLoad);
  EXPECT_EQ(Ld.Error, "load out of bounds at " + Past);
}

TEST(VMMemory, UntouchedPagesReadZero) {
  // One word per 1 MiB, none ever written.
  std::string Body;
  for (uint32_t Mb = 1; Mb < MemTop >> 20; ++Mb) {
    std::string R = "%w" + std::to_string(Mb);
    Body += "  lw " + R + ", " + std::to_string(Mb << 20) + "(%p)\n";
    Body += "  out " + R + "\n";
  }
  auto R = runAt(0, Body);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Output, std::vector<int32_t>((MemTop >> 20) - 1, 0));
}

TEST(VMMemory, GlobalImageIsInitializersThenZeros) {
  auto M = parseOrDie(R"(
global a 4 = 1 -2
global b 3 = 5

func main() {
entry:
  ret
}
)");
  VM Machine(*M);
  ASSERT_TRUE(Machine.run().Ok);
  std::vector<int32_t> Words = {1, -2, 0, 0, 5, 0, 0};
  std::vector<uint8_t> Expected(Words.size() * 4);
  std::memcpy(Expected.data(), Words.data(), Expected.size());
  EXPECT_EQ(Machine.globalImage(), Expected);
}

TEST(VMMemory, SeparateVMsDoNotShareMemory) {
  // Each run reads the global and a far stack-area word, then writes
  // both; a second VM of the same module must still see the initial
  // values.
  auto M = parseOrDie(("global g 1 = 40\n\nfunc main() {\nentry:\n"
                       "  li %p, " +
                       std::to_string(MemTop - 64) +
                       "\n"
                       "  lw %a, g\n  out %a\n  lw %b, 0(%p)\n  out %b\n"
                       "  addi %c, %a, 1\n  sw %c, g\n"
                       "  li %d, 9\n  sw %d, 0(%p)\n  ret\n}\n")
                          .c_str());
  const std::vector<int32_t> Fresh = {40, 0};
  VM First(*M);
  ASSERT_EQ(First.run().Output, Fresh);
  VM Second(*M);
  EXPECT_EQ(Second.run().Output, Fresh);
  EXPECT_EQ(First.globalImage(), (std::vector<uint8_t>{41, 0, 0, 0}));
  EXPECT_EQ(Second.globalImage(), (std::vector<uint8_t>{41, 0, 0, 0}));
}

//===----------------------------------------------------------------------===//
// Reused guest mappings: a VM that dirtied few pages leaves its mapping,
// zeroed, to the thread's next VM of its size. That VM must see exactly
// what a freshly mapped one would.
//===----------------------------------------------------------------------===//

/// Runs a main with body \p Body in a VM of \p Opts on this thread.
VM::Result runBody(const std::string &Body, VM::Options Opts = {},
                   const std::string &Globals = "") {
  auto M = parseOrDie((Globals + "func main() {\nentry:\n" + Body +
                       "  ret\n}\n")
                          .c_str());
  VM Machine(*M, Opts);
  return Machine.run();
}

/// Stores \p Value as a word (or a byte) at each of \p Addrs.
std::string storesAt(const std::vector<uint32_t> &Addrs, int32_t Value,
                     bool Byte = false) {
  std::string Body = "  li %v, " + std::to_string(Value) + "\n";
  for (uint32_t A : Addrs)
    Body += "  li %p, " + std::to_string(A) + "\n  " +
            (Byte ? "sb" : "sw") + " %v, 0(%p)\n";
  return Body;
}

/// The words at \p Addrs, read by the thread's next VM of \p Opts.
std::vector<int32_t> wordsAt(const std::vector<uint32_t> &Addrs,
                             VM::Options Opts = {}) {
  std::string Body;
  for (size_t K = 0; K < Addrs.size(); ++K) {
    const std::string R = "%w" + std::to_string(K);
    Body += "  li %p, " + std::to_string(Addrs[K]) + "\n  lw " + R +
            ", 0(%p)\n  out " + R + "\n";
  }
  VM::Result R = runBody(Body, Opts);
  EXPECT_TRUE(R.Ok) << R.Error;
  return R.Output;
}

std::vector<int32_t> zeros(size_t N) { return std::vector<int32_t>(N, 0); }

TEST(VMReuse, WrittenPagesReadZeroInTheNextVM) {
  const uint32_t Page = 4096;
  struct Case {
    const char *What;
    std::string Body;
    std::vector<uint32_t> Probe; ///< Word addresses written.
  };
  const std::vector<Case> Cases = {
      {"global-area stores", storesAt({0x1000, 0x1ffc, 0x2000}, -1),
       {0x1000, 0x1ffc, 0x2000}},
      {"deep-stack stores", storesAt({MemTop - 4, MemTop - 9 * Page}, 5),
       {MemTop - 4, MemTop - 9 * Page}},
      {"a word store straddling a page",
       storesAt({3 * Page - 2}, -1), {3 * Page - 4, 3 * Page}},
      {"byte stores", storesAt({0x1001, 5 * Page - 1, MemTop - 1}, 0xab, true),
       {0x1000, 5 * Page - 4, MemTop - 4}},
      {"stores before an out-of-bounds trap",
       storesAt({0x1000, MemTop - 8}, 3) + storesAt({MemTop - 3}, 4) +
           storesAt({0x1004}, 6),
       {0x1000, 0x1004, MemTop - 8}},
  };
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.What);
    runBody(""); // Leaves this thread an idle mapping.
    const uint64_t Mapped = VM::threadMappings();
    runBody(C.Body);
    EXPECT_EQ(wordsAt(C.Probe), zeros(C.Probe.size()));
    EXPECT_EQ(VM::threadMappings(), Mapped) << "the mapping was not reused";
  }
}

TEST(VMReuse, GlobalImageMatchesAFreshVM) {
  auto M = parseOrDie(R"(
global a 4 = 1 -2
global b 1027 = 5

func main() {
entry:
  li %v, 99
  sw %v, a+8
  sw %v, b+4104
  sb %v, b+1
  ret
}
)");
  {
    VM Dirty(*M);
    ASSERT_TRUE(Dirty.run().Ok);
  }
  VM Reused(*M);
  VM Fresh(*M); // Maps anew: Reused holds the thread's idle mapping.
  EXPECT_EQ(Reused.globalImage(), Fresh.globalImage());
  std::vector<uint8_t> Initial(4 * (4 + 1027), 0);
  const int32_t Init[] = {1, -2, 0, 0, 5};
  std::memcpy(Initial.data(), Init, sizeof(Init));
  EXPECT_EQ(Fresh.globalImage(), Initial);
}

TEST(VMReuse, TwoLiveVMsOnOneThread) {
  auto M = parseOrDie(R"(
global g 1

func main(%x) {
entry:
  lw %old, g
  out %old
  sw %x, g
  ret
}
)");
  for (bool FirstDiesFirst : {true, false}) {
    SCOPED_TRACE(FirstDiesFirst ? "first dies first" : "second dies first");
    auto A = std::make_unique<VM>(*M);
    auto B = std::make_unique<VM>(*M);
    EXPECT_EQ(A->run({1}).Output, (std::vector<int32_t>{0}));
    EXPECT_EQ(B->run({2}).Output, (std::vector<int32_t>{0}));
    EXPECT_EQ(A->run({3}).Output, (std::vector<int32_t>{1}));
    EXPECT_EQ(B->run({4}).Output, (std::vector<int32_t>{2}));
    if (FirstDiesFirst) {
      A.reset();
      B.reset();
    } else {
      B.reset();
      A.reset();
    }
    EXPECT_EQ(VM(*M).run({5}).Output, (std::vector<int32_t>{0}));
    EXPECT_EQ(VM(*M).run({6}).Output, (std::vector<int32_t>{0}));
  }
}

TEST(VMReuse, ManyDirtyPagesUnmapInsteadOfZeroing) {
  std::vector<uint32_t> Addrs;
  for (uint32_t K = 0; K < 40; ++K)
    Addrs.push_back(0x1000 + K * 4096);
  runBody("");
  const uint64_t Mapped = VM::threadMappings();
  runBody(storesAt(Addrs, 7));
  EXPECT_EQ(wordsAt(Addrs), zeros(Addrs.size()));
  EXPECT_EQ(VM::threadMappings(), Mapped + 1) << "the next VM maps afresh";
}

TEST(VMReuse, NonDefaultMemBytes) {
  VM::Options Small;
  Small.MemBytes = 3 * 4096 + 100; // A partial last page.
  const uint32_t Top = Small.MemBytes;
  {
    // Holding the thread's idle default-size mapping empties its one
    // idle slot, so the small VM leaves its mapping there.
    auto Empty = parseOrDie("func main() {\nentry:\n  ret\n}\n");
    VM Holder(*Empty);
    runBody(storesAt({0x1000, Top - 4}, 8), Small);
  }
  const uint64_t Mapped = VM::threadMappings();
  EXPECT_EQ(wordsAt({0x1000, Top - 4}, Small), zeros(2));
  EXPECT_EQ(VM::threadMappings(), Mapped) << "the small mapping was reused";
  // A default-size VM never takes the small mapping, and the reverse.
  EXPECT_EQ(wordsAt({0x1000, Top - 4, MemTop - 4}), zeros(3));
  EXPECT_EQ(VM::threadMappings(), Mapped + 1);
  runBody(storesAt({0x1000, Top - 4}, 9));
  EXPECT_EQ(wordsAt({0x1000, Top - 4}, Small), zeros(2));
  EXPECT_EQ(wordsAt({0x1000, Top - 4}), zeros(2));
  VM::Result Past = runBody(storesAt({Top - 3}, 1), Small);
  EXPECT_EQ(Past.Trap.Kind, TrapKind::OobStore);
}

} // namespace
