//===- tests/RewriterTest.cpp - Assignment application mechanics ----------===//

#include "analysis/CFG.h"
#include "analysis/RDG.h"
#include "partition/AdvancedPartitioner.h"
#include "partition/BasicPartitioner.h"
#include "partition/Partitioner.h"
#include "partition/Rewriter.h"
#include "sir/Parser.h"
#include "sir/Printer.h"
#include "sir/Verifier.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

using namespace fpint;
using namespace fpint::partition;
using namespace fpint::sir;

namespace {

std::unique_ptr<Module> parseOrDie(const char *Src) {
  ParseResult PR = parseModule(Src);
  EXPECT_TRUE(PR.ok()) << PR.Error << " at line " << PR.Line;
  return std::move(PR.M);
}

/// Applies a hand-built assignment and checks verification + output
/// equivalence against \p Expected.
void applyAndCheck(Module &M, Function &F, const Assignment &A,
                   const std::vector<int32_t> &Expected,
                   RewriteReport *Report = nullptr) {
  auto Errs = validateAssignment(A);
  ASSERT_TRUE(Errs.empty()) << Errs[0];
  RewriteReport R = applyAssignment(F, A);
  auto Verify = verify(M);
  ASSERT_TRUE(Verify.empty()) << Verify[0] << "\n" << toString(M);
  auto Run = vm::runModule(M);
  ASSERT_TRUE(Run.Ok) << Run.Error;
  EXPECT_EQ(Run.Output, Expected) << toString(M);
  if (Report)
    *Report = R;
}

TEST(Rewriter, RetypeWhenAllDefsAreFpa) {
  // One register, one FPa def, FPa uses only: the register itself is
  // retyped to the FP file -- no shadow register is created.
  auto M = parseOrDie(R"(
global g 1 = 41

func main() {
entry:
  lw %v, g
  addi %w, %v, 1
  sw %w, g
  lw %o, g
  out %o
  ret
}
)");
  Function &F = *M->functionByName("main");
  analysis::CFG Cfg(F);
  analysis::RDG G(F, Cfg);
  Assignment A = partitionBasic(G);

  unsigned RegsBefore = F.numRegs();
  applyAndCheck(*M, F, A, {42});
  // Retype adds no registers for this simple component.
  EXPECT_EQ(F.numRegs(), RegsBefore);
  // The addi is FPa, the load/store are l.s/s.s forms.
  std::string Text = toString(F);
  EXPECT_NE(Text.find("addi,a"), std::string::npos) << Text;
  EXPECT_NE(Text.find("l.s"), std::string::npos);
  EXPECT_NE(Text.find("s.s"), std::string::npos);
}

TEST(Rewriter, ShadowWhenDefsAreMixed) {
  // A register with an INT def (feeding an address) consumed by an FPa
  // chain through a copy: the rewriter must introduce a shadow FP
  // register and a cp_to_fp after the def.
  auto M = parseOrDie(R"(
global tab 8 = 9 8 7 6 5 4 3 2
global sink 1

func main() {
entry:
  li %i, 0
  li %acc, 0
loop:
  sll %off, %i, 2
  la %b, tab
  add %ea, %b, %off
  lw %v, 0(%ea)
  xor %acc, %acc, %v
  sll %acc2, %acc, 1
  sub %acc, %acc2, %acc
  addi %i, %i, 1
  slti %t, %i, 8
  bne %t, %zero, loop
  out %acc
  ret
}
)");
  Function &F = *M->functionByName("main");
  vm::VM::Options Opts;
  Opts.CollectProfile = true;
  vm::VM Prof(*M, Opts);
  auto ProfRun = Prof.run();
  ASSERT_TRUE(ProfRun.Ok);
  auto Expected = ProfRun.Output;

  analysis::CFG Cfg(F);
  analysis::RDG G(F, Cfg);
  analysis::BlockWeights W(*M, &Prof.profile());
  Assignment A = partitionAdvanced(G, W);

  RewriteReport Report;
  applyAndCheck(*M, F, A, Expected, &Report);
  std::string Text = toString(F);
  if (!Report.CopyInstrs.empty() || !Report.DupInstrs.empty()) {
    // Some communication was inserted; it must print as cp_to_fp or an
    // ",a" clone.
    EXPECT_TRUE(Text.find("cp_to_fp") != std::string::npos ||
                Text.find(",a") != std::string::npos)
        << Text;
  }
}

TEST(Rewriter, DuplicateClonesSitNextToOriginals) {
  // The paper's Figure 6: a duplicated induction chain keeps the INT
  // original and adds an adjacent FPa clone.
  auto M = parseOrDie(R"(
global arr 16 = 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16

func main() {
entry:
  li %i, 0
  li %sig, 0
loop:
  sll %off, %i, 2
  la %b, arr
  add %ea, %b, %off
  lw %v, 0(%ea)
  xor %x1, %v, %sig
  sll %x2, %x1, 1
  addi %x3, %x2, 3
  xor %x4, %x3, %v
  andi %sig, %x4, 65535
  addi %i, %i, 1
  slti %t, %i, 16
  bne %t, %zero, loop
  out %sig
  ret
}
)");
  Function &F = *M->functionByName("main");
  vm::VM::Options Opts;
  Opts.CollectProfile = true;
  vm::VM Prof(*M, Opts);
  auto ProfRun = Prof.run();
  ASSERT_TRUE(ProfRun.Ok);

  analysis::CFG Cfg(F);
  analysis::RDG G(F, Cfg);
  analysis::BlockWeights W(*M, &Prof.profile());
  Assignment A = partitionAdvanced(G, W);

  RewriteReport Report;
  applyAndCheck(*M, F, A, ProfRun.Output, &Report);
  for (const Instruction *Dup : Report.DupInstrs) {
    EXPECT_TRUE(Dup->inFpa());
    // The clone sits right after an INT original with the same opcode.
    const sir::BasicBlock *BB = Dup->parent();
    size_t Pos = BB->positionOf(Dup);
    ASSERT_GT(Pos, 0u);
    const Instruction &Orig = *BB->instructions()[Pos - 1];
    EXPECT_EQ(Orig.op(), Dup->op());
    EXPECT_FALSE(Orig.inFpa());
    EXPECT_EQ(Orig.imm(), Dup->imm());
  }
}

TEST(Rewriter, CopyBackRestoresIntegerRegisterForCalls) {
  auto M = parseOrDie(R"(
global data 4 = 10 20 30 40
global acc 1

func use(%v) {
entry:
  lw %a, acc
  add %a2, %a, %v
  sw %a2, acc
  ret
}

func main() {
entry:
  li %i, 0
loop:
  sll %off, %i, 2
  la %b, data
  add %ea, %b, %off
  lw %v, 0(%ea)
  sll %h1, %v, 2
  xor %h2, %h1, %v
  addi %h3, %h2, 9
  sll %h4, %h3, 1
  sub %h5, %h4, %h3
  call use(%h5)
  addi %i, %i, 1
  slti %t, %i, 4
  bne %t, %zero, loop
  lw %r, acc
  out %r
  ret
}
)");
  Function &F = *M->functionByName("main");
  vm::VM::Options Opts;
  Opts.CollectProfile = true;
  vm::VM Prof(*M, Opts);
  auto ProfRun = Prof.run();
  ASSERT_TRUE(ProfRun.Ok);

  analysis::CFG Cfg(F);
  analysis::RDG G(F, Cfg);
  analysis::BlockWeights W(*M, &Prof.profile());
  Assignment A = partitionAdvanced(G, W);

  RewriteReport Report;
  applyAndCheck(*M, F, A, ProfRun.Output, &Report);
  // If the h-chain stayed in FPa, a cp_to_int must restore the call
  // argument; if it moved to INT, no copy-backs exist. Either way the
  // argument register the call consumes is integer class (verified),
  // and any copy-back prints as cp_to_int.
  std::string Text = toString(F);
  if (!Report.CopyBackInstrs.empty()) {
    EXPECT_NE(Text.find("cp_to_int"), std::string::npos) << Text;
  }
}

TEST(Rewriter, FormalCopyLandsAtEntry) {
  // Force a formal-parameter copy by hand: assign the formal's FPa
  // consumers and mark the formal node Copy.
  auto M = parseOrDie(R"(
func f(%x) {
entry:
  sll %a, %x, 1
  xor %b, %a, %x
  out %b
  ret
}

func main() {
entry:
  li %v, 21
  call f(%v)
  ret
}
)");
  Function &F = *M->functionByName("f");
  analysis::CFG Cfg(F);
  analysis::RDG G(F, Cfg);

  Assignment A(G);
  for (unsigned N = 0; N < G.numNodes(); ++N)
    A.NodeSide[N] = pinnedToInt(G, N) ? Side::Int : Side::Fpa;
  A.Copy[G.formalNode(0)] = true;

  RewriteReport Report;
  applyAndCheck(*M, F, A, {63}, &Report);
  ASSERT_EQ(Report.CopyInstrs.size(), 1u);
  // The copy is the first instruction of the entry block.
  EXPECT_EQ(F.entry()->instructions()[0].get(), Report.CopyInstrs[0]);
  EXPECT_EQ(Report.CopyInstrs[0]->op(), Opcode::CpToFp);
}

TEST(Rewriter, HandBuiltAssignmentRoundTrip) {
  // Manually offload the store-value component and verify the exact
  // code shape (the Figure 2 transformation, by hand).
  auto M = parseOrDie(R"(
global a 2 = 5
global b 2 = 7
global c 2

func main() {
entry:
  lw %va, a
  lw %vb, b
  add %vc, %va, %vb
  sw %vc, c
  lw %o, c
  out %o
  ret
}
)");
  Function &F = *M->functionByName("main");
  analysis::CFG Cfg(F);
  analysis::RDG G(F, Cfg);

  Assignment A(G);
  for (unsigned N = 0; N < G.numNodes(); ++N)
    A.NodeSide[N] = pinnedToInt(G, N) ? Side::Int : Side::Fpa;

  applyAndCheck(*M, F, A, {12});
  std::string Text = toString(F);
  EXPECT_NE(Text.find("add,a"), std::string::npos) << Text;
  EXPECT_NE(Text.find("s.s"), std::string::npos) << Text;
  // Two data loads plus the checking load all become l.s.
  size_t Count = 0;
  for (size_t Pos = Text.find("l.s"); Pos != std::string::npos;
       Pos = Text.find("l.s", Pos + 1))
    ++Count;
  EXPECT_EQ(Count, 3u) << Text;
}

TEST(Rewriter, BasicNeverGrowsCode) {
  for (const char *Src : {R"(
global g 4 = 1 2 3
func main() {
entry:
  lw %a, g
  lw %b, g+4
  add %c, %a, %b
  sw %c, g+8
  out %c
  ret
}
)"}) {
    auto M = parseOrDie(Src);
    Function &F = *M->functionByName("main");
    unsigned Before = F.numInstrIds();
    analysis::CFG Cfg(F);
    analysis::RDG G(F, Cfg);
    Assignment A = partitionBasic(G);
    RewriteReport R = applyAssignment(F, A);
    EXPECT_EQ(R.staticAdded(), 0u);
    EXPECT_EQ(F.numInstrIds(), Before);
  }
}

TEST(Rewriter, RetypedRegisterReadBeforeAnyDefinition) {
  // The call reads %r before its only definition, an FPa addi, so no
  // definition reaches the call and the partition plans no copy-back.
  // %r moves to the FP file; the call must read a never-written integer
  // register instead, which holds the same zero.
  auto M = parseOrDie(R"(
func id(%x) {
entry:
  ret %x
}

func main() {
entry:
  call %a, id(%r)
  out %a
  li %s, 5
  addi %r, %s, 1
  out %r
  ret
}
)");
  Function &F = *M->functionByName("main");
  analysis::CFG Cfg(F);
  analysis::RDG G(F, Cfg);
  Assignment A(G);
  // li, addi and the second out.
  for (size_t Pos : {2, 3, 4})
    A.NodeSide[G.primaryNode(*F.entry()->instructions()[Pos])] = Side::Fpa;

  RewriteReport Report;
  applyAndCheck(*M, F, A, {0, 6}, &Report);
  EXPECT_TRUE(Report.CopyBackInstrs.empty());
  const Instruction &Call = *F.entry()->instructions()[0];
  ASSERT_EQ(Call.op(), Opcode::Call);
  EXPECT_EQ(F.regClass(Call.uses()[0]), RegClass::Int) << toString(F);
}

TEST(Rewriter, AdvancedSchemeCompilesUseInUnreachableBlock) {
  // Reduced by fpint-fuzz (module 0x252253a8bd81a33a, preset intonly;
  // also tests/corpus/regressions/rewriter_unreached_use.sir): entry.2
  // is unreachable, so no definition of %r6 reaches its call, and %r6's
  // one definition goes to FPa. The rewrite used to abort here.
  auto M = parseOrDie(R"(
func f0(%r1, %r2, %r3) {
entry:
  li %r4, 1431655765
  li %r5, 11
loop3:
  addi %r6, %r2, 23313
  bgtz %r5, loop3
entry.1:
  ret %r4
entry.2:
  call %r7, f0(%r6, %r8, %r6)
  ret %r1
}

func main() {
entry:
  ret
}
)");
  ModuleRewrite RW = partitionModule(*M, Scheme::Advanced, nullptr);
  EXPECT_TRUE(RW.Errors.empty());
  auto Verify = verify(*M);
  EXPECT_TRUE(Verify.empty()) << Verify[0] << "\n" << toString(*M);
  auto Run = vm::runModule(*M);
  EXPECT_TRUE(Run.Ok) << Run.Error;
}

} // namespace
