//===- tests/TransformTest.cpp - LICM and inline unit tests --------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Positive and negative unit tests for each mid-end transform, run
/// directly through the transform:: entry points: LICM hoists
/// invariant pure computation but refuses memory operations,
/// loop-varying operands, and values live into the header; the
/// inliner refuses recursive and over-budget callees. Every
/// transformed module must pass the strict (dataflow-checking)
/// verifier.
///
//===----------------------------------------------------------------------===//

#include "sir/Parser.h"
#include "sir/Verifier.h"
#include "transform/Transforms.h"
#include "vm/VM.h"

#include <gtest/gtest.h>

using namespace fpint;
using namespace fpint::sir;

namespace {

std::unique_ptr<Module> parseOrDie(const char *Src) {
  ParseResult PR = parseModule(Src);
  EXPECT_TRUE(PR.ok()) << PR.Error << " at line " << PR.Line;
  if (PR.M)
    PR.M->renumber();
  return std::move(PR.M);
}

void expectStrictlyValid(const Module &M) {
  VerifyOptions Strict;
  Strict.CheckDataflow = true;
  for (const std::string &E : verify(M, Strict))
    ADD_FAILURE() << "verify: " << E;
}

unsigned countOps(const Function &F, Opcode Op) {
  unsigned N = 0;
  F.forEachInstr([&](const Instruction &I) {
    if (I.op() == Op)
      ++N;
  });
  return N;
}

/// Runs main() and expects the same observable behavior as \p Reference
/// produced before the transform.
void expectSameBehavior(const Module &Reference, const Module &Transformed) {
  vm::VM::Result Want = vm::runModule(Reference, {});
  vm::VM::Result Got = vm::runModule(Transformed, {});
  ASSERT_TRUE(Want.Ok) << Want.Error;
  ASSERT_TRUE(Got.Ok) << Got.Error;
  EXPECT_EQ(Want.Output, Got.Output);
  EXPECT_EQ(Want.ExitValue, Got.ExitValue);
}

//===----------------------------------------------------------------------===//
// LICM
//===----------------------------------------------------------------------===//

TEST(LICM, HoistsInvariantToPreheader) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %a, 21
  li %b, 2
  li %i, 0
  li %s, 0
loop:
  mul %inv, %a, %b
  add %s, %s, %inv
  out %s
  addi %i, %i, 1
  slti %c, %i, 10
  bgtz %c, loop
exit:
  ret %s
}
)");
  auto Reference = M->clone();
  Function &F = *M->functionByName("main");
  EXPECT_EQ(transform::runLICM(F), 1u);
  // The mul now lives in the preheader (entry, block 0), not the loop.
  ASSERT_GE(F.blocks().size(), 2u);
  EXPECT_EQ(countOps(F, Opcode::Mul), 1u);
  bool InEntry = false;
  for (const auto &I : F.blocks()[0]->instructions())
    if (I->op() == Opcode::Mul)
      InEntry = true;
  EXPECT_TRUE(InEntry);
  expectStrictlyValid(*M);
  expectSameBehavior(*Reference, *M);
}

TEST(LICM, RefusesMemoryOperations) {
  auto M = parseOrDie(R"(
global g 1 = 5

func main() {
entry:
  li %i, 0
  li %s, 0
loop:
  lw %v, g
  add %s, %s, %v
  sw %s, g
  addi %i, %i, 1
  slti %c, %i, 4
  bgtz %c, loop
exit:
  out %s
  ret %s
}
)");
  Function &F = *M->functionByName("main");
  // The lw looks invariant (g's address never changes) but the sw in
  // the same loop aliases it: memory operations are categorically not
  // hoisted.
  EXPECT_EQ(transform::runLICM(F), 0u);
  bool LoadInLoop = false;
  for (const auto &I : F.blocks()[1]->instructions())
    if (I->isLoad())
      LoadInLoop = true;
  EXPECT_TRUE(LoadInLoop);
  expectStrictlyValid(*M);
}

TEST(LICM, RefusesLoopVaryingOperand) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %b, 3
  li %i, 0
  li %s, 0
loop:
  mul %v, %i, %b
  add %s, %s, %v
  addi %i, %i, 1
  slti %c, %i, 4
  bgtz %c, loop
exit:
  out %s
  ret %s
}
)");
  Function &F = *M->functionByName("main");
  EXPECT_EQ(transform::runLICM(F), 0u); // %i changes every trip.
  expectStrictlyValid(*M);
}

TEST(LICM, RefusesValueLiveIntoHeader) {
  auto M = parseOrDie(R"(
func main() {
entry:
  li %a, 5
  li %b, 6
  li %v, 0
  li %i, 0
loop:
  out %v
  mul %v, %a, %b
  addi %i, %i, 1
  slti %c, %i, 3
  bgtz %c, loop
exit:
  ret %v
}
)");
  auto Reference = M->clone();
  Function &F = *M->functionByName("main");
  // %v is printed before it is recomputed, so the first iteration must
  // observe the preheader's 0. Hoisting the mul would print 30 instead:
  // the live-into-header check has to refuse.
  EXPECT_EQ(transform::runLICM(F), 0u);
  expectStrictlyValid(*M);
  expectSameBehavior(*Reference, *M);
}

//===----------------------------------------------------------------------===//
// Inline
//===----------------------------------------------------------------------===//

TEST(Inline, InlinesSmallLeafCallee) {
  auto M = parseOrDie(R"(
func helper(%a, %b) {
entry:
  add %t, %a, %b
  add %u, %t, %t
  ret %u
}

func main() {
entry:
  li %x, 3
  li %y, 4
  call %r, helper(%x, %y)
  out %r
  ret %r
}
)");
  auto Reference = M->clone();
  transform::InlineResult R = transform::runInline(*M);
  EXPECT_EQ(R.CallsInlined, 1u);
  EXPECT_EQ(R.SkippedRecursive, 0u);
  EXPECT_EQ(R.SkippedBudget, 0u);
  EXPECT_EQ(countOps(*M->functionByName("main"), Opcode::Call), 0u);
  expectStrictlyValid(*M);
  expectSameBehavior(*Reference, *M);
}

TEST(Inline, RefusesRecursiveCallees) {
  auto M = parseOrDie(R"(
func count(%n) {
entry:
  blez %n, base
rec:
  addi %m, %n, -1
  call %r, count(%m)
  addi %r1, %r, 1
  ret %r1
base:
  li %z, 0
  ret %z
}

func main() {
entry:
  li %n, 3
  call %r, count(%n)
  out %r
  ret %r
}
)");
  auto Reference = M->clone();
  transform::InlineResult R = transform::runInline(*M);
  // Both the self-call inside count() and main's call into the cyclic
  // function are refused.
  EXPECT_EQ(R.CallsInlined, 0u);
  EXPECT_GE(R.SkippedRecursive, 2u);
  EXPECT_EQ(countOps(*M->functionByName("main"), Opcode::Call), 1u);
  expectStrictlyValid(*M);
  expectSameBehavior(*Reference, *M);
}

TEST(Inline, RefusesOverBudgetCallee) {
  const char *Src = R"(
func helper(%a) {
entry:
  addi %a, %a, 1
  addi %a, %a, 2
  addi %a, %a, 3
  ret %a
}

func main() {
entry:
  li %x, 10
  call %r, helper(%x)
  out %r
  ret %r
}
)";
  auto M = parseOrDie(Src);
  transform::InlineOptions Tight;
  Tight.MaxCalleeInstrs = 3; // helper has 4 instructions.
  transform::InlineResult R = transform::runInline(*M, Tight);
  EXPECT_EQ(R.CallsInlined, 0u);
  EXPECT_GE(R.SkippedBudget, 1u);
  EXPECT_EQ(countOps(*M->functionByName("main"), Opcode::Call), 1u);

  auto M2 = parseOrDie(Src);
  auto Reference = M2->clone();
  transform::InlineOptions Loose;
  Loose.MaxCalleeInstrs = 4;
  R = transform::runInline(*M2, Loose);
  EXPECT_EQ(R.CallsInlined, 1u);
  expectStrictlyValid(*M2);
  expectSameBehavior(*Reference, *M2);
}

} // namespace
