//===- tests/SimulatorTest.cpp - Fast-path simulator equivalence ----------===//
//
// The fast cycle loop (packed SoA trace, dense in-flight ring,
// event-driven issue) must be bit-identical to the reference loop: same
// SimStats, same telemetry breakdown, on every fixture and machine.
// These tests pin that contract, the PackedTrace round-trip, the typed
// SimulationOverrun condition, and that no environment variable makes
// the simulator approximate.
//
//===----------------------------------------------------------------------===//

#include "campaign/Explore.h"
#include "core/Pipeline.h"
#include "sir/Parser.h"
#include "timing/MachineConfig.h"
#include "timing/PackedTrace.h"
#include "timing/Simulator.h"
#include "workloads/Workloads.h"

#include "PaperExamples.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <stdexcept>

using namespace fpint;
using namespace fpint::timing;
using namespace fpint::core;

namespace {

PipelineRun compileSrc(const char *Src, partition::Scheme S) {
  sir::ParseResult PR = sir::parseModule(Src);
  EXPECT_TRUE(PR.ok()) << PR.Error;
  PipelineConfig Cfg;
  Cfg.Scheme = S;
  Cfg.Passes = "profile,partition,regalloc";
  PipelineRun Run = compileAndMeasure(*PR.M, Cfg);
  EXPECT_TRUE(Run.ok()) << (Run.Errors.empty() ? "?" : Run.Errors[0]);
  return Run;
}

/// The ref-input trace as a fresh VM run hands it out, kept as entries
/// (independent of the packer).
std::vector<vm::TraceEntry> vmEntries(const PipelineRun &Run) {
  vm::VM::Options Opts;
  Opts.CollectTrace = true;
  vm::VM Machine(*Run.Compiled, Opts);
  Machine.run(Run.Config.RefArgs);
  return Machine.takeTrace();
}

/// Runs \p Run on \p M with the given path selection, over the VM's own
/// entries: the reference loop reads them directly and the fast loop
/// packs them, so a packer bug shows as a divergence.
SimStats runPath(const PipelineRun &Run, const MachineConfig &M, bool Fast,
                 stats::EventSink *Sink = nullptr) {
  Simulator Sim(M, Run.Alloc);
  Sim.setFastPath(Fast);
  Sim.setEventSink(Sink);
  return Sim.run(vmEntries(Run));
}

/// The trace fields a VM entry carries, entry by entry.
void expectEntriesEqual(const std::vector<vm::TraceEntry> &Got,
                        const std::vector<vm::TraceEntry> &Want,
                        const std::string &Label) {
  ASSERT_EQ(Got.size(), Want.size()) << Label;
  for (size_t K = 0; K < Got.size(); ++K) {
    ASSERT_EQ(Got[K].I, Want[K].I) << Label << " entry " << K;
    ASSERT_EQ(Got[K].Pc, Want[K].Pc) << Label << " entry " << K;
    ASSERT_EQ(Got[K].MemAddr, Want[K].MemAddr) << Label << " entry " << K;
    ASSERT_EQ(Got[K].Taken, Want[K].Taken) << Label << " entry " << K;
  }
}

/// Every PackedTrace field, static table and dynamic arrays.
void expectPackedEqual(const PackedTrace &A, const PackedTrace &B,
                       const std::string &Label) {
  ASSERT_EQ(A.Ops.size(), B.Ops.size()) << Label;
  for (size_t K = 0; K < A.Ops.size(); ++K) {
    const PackedOp &X = A.Ops[K], &Y = B.Ops[K];
    EXPECT_EQ(X.I, Y.I) << Label << " op " << K;
    EXPECT_EQ(X.Pc, Y.Pc) << Label << " op " << K;
    EXPECT_EQ(X.Class, Y.Class) << Label << " op " << K;
    EXPECT_EQ(X.Latency, Y.Latency) << Label << " op " << K;
    EXPECT_EQ(X.Flags, Y.Flags) << Label << " op " << K;
    EXPECT_EQ(X.Def, Y.Def) << Label << " op " << K;
    ASSERT_EQ(X.NumUses, Y.NumUses) << Label << " op " << K;
    for (unsigned U = 0; U < X.NumUses; ++U)
      EXPECT_EQ(X.Uses[U], Y.Uses[U]) << Label << " op " << K;
  }
  EXPECT_EQ(A.OpIdx, B.OpIdx) << Label;
  EXPECT_EQ(A.MemAddr, B.MemAddr) << Label;
  EXPECT_EQ(A.Taken, B.Taken) << Label;
  EXPECT_EQ(A.HasFpa, B.HasFpa) << Label;
}

/// Every deterministic SimStats field (wall time and telemetry
/// pointers excluded, by design).
void expectStatsEqual(const SimStats &Ref, const SimStats &Fast,
                      const std::string &Label) {
  EXPECT_EQ(Ref.Cycles, Fast.Cycles) << Label;
  EXPECT_EQ(Ref.Instructions, Fast.Instructions) << Label;
  EXPECT_EQ(Ref.IntIssued, Fast.IntIssued) << Label;
  EXPECT_EQ(Ref.FpIssued, Fast.FpIssued) << Label;
  EXPECT_EQ(Ref.CondBranches, Fast.CondBranches) << Label;
  EXPECT_EQ(Ref.Mispredicts, Fast.Mispredicts) << Label;
  EXPECT_EQ(Ref.Loads, Fast.Loads) << Label;
  EXPECT_EQ(Ref.Stores, Fast.Stores) << Label;
  EXPECT_EQ(Ref.DCacheMisses, Fast.DCacheMisses) << Label;
  EXPECT_EQ(Ref.ICacheMisses, Fast.ICacheMisses) << Label;
  EXPECT_EQ(Ref.StoreForwards, Fast.StoreForwards) << Label;
  EXPECT_EQ(Ref.FpBusyCycles, Fast.FpBusyCycles) << Label;
  EXPECT_EQ(Ref.IntIdleFpBusyCycles, Fast.IntIdleFpBusyCycles) << Label;
}

void expectBreakdownsEqual(const stats::StallBreakdown &Ref,
                           const stats::StallBreakdown &Fast,
                           const std::string &Label) {
  EXPECT_EQ(Ref.Cycles, Fast.Cycles) << Label;
  EXPECT_EQ(Ref.NonIssuingCycles, Fast.NonIssuingCycles) << Label;
  for (unsigned R = 0; R < stats::NumStallReasons; ++R)
    EXPECT_EQ(Ref.StallCycles[R], Fast.StallCycles[R])
        << Label << " reason "
        << stats::stallReasonName(static_cast<stats::StallReason>(R));
  EXPECT_EQ(Ref.IntIssueHist, Fast.IntIssueHist) << Label;
  EXPECT_EQ(Ref.FpIssueHist, Fast.FpIssueHist) << Label;
  EXPECT_EQ(Ref.IntWindowFullCycles, Fast.IntWindowFullCycles) << Label;
  EXPECT_EQ(Ref.FpWindowFullCycles, Fast.FpWindowFullCycles) << Label;
  EXPECT_EQ(Ref.IntWindowOccupancySum, Fast.IntWindowOccupancySum) << Label;
  EXPECT_EQ(Ref.FpWindowOccupancySum, Fast.FpWindowOccupancySum) << Label;
}

//===----------------------------------------------------------------------===//
// (a) Fast path == reference path across fixtures x machines.
//===----------------------------------------------------------------------===//

TEST(FastPath, MatchesReferenceAcrossFixturesAndMachines) {
  const struct {
    const char *Name;
    const char *Src;
  } Fixtures[] = {
      {"IntVectorSum", fixtures::IntVectorSum},
      {"InvalidateForCall", fixtures::InvalidateForCall},
      {"MemoryFreeRand", fixtures::MemoryFreeRand},
  };
  const partition::Scheme Schemes[] = {partition::Scheme::None,
                                       partition::Scheme::Advanced};
  const MachineConfig Machines[] = {MachineConfig::fourWay(),
                                    MachineConfig::eightWay()};
  for (const auto &Fx : Fixtures)
    for (partition::Scheme S : Schemes) {
      PipelineRun Run = compileSrc(Fx.Src, S);
      for (const MachineConfig &M : Machines) {
        std::string Label = std::string(Fx.Name) + "/" +
                            partition::schemeName(S) + "/" + M.Name;
        SimStats Ref = runPath(Run, M, /*Fast=*/false);
        SimStats Fast = runPath(Run, M, /*Fast=*/true);
        expectStatsEqual(Ref, Fast, Label);
        // The packed overload must agree with the entry-vector one.
        Simulator Sim(M, Run.Alloc);
        Sim.setFastPath(true);
        expectStatsEqual(Ref, Sim.run(Run.packedTrace()), Label + "/packed");
      }
    }
}

//===----------------------------------------------------------------------===//
// (b) Telemetry on long stalls: the stall partition holds and the
// whole breakdown is bit-identical to the reference loop's.
//===----------------------------------------------------------------------===//

TEST(FastPath, TelemetryIdenticalOnLongStalls) {
  // The multiply chain stalls for long spans (6-cycle dependent ops),
  // so most of its cycles issue nothing and need a stall reason.
  std::string Mul = "func main() {\nentry:\n  li %a, 3\n";
  for (int I = 0; I < 200; ++I)
    Mul += "  mul %a, %a, %a\n";
  Mul += "  out %a\n  ret\n}\n";

  const struct {
    const char *Name;
    std::string Src;
    partition::Scheme Scheme;
  } Cases[] = {
      {"mulchain", Mul, partition::Scheme::None},
      {"invalidate", fixtures::InvalidateForCall, partition::Scheme::Advanced},
      {"rand", fixtures::MemoryFreeRand, partition::Scheme::Advanced},
  };
  for (const auto &C : Cases) {
    PipelineRun Run = compileSrc(C.Src.c_str(), C.Scheme);
    for (const MachineConfig &M :
         {MachineConfig::fourWay(), MachineConfig::eightWay()}) {
      stats::StallBreakdown Ref, Fast;
      SimStats RS = runPath(Run, M, /*Fast=*/false, &Ref);
      SimStats FS = runPath(Run, M, /*Fast=*/true, &Fast);
      std::string Label = std::string(C.Name) + "/" + M.Name;
      expectStatsEqual(RS, FS, Label);
      EXPECT_TRUE(Fast.partitionHolds()) << Label;
      EXPECT_EQ(Fast.Cycles, FS.Cycles) << Label;
      expectBreakdownsEqual(Ref, Fast, Label);
    }
  }
}

//===----------------------------------------------------------------------===//
// (b2) The fast loop's event-driven issue structures -- per-operand
// consumer lists, the ready/waiting bitsets, the in-flight store FIFO --
// under shapes that stress each of them, on every swept machine.
//===----------------------------------------------------------------------===//

/// Each iteration: two back-to-back divides that hold the INT units
/// while an independent load is ready (a load that evaluates memory
/// but finds no free unit); a store whose address waits on a third
/// divide, with a load of the same word (forwarded) and one of another
/// word queued behind it; instructions reading one register in two
/// operand slots; and a second store/load pair to a fixed word. The
/// multiplies ahead of each store keep it in flight after it issues,
/// so the loads behind it find it in the store queue.
const char *StressShapes = R"(
global buf 64
global other 16 = 5 6 7 8

func main() {
entry:
  li %i, 0
  li %v, 7
  li %d, 3
  la %b, buf
  la %o, other
loop:
  div %q1, %v, %d
  div %q2, %v, %d
  lw %z, 12(%o)
  div %q3, %q1, %d
  mul %slow, %q3, %q3
  andi %off, %q3, 60
  add %ea, %b, %off
  sw %v, 0(%ea)
  lw %w, 0(%ea)
  lw %x, 4(%o)
  add %s, %w, %w
  mul %m, %x, %x
  add %v2, %s, %m
  add %v2, %v2, %q2
  add %v2, %v2, %z
  mul %slow2, %v2, %slow
  sw %v2, 8(%o)
  lw %y, 8(%o)
  xor %v, %slow2, %y
  andi %v, %v, 1023
  addi %v, %v, 5
  addi %i, %i, 1
  slti %t, %i, 60
  bne %t, %zero, loop
  out %v
  ret
}
)";

TEST(FastPath, MatchesReferenceOnStressShapes) {
  std::vector<campaign::MachinePoint> Machines = {
      {"4-way", MachineConfig::fourWay()},
      {"8-way", MachineConfig::eightWay()}};
  for (const campaign::MachinePoint &P : campaign::exploreGrid("full"))
    Machines.push_back(P);
  MachineConfig Narrow = MachineConfig::fourWay();
  Narrow.IntUnits = 1;
  Narrow.LoadStorePorts = 1;
  Narrow.MaxInFlight = 8;
  Narrow.FetchBreaksOnTaken = true;
  Machines.push_back({"narrow", Narrow});

  for (partition::Scheme S :
       {partition::Scheme::None, partition::Scheme::Advanced}) {
    PipelineRun Run = compileSrc(StressShapes, S);
    for (const campaign::MachinePoint &P : Machines) {
      const MachineConfig &M = P.M;
      std::string Label = std::string(partition::schemeName(S)) + "/" + P.Label;
      SimStats Ref = runPath(Run, M, /*Fast=*/false);
      expectStatsEqual(Ref, runPath(Run, M, /*Fast=*/true), Label);
      EXPECT_GT(Ref.StoreForwards, 0u) << Label;

      stats::StallBreakdown RefB, FastB;
      SimStats RefS = runPath(Run, M, /*Fast=*/false, &RefB);
      SimStats FastS = runPath(Run, M, /*Fast=*/true, &FastB);
      expectStatsEqual(Ref, RefS, Label + "/sink");
      expectStatsEqual(RefS, FastS, Label + "/sink");
      expectBreakdownsEqual(RefB, FastB, Label + "/sink");
    }
  }
}

//===----------------------------------------------------------------------===//
// (b3) The fast loop probes the I-cache once per run of fetches within
// one line, and ends its issue walk once no subsystem can issue again.
// Race both cuts against the reference loop at every I-cache line size,
// on an I-cache small enough to miss, and on narrow and lopsided unit
// mixes, with and without a stall-attribution sink.
//===----------------------------------------------------------------------===//

TEST(FastPath, MatchesReferenceAcrossICacheLinesAndUnitMixes) {
  std::vector<campaign::MachinePoint> Machines;
  for (uint32_t LineBytes : {32u, 64u, 128u, 256u}) {
    MachineConfig M = MachineConfig::fourWay();
    M.ICache.LineBytes = LineBytes;
    Machines.push_back({"iline" + std::to_string(LineBytes), M});
  }
  MachineConfig Small = MachineConfig::fourWay();
  Small.ICache = CacheConfig{128, 1, 32, 1, 6}; // Four 32-byte lines.
  Machines.push_back({"small-icache", Small});
  MachineConfig OneOne = MachineConfig::fourWay();
  OneOne.IntUnits = 1;
  OneOne.FpUnits = 1;
  Machines.push_back({"units1+1", OneOne});
  MachineConfig FourTwo = MachineConfig::eightWay();
  FourTwo.IntUnits = 4;
  FourTwo.FpUnits = 2;
  Machines.push_back({"units4+2", FourTwo});

  const struct {
    const char *Name;
    const char *Src;
  } Fixtures[] = {
      {"IntVectorSum", fixtures::IntVectorSum},
      {"InvalidateForCall", fixtures::InvalidateForCall},
      {"MemoryFreeRand", fixtures::MemoryFreeRand},
      {"StressShapes", StressShapes},
  };
  uint64_t SmallMisses = 0, DefaultMisses = 0;
  for (const auto &Fx : Fixtures)
    for (partition::Scheme S :
         {partition::Scheme::None, partition::Scheme::Advanced}) {
      PipelineRun Run = compileSrc(Fx.Src, S);
      for (const campaign::MachinePoint &P : Machines) {
        const std::string Label = std::string(Fx.Name) + "/" +
                                  partition::schemeName(S) + "/" + P.Label;
        SimStats Ref = runPath(Run, P.M, /*Fast=*/false);
        expectStatsEqual(Ref, runPath(Run, P.M, /*Fast=*/true), Label);

        stats::StallBreakdown RefB, FastB;
        SimStats RefS = runPath(Run, P.M, /*Fast=*/false, &RefB);
        SimStats FastS = runPath(Run, P.M, /*Fast=*/true, &FastB);
        expectStatsEqual(Ref, RefS, Label + "/sink");
        expectStatsEqual(RefS, FastS, Label + "/sink");
        expectBreakdownsEqual(RefB, FastB, Label + "/sink");

        if (P.Label == "small-icache")
          SmallMisses += Ref.ICacheMisses;
        if (P.Label == "iline128")
          DefaultMisses += Ref.ICacheMisses;
      }
    }
  // The small I-cache must miss well beyond its compulsory misses, so
  // the line memo is raced against LRU evictions.
  EXPECT_GT(SmallMisses, 4 * DefaultMisses);
}

//===----------------------------------------------------------------------===//
// (c) PackedTrace round-trips every TraceEntry field.
//===----------------------------------------------------------------------===//

TEST(PackedTraceTest, RoundTripsEveryEntryField) {
  for (const char *Src :
       {fixtures::IntVectorSum, fixtures::InvalidateForCall,
        fixtures::MemoryFreeRand}) {
    PipelineRun Run = compileSrc(Src, partition::Scheme::Advanced);
    const std::vector<vm::TraceEntry> Trace = vmEntries(Run);
    PackedTrace PT = PackedTrace::build(Trace, Run.Alloc);
    ASSERT_EQ(PT.size(), Trace.size());
    for (size_t I = 0; I < Trace.size(); ++I) {
      vm::TraceEntry E = PT.entry(I);
      ASSERT_EQ(E.I, Trace[I].I) << "entry " << I;
      ASSERT_EQ(E.Pc, Trace[I].Pc) << "entry " << I;
      ASSERT_EQ(E.MemAddr, Trace[I].MemAddr) << "entry " << I;
      ASSERT_EQ(E.Taken, Trace[I].Taken) << "entry " << I;
    }
    // The bulk reconstruction agrees with the per-entry one.
    std::vector<vm::TraceEntry> Rebuilt = PT.entries();
    ASSERT_EQ(Rebuilt.size(), Trace.size());
    // And a partitioned trace must carry the FPa marker.
    if (Run.Stats.Fpa > 0) {
      EXPECT_TRUE(PT.HasFpa);
    }
  }
}

TEST(PackedTraceTest, CachedOnTraceHandleAcrossMachines) {
  PipelineRun Run =
      compileSrc(fixtures::IntVectorSum, partition::Scheme::Advanced);
  const PackedTrace &A = Run.packedTrace();
  const PackedTrace &B = Run.packedTrace();
  EXPECT_EQ(&A, &B); // Built once, shared by every machine sweep.
  EXPECT_EQ(&Run.refTrace(), &A); // An alias, never a rebuild.
  EXPECT_EQ(Run.Trace->Captures, 1u);
}

// core::simulate replays the run's packed trace; it must report exactly
// what simulating a fresh VM run of the compiled module reports.
TEST(PackedTraceTest, TraceReplayMatchesDirectSimulation) {
  PipelineRun Run =
      compileSrc(fixtures::IntVectorSum, partition::Scheme::Advanced);
  const MachineConfig Four = MachineConfig::fourWay();
  expectStatsEqual(
      simulateModule(*Run.Compiled, Run.Alloc, Four, Run.Config.RefArgs),
      core::simulate(Run, Four), "replay");
}

// A trace that traps after a loop: the packed trace is the prefix.
const char *TrapsAfterLoop = R"(
global acc 4

func main() {
entry:
  li %i, 0
  li %n, 50
  li %s, 0
loop:
  addi %i, %i, 1
  add %s, %s, %i
  andi %j, %i, 3
  sll %j, %j, 2
  la %b, acc
  add %q, %b, %j
  lw %v, 0(%q)
  add %v, %v, %s
  sw %v, 0(%q)
  slt %t, %i, %n
  bne %t, %zero, loop
  out %s
  li %p, -4096
  lw %w, 0(%p)
  out %w
  ret
}
)";

// The trace packed while the VM runs unpacks to the VM's own entry
// vector, field for field, and equals the packer run over that vector
// in one batch, on every figure program and a trapping fixture; one VM
// run fills it, and a complete trace fits its reserved arrays exactly.
TEST(PackedTraceTest, PackedWhileTracingEqualsPackingTheVmEntries) {
  std::vector<workloads::Workload> Ws = workloads::intWorkloads();
  Ws.push_back(workloads::workloadByName("ear"));
  Ws.push_back(workloads::workloadByName("swim"));
  for (const workloads::Workload &W : Ws)
    for (partition::Scheme S :
         {partition::Scheme::None, partition::Scheme::Advanced}) {
      const std::string Label = W.Name + "/" + partition::schemeName(S);
      PipelineConfig Cfg;
      Cfg.Scheme = S;
      Cfg.TrainArgs = W.TrainArgs;
      Cfg.RefArgs = W.RefArgs;
      PipelineRun Run = compileAndMeasure(*W.M, Cfg);
      ASSERT_TRUE(Run.ok()) << Label;
      const PackedTrace &PT = Run.packedTrace();
      EXPECT_EQ(Run.Trace->Captures, 1u) << Label;
      EXPECT_EQ(PT.size(), Run.RefResult.Steps) << Label;
      EXPECT_EQ(PT.OpIdx.capacity(), PT.size()) << Label;
      EXPECT_EQ(PT.MemAddr.capacity(), PT.size()) << Label;
      EXPECT_EQ(PT.Taken.capacity(), PT.size()) << Label;
      const std::vector<vm::TraceEntry> Entries = vmEntries(Run);
      expectEntriesEqual(PT.entries(), Entries, Label);
      expectPackedEqual(PT, PackedTrace::build(Entries, Run.Alloc), Label);
    }

  PipelineRun Run = compileSrc(TrapsAfterLoop, partition::Scheme::Advanced);
  ASSERT_EQ(Run.RefResult.Trap.Kind, vm::TrapKind::OobLoad);
  const std::vector<vm::TraceEntry> Prefix = vmEntries(Run);
  ASSERT_GT(Prefix.size(), 400u);
  expectEntriesEqual(Run.packedTrace().entries(), Prefix, "trapping");
  expectPackedEqual(Run.packedTrace(), PackedTrace::build(Prefix, Run.Alloc),
                    "trapping");
  EXPECT_EQ(Run.Trace->Captures, 1u);
}

// simulateModule packs while tracing and reports a trapping run as a
// typed error carrying the trap message.
TEST(PackedTraceTest, SimulateModuleThrowsOnATrap) {
  PipelineRun Ok =
      compileSrc(fixtures::IntVectorSum, partition::Scheme::Advanced);
  const MachineConfig Four = MachineConfig::fourWay();
  expectStatsEqual(runPath(Ok, Four, /*Fast=*/true),
                   simulateModule(*Ok.Compiled, Ok.Alloc, Four,
                                  Ok.Config.RefArgs),
                   "complete");

  PipelineRun Trapping =
      compileSrc(TrapsAfterLoop, partition::Scheme::Advanced);
  try {
    simulateModule(*Trapping.Compiled, Trapping.Alloc, Four);
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error &E) {
    EXPECT_EQ(std::string(E.what()), Trapping.RefResult.Error);
  }
}

//===----------------------------------------------------------------------===//
// (d) The simulator is exact-only: no environment variable can switch
// it to an approximate mode behind the caller's back.
//===----------------------------------------------------------------------===//

TEST(ExactOnly, SampleEnvironmentVariableHasNoEffect) {
  workloads::Workload W = workloads::workloadByName("compress");
  PipelineConfig Cfg;
  Cfg.Scheme = partition::Scheme::Advanced;
  Cfg.TrainArgs = W.TrainArgs;
  Cfg.RefArgs = W.RefArgs;
  PipelineRun Run = compileAndMeasure(*W.M, Cfg);
  ASSERT_TRUE(Run.ok());
  const MachineConfig M = MachineConfig::fourWay();

  // The variable that once switched on sampled simulation
  // (warmup:window:stride) from every Simulator constructor.
  const char *Var = "FPINT_SIM_SAMPLE";
  ASSERT_EQ(setenv(Var, "50:100:400", 1), 0);
  SimStats WithVar = runPath(Run, M, /*Fast=*/true);
  ASSERT_EQ(unsetenv(Var), 0);
  SimStats Without = runPath(Run, M, /*Fast=*/true);

  EXPECT_EQ(WithVar.Instructions, Run.RefResult.Steps);
  expectStatsEqual(Without, WithVar, std::string(Var) + " set vs unset");
}

//===----------------------------------------------------------------------===//
// SafetyLimit overrun: a typed, reportable condition on both paths.
//===----------------------------------------------------------------------===//

TEST(Overrun, PathologicalConfigThrowsTypedError) {
  PipelineRun Run =
      compileSrc(fixtures::IntVectorSum, partition::Scheme::None);
  MachineConfig Wedged = MachineConfig::fourWay();
  Wedged.IntUnits = 0; // Integer code can never issue: no progress.
  for (bool Fast : {false, true}) {
    Simulator Sim(Wedged, Run.Alloc);
    Sim.setFastPath(Fast);
    try {
      Sim.run(Run.packedTrace());
      FAIL() << "expected SimulationOverrun (fast=" << Fast << ")";
    } catch (const SimulationOverrun &O) {
      EXPECT_GT(O.Cycle, O.Limit);
      EXPECT_EQ(O.TraceSize, Run.packedTrace().size());
      EXPECT_LT(O.Retired, O.TraceSize);
      EXPECT_NE(std::string(O.what()).find("overrun"), std::string::npos);
    }
  }
}

} // namespace
