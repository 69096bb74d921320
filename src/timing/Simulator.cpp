//===- timing/Simulator.cpp - Cycle-level out-of-order simulator ----------===//
//
// Two implementations of the same machine live here (see Simulator.h):
//
//  * runReference -- the original cycle loop over vm::TraceEntry
//    entries, kept deliberately simple; it is the differential oracle
//    for the fast path (FPINT_SIM_FAST=0, fpint-fuzz cross-check).
//  * runFast -- the packed fast path: pre-decoded PackedOp records,
//    one dense seq-indexed ring holding every in-flight instruction,
//    event-driven issue (per-operand consumer lists in the ring, age-
//    ordered waiting/ready bitsets, an in-flight store FIFO),
//    incremental window occupancy counters, and event-driven
//    idle-cycle skipping.
//
// Both loops read the trace through a source (an in-memory trace, or a
// runStreamed window fed by another thread), so each loop has one body
// for both kinds of input.
//
// The fast path is cycle-exact with respect to the reference loop: all
// SimStats counters and (with a sink attached) every CycleEvent are
// identical. Any behavioural change must be made to both loops;
// tests/SimulatorTest.cpp and the fuzz oracle race them.
//
//===----------------------------------------------------------------------===//

#include "timing/Simulator.h"
#include "timing/TraceStream.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <exception>
#include <new>
#include <thread>
#include <unordered_map>
#include <unordered_set>

using namespace fpint;
using namespace fpint::timing;
using sir::ExecClass;
using sir::Instruction;
using sir::Opcode;
using sir::RegClass;
using vm::TraceEntry;

namespace {

constexpr uint64_t NeverCycle = ~0ULL;

/// Pre-decoded static information about one instruction (reference
/// loop; the fast path uses timing::PackedOp instead).
struct InstrInfo {
  ExecClass Class = ExecClass::IntAlu;
  unsigned Latency = 1;
  bool FpSubsystem = false; ///< Issues from the FP window / FP units.
  bool IsLoad = false;
  bool IsStore = false;
  bool IsCondBranch = false;
  bool Unpipelined = false; ///< Divides occupy their unit fully.

  struct Operand {
    uint8_t File = 0;  ///< 0 = INT file, 1 = FP file.
    uint8_t Arch = 0;  ///< Architectural index within the file.
  };
  Operand Def;
  bool HasDef = false;
  Operand Uses[4];
  unsigned NumUses = 0;
};

/// One in-flight instruction (reference loop).
struct RobEntry {
  const TraceEntry *TE = nullptr;
  const InstrInfo *Info = nullptr;
  uint64_t Seq = 0;        ///< Program order.
  uint64_t FetchCycle = 0;
  bool Dispatched = false;
  bool Issued = false;
  uint64_t DoneCycle = NeverCycle;
  bool Mispredicted = false;
  // Producers of this entry's operands (ROB sequence numbers; entries
  // retire in order so a missing sequence number means "ready").
  uint64_t ProducerSeq[4] = {0, 0, 0, 0};
};

/// One slot of the fast path's in-flight ring. A slot is (re)initialized
/// at fetch and is live while its sequence number is in
/// [RetireSeq, NextSeq). Issue is event-driven rather than polled: at
/// rename an entry links one of its operand slots into the consumer
/// list of each source producer that has not issued yet (Pending counts
/// those links), and a producer walks its list when it issues, raising
/// each consumer's ReadyCycle to its own DoneCycle. An entry's operands
/// are therefore ready exactly when Pending == 0 && ReadyCycle <= Cycle,
/// the condition the reference loop re-derives every cycle from its
/// DoneAt map. ProducerSeq and MissedLoad serve only the sink's stall
/// attribution.
struct FastEntry {
  /// A consumer-list link: (ring slot << 2) | operand slot. A linked
  /// consumer stays live while its producer is un-issued (it is younger
  /// and retirement is in order), so its slot cannot be recycled.
  static constexpr uint32_t NoLink = ~0u;

  const PackedOp *Op = nullptr;
  uint32_t Idx = 0; ///< Dynamic-instruction index (MemAddr/Taken arrays).
  uint64_t FetchCycle = 0;
  uint64_t DoneCycle = NeverCycle;
  uint64_t ReadyCycle = 0; ///< Max DoneCycle of the issued producers.
  uint64_t ProducerSeq[4] = {0, 0, 0, 0};
  uint32_t Consumers = NoLink; ///< Head of this producer's consumer list.
  uint32_t NextConsumer[4] = {NoLink, NoLink, NoLink, NoLink}; ///< Per use.
  uint8_t Pending = 0; ///< Producers not yet issued (links to this entry).
  bool Issued = false;
  bool Mispredicted = false;
  bool MissedLoad = false; ///< Sink-only: issued load that missed.
};

/// Instructions in flight at once: the ROB plus the fetch queue (which
/// holds fewer than 3 * FetchWidth entries). Both loops touch trace
/// entries no older than this behind the fetch position.
uint64_t maxLive(const MachineConfig &Config) {
  return static_cast<uint64_t>(Config.MaxInFlight) +
         3ULL * Config.FetchWidth + 2;
}

// Trace sources for the cycle loops, passed by value so the loops keep
// their fields in registers. has(I) says whether dynamic instruction I
// exists; size() is the trace length the overrun limit is based on.

/// A whole entry vector, for runReference.
struct EntrySource {
  const std::vector<TraceEntry> &Trace;
  bool has(size_t I) const { return I < Trace.size(); }
  const TraceEntry &operator[](size_t I) const { return Trace[I]; }
  size_t size() const { return Trace.size(); }
};

/// A whole packed trace, for runFast.
struct PackedSource {
  const PackedTrace &Trace;
  size_t End;
  explicit PackedSource(const PackedTrace &T) : Trace(T), End(T.size()) {}
  bool has(size_t I) const { return I < End; }
  const PackedOp &op(size_t I) const { return Trace.op(I); }
  uint32_t memAddr(size_t I) const { return Trace.MemAddr[I]; }
  bool taken(size_t I) const { return Trace.Taken[I] != 0; }
  size_t size() const { return End; }
  bool hasFpa() const { return Trace.HasFpa; }
};

/// A TraceStream window, for runReference. Entry references stay valid
/// while their instruction is in flight.
struct StreamEntrySource {
  TraceStream *Stream;
  size_t Size;
  size_t Avail = 0; ///< Entries known written.
  bool has(size_t I) { return I < Avail || (Avail = Stream->waitFor(I)) > I; }
  const TraceEntry &operator[](size_t I) const { return Stream->at(I); }
  size_t size() const { return Size; }
};

/// A TraceStream window, for runFast: each static instruction is
/// decoded on first fetch into a node-based table, so the PackedOp
/// pointers the in-flight ring keeps stay valid.
struct StreamPackedSource {
  TraceStream *Stream;
  size_t Size;
  const regalloc::ModuleAlloc *Alloc;
  std::unordered_map<const Instruction *, PackedOp> *Ops;
  bool FpaEnabled;
  size_t Avail = 0;
  bool has(size_t I) { return I < Avail || (Avail = Stream->waitFor(I)) > I; }
  const PackedOp &op(size_t I) {
    const TraceEntry &TE = Stream->at(I);
    auto [It, New] = Ops->try_emplace(TE.I);
    if (New) {
      It->second = decodeOp(TE, *Alloc);
      assert((FpaEnabled || !It->second.is(PackedOp::InFpa)) &&
             "partitioned binary on a conventional (non-FPa) machine");
    }
    return It->second;
  }
  uint32_t memAddr(size_t I) const { return Stream->at(I).MemAddr; }
  bool taken(size_t I) const { return Stream->at(I).Taken; }
  size_t size() const { return Size; }
  bool hasFpa() const { return false; } ///< Checked per op above.
};

bool fastPathFromEnv() {
  const char *E = std::getenv("FPINT_SIM_FAST");
  return !(E && std::strcmp(E, "0") == 0);
}

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

} // namespace

//===----------------------------------------------------------------------===//
// SimulationOverrun
//===----------------------------------------------------------------------===//

SimulationOverrun::SimulationOverrun(uint64_t CycleIn, uint64_t LimitIn,
                                     uint64_t RetiredIn, uint64_t TraceSizeIn)
    : std::runtime_error("simulation overrun: no forward progress after " +
                         std::to_string(LimitIn) + " cycles (" +
                         std::to_string(RetiredIn) + "/" +
                         std::to_string(TraceSizeIn) +
                         " instructions retired)"),
      Cycle(CycleIn), Limit(LimitIn), Retired(RetiredIn),
      TraceSize(TraceSizeIn) {}

//===----------------------------------------------------------------------===//
// Simulator
//===----------------------------------------------------------------------===//

struct Simulator::Impl {
  std::unordered_map<const Instruction *, InstrInfo> InfoCache;
  std::unique_ptr<BranchPredictor> Predictor;
  std::unique_ptr<Cache> ICache;
  std::unique_ptr<Cache> DCache;

  /// Fresh machine state (predictor + caches) for one simulation pass.
  void reset(const MachineConfig &Config) {
    switch (Config.Predictor) {
    case PredictorKind::Gshare:
      Predictor = std::make_unique<GsharePredictor>(
          Config.PredictorTableBits, Config.PredictorHistoryBits);
      break;
    case PredictorKind::McFarling:
      Predictor = std::make_unique<McFarlingPredictor>(
          Config.PredictorTableBits, Config.PredictorHistoryBits);
      break;
    case PredictorKind::StaticNotTaken:
      Predictor = std::make_unique<StaticNotTakenPredictor>();
      break;
    }
    ICache = std::make_unique<Cache>(Config.ICache);
    DCache = std::make_unique<Cache>(Config.DCache);
  }
};

Simulator::Simulator(const MachineConfig &ConfigIn,
                     const regalloc::ModuleAlloc &AllocIn)
    : Config(ConfigIn), Alloc(AllocIn), State(std::make_unique<Impl>()) {
  UseFast = fastPathFromEnv();
}

Simulator::~Simulator() = default;

SimStats Simulator::run(const std::vector<TraceEntry> &Trace) {
  auto T0 = std::chrono::steady_clock::now();
  SimStats Stats;
  if (UseFast) {
    PackedTrace PT = PackedTrace::build(Trace, Alloc);
    Stats = runFast(PackedSource(PT));
  } else {
    Stats = runReference(EntrySource{Trace});
  }
  Stats.SimWallMs = msSince(T0);
  return Stats;
}

SimStats Simulator::run(const PackedTrace &Trace) {
  auto T0 = std::chrono::steady_clock::now();
  SimStats Stats;
  if (UseFast) {
    Stats = runFast(PackedSource(Trace));
  } else {
    std::vector<TraceEntry> Entries = Trace.entries();
    Stats = runReference(EntrySource{Entries});
  }
  Stats.SimWallMs = msSince(T0);
  return Stats;
}

SimStats Simulator::runStreamed(
    const std::function<void(vm::TraceSink &)> &Produce, size_t Size) {
  auto T0 = std::chrono::steady_clock::now();
  TraceStream Stream(maxLive(Config));
  std::unordered_map<const Instruction *, PackedOp> Ops;
  SimStats Stats;
  std::exception_ptr Failure;
  std::thread Reader([&] {
    try {
      if (UseFast)
        Stats = runFast(StreamPackedSource{&Stream, Size, &Alloc, &Ops,
                                           Config.FpaEnabled});
      else
        Stats = runReference(StreamEntrySource{&Stream, Size});
    } catch (...) {
      Failure = std::current_exception();
    }
    Stream.stopReading();
  });
  {
    // Also on a throwing Produce: end the trace, then wait for the loop.
    struct Finish {
      TraceStream &Stream;
      std::thread &Reader;
      ~Finish() {
        Stream.close();
        Reader.join();
      }
    } F{Stream, Reader};
    Produce(Stream);
  }
  if (Failure)
    std::rethrow_exception(Failure);
  Stats.SimWallMs = msSince(T0);
  return Stats;
}

//===----------------------------------------------------------------------===//
// Reference loop (differential oracle; FPINT_SIM_FAST=0)
//===----------------------------------------------------------------------===//

template <class Source> SimStats Simulator::runReference(Source Trace) {
  SimStats Stats;
  Impl &S = *State;
  S.reset(Config);

  // Decode helper (memoized per static instruction).
  auto InfoOf = [&](const TraceEntry &TE) -> const InstrInfo * {
    auto It = S.InfoCache.find(TE.I);
    if (It != S.InfoCache.end())
      return &It->second;
    const Instruction &I = *TE.I;
    const sir::Function *F = I.parent()->parent();
    InstrInfo Info;
    Info.Class = sir::execClass(I.op());
    Info.Latency = sir::execLatency(Info.Class);
    Info.FpSubsystem = sir::isFpOpcode(I.op()) || I.inFpa();
    Info.IsLoad = I.isLoad();
    Info.IsStore = I.isStore();
    Info.IsCondBranch = I.isCondBranch();
    Info.Unpipelined =
        Info.Class == ExecClass::IntDiv || Info.Class == ExecClass::FpDiv;
    if (I.def().isValid()) {
      Info.HasDef = true;
      Info.Def.File = F->regClass(I.def()) == RegClass::Fp;
      Info.Def.Arch =
          static_cast<uint8_t>(Alloc.archIndexOf(F, I.def()));
    }
    I.forEachUse([&](sir::Reg R, sir::UseKind) {
      assert(Info.NumUses < 4 && "too many operands");
      Info.Uses[Info.NumUses].File = F->regClass(R) == RegClass::Fp;
      Info.Uses[Info.NumUses].Arch =
          static_cast<uint8_t>(Alloc.archIndexOf(F, R));
      ++Info.NumUses;
    });
    if (!Config.FpaEnabled)
      assert(!I.inFpa() &&
             "partitioned binary on a conventional (non-FPa) machine");
    return &S.InfoCache.emplace(TE.I, Info).first->second;
  };

  // Rename state: latest in-flight producer per architectural register,
  // identified by ROB sequence number (0 = architectural/ready).
  uint64_t RenameTable[2][regalloc::ArchLayout::FileSize] = {};
  // Committed-or-done lookup: a producer is "resolved" once done.
  std::unordered_map<uint64_t, uint64_t> DoneAt; // Seq -> DoneCycle.

  std::deque<RobEntry> Rob;     // In-flight, program order.
  std::deque<RobEntry> FetchQ;  // Fetched, not yet dispatched.
  unsigned IntWindowUsed = 0, FpWindowUsed = 0;
  unsigned IntPhysFree = Config.IntPhysRegs - regalloc::ArchLayout::FileSize;
  unsigned FpPhysFree = Config.FpPhysRegs - regalloc::ArchLayout::FileSize;

  size_t FetchIdx = 0;
  uint64_t NextSeq = 1;
  uint64_t Cycle = 0;
  uint64_t FetchResumeCycle = 0;   // Fetch stalled until this cycle.
  uint64_t PendingBranchSeq = 0;   // Mispredicted branch blocking fetch.

  std::vector<uint64_t> IntUnitFree(Config.IntUnits, 0);
  std::vector<uint64_t> FpUnitFree(Config.FpUnits, 0);

  // Producers older than the ROB head have committed (retirement is in
  // order), so their values are architectural. Returns 0 when every
  // operand is ready, else the first still-executing producer's
  // sequence number (the telemetry layer attributes the wait to it).
  auto BlockingProducer = [&](const RobEntry &E,
                              uint64_t OldestSeq) -> uint64_t {
    for (unsigned U = 0; U < E.Info->NumUses; ++U) {
      uint64_t P = E.ProducerSeq[U];
      if (P == 0 || P < OldestSeq)
        continue;
      auto It = DoneAt.find(P);
      if (It == DoneAt.end() || It->second > Cycle)
        return P;
    }
    return 0;
  };

  // Telemetry state (touched only when a sink is attached; without one
  // the loop below pays a single Sink test per cycle). MissedLoads
  // holds issued-but-unretired loads that missed the D-cache so
  // operand waits on them can be attributed to the miss; ResumeKind
  // remembers what last stalled fetch (mispredict redirect vs I-miss).
  std::unordered_set<uint64_t> MissedLoads;
  stats::StallReason ResumeKind = stats::StallReason::None;

  const uint64_t SafetyLimit =
      static_cast<uint64_t>(Trace.size() + 1000) * 400 + 100000;

  while (Trace.has(FetchIdx) || !Rob.empty() || !FetchQ.empty()) {
    // Per-cycle stall attribution (sink-only): the oldest waiting
    // instruction's issue blockage and the first dispatch blockage.
    stats::StallReason IssueBlock = stats::StallReason::None;
    stats::StallReason DispatchBlock = stats::StallReason::None;

    //===------------------------------------------------------------===//
    // Commit (in order, up to RetireWidth).
    //===------------------------------------------------------------===//
    unsigned Retired = 0;
    while (!Rob.empty() && Retired < Config.RetireWidth) {
      RobEntry &Head = Rob.front();
      if (!Head.Issued || Head.DoneCycle > Cycle)
        break;
      if (Sink && Head.Info->IsLoad)
        MissedLoads.erase(Head.Seq);
      if (Head.Info->IsStore)
        // Stores write the cache at retirement (write buffer absorbs
        // the latency; misses were charged at execute via allocation).
        S.DCache->access(Head.TE->MemAddr, /*Write=*/true);
      if (Head.Info->HasDef) {
        // Freeing the previous mapping of the destination register.
        if (Head.Info->Def.File)
          ++FpPhysFree;
        else
          ++IntPhysFree;
      }
      DoneAt.erase(Head.Seq);
      ++Stats.Instructions;
      ++Retired;
      Rob.pop_front();
    }

    //===------------------------------------------------------------===//
    // Issue (per subsystem, oldest first).
    //===------------------------------------------------------------===//
    unsigned IntIssuedNow = 0, FpIssuedNow = 0, PortsUsed = 0;
    const uint64_t OldestSeq = Rob.empty() ? NextSeq : Rob.front().Seq;
    for (RobEntry &E : Rob) {
      if (!E.Dispatched || E.Issued)
        continue;
      const InstrInfo &Info = *E.Info;
      const bool Fp = Info.FpSubsystem;
      auto &Units = Fp ? FpUnitFree : IntUnitFree;
      unsigned &IssuedNow = Fp ? FpIssuedNow : IntIssuedNow;
      if (IssuedNow >= Units.size())
        continue;
      if (uint64_t P = BlockingProducer(E, OldestSeq)) {
        if (Sink && IssueBlock == stats::StallReason::None)
          IssueBlock = MissedLoads.count(P)
                           ? stats::StallReason::DCacheMissWait
                           : stats::StallReason::OperandWait;
        continue;
      }

      // Memory constraints (INT subsystem only).
      unsigned ExtraLatency = 0;
      if (Info.IsLoad || Info.IsStore) {
        if (PortsUsed >= Config.LoadStorePorts)
          continue;
        if (Info.IsLoad) {
          // All prior store addresses must be known (i.e., issued);
          // forward from a matching completed-issue store if possible.
          bool Blocked = false;
          bool Forwarded = false;
          for (const RobEntry &Older : Rob) {
            if (Older.Seq >= E.Seq)
              break;
            if (!Older.Info->IsStore)
              continue;
            if (!Older.Issued) {
              Blocked = true;
              break;
            }
            if (Older.TE->MemAddr / 4 == E.TE->MemAddr / 4)
              Forwarded = true; // Youngest older match wins.
          }
          if (Blocked) {
            if (Sink && IssueBlock == stats::StallReason::None)
              IssueBlock = stats::StallReason::LoadBlockedStoreAddr;
            continue;
          }
          if (Forwarded) {
            ++Stats.StoreForwards;
          } else {
            unsigned Lat = S.DCache->access(E.TE->MemAddr, false);
            ExtraLatency = Lat - Config.DCache.HitLatency;
            if (ExtraLatency)
              ++Stats.DCacheMisses;
          }
        }
      }

      // Find a free functional unit.
      unsigned Unit = ~0u;
      for (unsigned U = 0; U < Units.size(); ++U)
        if (Units[U] <= Cycle) {
          Unit = U;
          break;
        }
      if (Unit == ~0u) {
        if (Sink && IssueBlock == stats::StallReason::None)
          IssueBlock = stats::StallReason::UnitBusy;
        continue;
      }

      // Issue.
      E.Issued = true;
      E.DoneCycle = Cycle + Info.Latency + ExtraLatency;
      Units[Unit] = Info.Unpipelined ? E.DoneCycle : Cycle + 1;
      ++IssuedNow;
      if (Sink && Info.IsLoad && ExtraLatency)
        MissedLoads.insert(E.Seq);
      if (Info.IsLoad || Info.IsStore)
        ++PortsUsed;
      if (Info.HasDef)
        DoneAt[E.Seq] = E.DoneCycle;
      if (E.Mispredicted) {
        FetchResumeCycle =
            std::max(FetchResumeCycle, E.DoneCycle + Config.MispredictRedirect);
        if (Sink)
          ResumeKind = stats::StallReason::FetchMispredict;
        if (PendingBranchSeq == E.Seq)
          PendingBranchSeq = 0;
      }
    }
    Stats.IntIssued += IntIssuedNow;
    Stats.FpIssued += FpIssuedNow;
    if (FpIssuedNow > 0) {
      ++Stats.FpBusyCycles;
      if (IntIssuedNow == 0)
        ++Stats.IntIdleFpBusyCycles;
    }

    //===------------------------------------------------------------===//
    // Dispatch (decode/rename, up to DecodeWidth).
    //===------------------------------------------------------------===//
    unsigned Dispatched = 0;
    while (!FetchQ.empty() && Dispatched < Config.DecodeWidth) {
      RobEntry &E = FetchQ.front();
      if (E.FetchCycle >= Cycle)
        break; // Fetched this cycle; decodes next.
      const InstrInfo &Info = *E.Info;
      if (Rob.size() >= Config.MaxInFlight) {
        if (Sink)
          DispatchBlock = stats::StallReason::RobFull;
        break;
      }
      unsigned &Window = Info.FpSubsystem ? FpWindowUsed : IntWindowUsed;
      unsigned Capacity = Info.FpSubsystem ? Config.FpWindow : Config.IntWindow;
      if (Window >= Capacity) {
        if (Sink)
          DispatchBlock = Info.FpSubsystem ? stats::StallReason::WindowFullFpa
                                           : stats::StallReason::WindowFullInt;
        break;
      }
      if (Info.HasDef) {
        unsigned &Free = Info.Def.File ? FpPhysFree : IntPhysFree;
        if (Free == 0) {
          if (Sink)
            DispatchBlock = stats::StallReason::PhysRegsFull;
          break;
        }
        --Free;
      }

      // Rename: record operand producers, claim the destination.
      for (unsigned U = 0; U < Info.NumUses; ++U)
        E.ProducerSeq[U] =
            RenameTable[Info.Uses[U].File][Info.Uses[U].Arch];
      if (Info.HasDef)
        RenameTable[Info.Def.File][Info.Def.Arch] = E.Seq;

      E.Dispatched = true;
      ++Window;
      Rob.push_back(E);
      FetchQ.pop_front();
      ++Dispatched;
    }
    // Window entries free at issue in real hardware; modeling them as
    // freed at issue:
    // (recomputed below by counting un-issued dispatched entries)
    IntWindowUsed = 0;
    FpWindowUsed = 0;
    for (const RobEntry &E : Rob)
      if (E.Dispatched && !E.Issued)
        ++(E.Info->FpSubsystem ? FpWindowUsed : IntWindowUsed);

    //===------------------------------------------------------------===//
    // Fetch (up to FetchWidth, blocked by mispredicts and I-misses).
    //===------------------------------------------------------------===//
    if (Cycle >= FetchResumeCycle && PendingBranchSeq == 0 &&
        FetchQ.size() < 2 * Config.FetchWidth) {
      for (unsigned N = 0; N < Config.FetchWidth && Trace.has(FetchIdx);
           ++N) {
        const TraceEntry &TE = Trace[FetchIdx];
        const InstrInfo *Info = InfoOf(TE);

        unsigned ILat = S.ICache->access(TE.Pc, false);
        if (ILat > Config.ICache.HitLatency) {
          ++Stats.ICacheMisses;
          FetchResumeCycle = Cycle + (ILat - Config.ICache.HitLatency);
          if (Sink)
            ResumeKind = stats::StallReason::FetchICacheMiss;
        }

        RobEntry E;
        E.TE = &TE;
        E.Info = Info;
        E.Seq = NextSeq++;
        E.FetchCycle = Cycle;
        if (Info->IsCondBranch) {
          ++Stats.CondBranches;
          bool Correct = S.Predictor->predictAndUpdate(TE.Pc, TE.Taken);
          if (!Correct) {
            ++Stats.Mispredicts;
            E.Mispredicted = true;
            PendingBranchSeq = E.Seq;
          }
        }
        if (Info->IsLoad)
          ++Stats.Loads;
        if (Info->IsStore)
          ++Stats.Stores;
        ++FetchIdx;
        bool TakenTransfer =
            (Info->IsCondBranch && TE.Taken) ||
            TE.I->op() == sir::Opcode::Jump ||
            TE.I->op() == sir::Opcode::Call ||
            TE.I->op() == sir::Opcode::Ret;
        bool StopFetch = E.Mispredicted || FetchResumeCycle > Cycle ||
                         (Config.FetchBreaksOnTaken && TakenTransfer);
        FetchQ.push_back(std::move(E));
        if (StopFetch)
          break;
      }
    }

    //===------------------------------------------------------------===//
    // Telemetry: classify the cycle and emit the event (sink-only).
    //===------------------------------------------------------------===//
    if (Sink) {
      using stats::StallReason;
      stats::CycleEvent Ev;
      Ev.IntIssued = IntIssuedNow;
      Ev.FpIssued = FpIssuedNow;
      Ev.IntWindowUsed = IntWindowUsed;
      Ev.FpWindowUsed = FpWindowUsed;
      Ev.IntWindowFull = IntWindowUsed >= Config.IntWindow;
      Ev.FpWindowFull = FpWindowUsed >= Config.FpWindow;
      if (IntIssuedNow + FpIssuedNow == 0) {
        // Attribution priority (documented in stats/Events.h): window
        // backpressure, then the oldest waiting instruction's blockage,
        // then ROB/register backpressure, then the retire/completion
        // drain, then front-end emptiness.
        StallReason R = StallReason::FrontendLatency;
        if (DispatchBlock == StallReason::WindowFullInt ||
            DispatchBlock == StallReason::WindowFullFpa)
          R = DispatchBlock;
        else if (IssueBlock != StallReason::None)
          R = IssueBlock;
        else if (DispatchBlock != StallReason::None)
          R = DispatchBlock;
        else if (!Rob.empty())
          R = StallReason::RetireStall;
        else if (PendingBranchSeq != 0)
          R = StallReason::FetchMispredict;
        else if (Cycle < FetchResumeCycle)
          R = ResumeKind != StallReason::None ? ResumeKind
                                              : StallReason::FetchMispredict;
        Ev.Reason = R;
      }
      Sink->onCycle(Ev);
    }

    ++Cycle;
    if (Cycle > SafetyLimit)
      throw SimulationOverrun(Cycle, SafetyLimit, Stats.Instructions,
                              Trace.size());
  }

  Stats.Cycles = Cycle;
  return Stats;
}

//===----------------------------------------------------------------------===//
// Fast loop (packed SoA + dense ring + event-driven issue + cycle skipping)
//===----------------------------------------------------------------------===//

namespace {

/// Allocates whole, aligned cache lines, for the fast loop's few-word
/// arrays that it writes every cycle (issue bitsets, unit-free times).
/// Pool workers run simulations side by side, and from malloc such an
/// array could share a line with another worker's: glibc's per-thread
/// cache hands a worker chunks freed from other threads' allocations.
/// That false sharing cost up to 40% of a 4-thread sweep on a 4-vCPU
/// x86 VM, depending on where unrelated start-up strings left the heap.
/// The ring and the store queue span many lines and stay plain vectors.
template <class T> struct LineAllocator {
  using value_type = T;
  static constexpr size_t Line = 64;

  LineAllocator() = default;
  template <class U> LineAllocator(const LineAllocator<U> &) {}
  T *allocate(size_t N) {
    const size_t Bytes = (N * sizeof(T) + Line - 1) / Line * Line;
    return static_cast<T *>(::operator new(Bytes, std::align_val_t(Line)));
  }
  void deallocate(T *P, size_t) {
    ::operator delete(P, std::align_val_t(Line));
  }
  template <class U> bool operator==(const LineAllocator<U> &) const {
    return true;
  }
};

template <class T> using LineVector = std::vector<T, LineAllocator<T>>;

} // namespace

template <class Source> SimStats Simulator::runFast(Source PT) {
  SimStats Stats;
  Impl &S = *State;
  S.reset(Config);

  if (!Config.FpaEnabled)
    assert(!PT.hasFpa() &&
           "partitioned binary on a conventional (non-FPa) machine");

  // The in-flight ring. Live sequence numbers are contiguous:
  //   ROB     = [RetireSeq, DispatchSeq)   (<= MaxInFlight entries)
  //   FetchQ  = [DispatchSeq, NextSeq)     (< 3 * FetchWidth entries)
  // so a power-of-two ring larger than both regions together can never
  // alias a live slot; slots are fully re-initialized at fetch.
  const uint64_t MaxLive = maxLive(Config);
  uint64_t Capacity = 1;
  while (Capacity < MaxLive)
    Capacity <<= 1;
  const uint64_t Mask = Capacity - 1;
  assert(Capacity <= (1ULL << 30) && "slot << 2 must fit a consumer link");
  std::vector<FastEntry> Flight(Capacity);

  // Issue candidates, as bitsets over ring slots: Waiting holds the
  // dispatched, un-issued entries; Ready those of them whose producers
  // have all issued (Pending == 0). Without a sink the issue stage
  // visits only Ready; with one it visits Waiting, because stall
  // attribution names the oldest blocked entry, ready or not.
  const size_t Words = (Capacity + 63) / 64;
  LineVector<uint64_t> Waiting(Words, 0), Ready(Words, 0);
  auto SetBit = [](LineVector<uint64_t> &Set, uint64_t Slot) {
    Set[Slot >> 6] |= 1ULL << (Slot & 63);
  };
  auto ClearBit = [](LineVector<uint64_t> &Set, uint64_t Slot) {
    Set[Slot >> 6] &= ~(1ULL << (Slot & 63));
  };
  // Calls Visit(Seq, Entry) for each slot set in \p Set in age order:
  // from the ROB head's slot upward, wrapping around the ring, until
  // Visit returns false. Each word is read once, so bits set during
  // the walk may be missed; only wakeups set bits mid-walk, and a
  // woken consumer cannot issue before its producer's DoneCycle, which
  // is at least a cycle away.
  auto WalkInAgeOrder = [&](const LineVector<uint64_t> &Set,
                            uint64_t HeadSeq, auto &&Visit) {
    const uint64_t Head = HeadSeq & Mask;
    const size_t HeadWord = Head >> 6;
    const uint64_t FromHead = ~0ULL << (Head & 63);
    for (size_t K = 0; K <= Words; ++K) {
      size_t W = HeadWord + K;
      if (W >= Words)
        W -= Words;
      uint64_t Bits = Set[W];
      if (K == 0)
        Bits &= FromHead;
      else if (K == Words)
        Bits &= ~FromHead;
      while (Bits) {
        const uint64_t Slot = W * 64 + __builtin_ctzll(Bits);
        Bits &= Bits - 1;
        if (!Visit(HeadSeq + ((Slot - Head) & Mask), Flight[Slot]))
          return;
      }
    }
  };

  // In-flight stores in program order (pushed at dispatch, popped at
  // retire), so a load scans only the stores older than itself.
  std::vector<uint64_t> StoreQ(Capacity);
  uint64_t StoreHead = 0, StoreTail = 0;

  uint64_t RenameTable[2][regalloc::ArchLayout::FileSize] = {};
  unsigned IntWindowUsed = 0, FpWindowUsed = 0;
  unsigned IntPhysFree = Config.IntPhysRegs - regalloc::ArchLayout::FileSize;
  unsigned FpPhysFree = Config.FpPhysRegs - regalloc::ArchLayout::FileSize;

  size_t FetchIdx = 0;
  uint64_t RetireSeq = 1, DispatchSeq = 1, NextSeq = 1;
  uint64_t Cycle = 0;
  uint64_t FetchResumeCycle = 0;
  uint64_t PendingBranchSeq = 0;

  LineVector<uint64_t> IntUnitFree(Config.IntUnits, 0);
  LineVector<uint64_t> FpUnitFree(Config.FpUnits, 0);

  stats::StallReason ResumeKind = stats::StallReason::None;

  const uint64_t SafetyLimit =
      static_cast<uint64_t>(PT.size() + 1000) * 400 + 100000;

  while (PT.has(FetchIdx) || RetireSeq != NextSeq) {
    stats::StallReason IssueBlock = stats::StallReason::None;
    stats::StallReason DispatchBlock = stats::StallReason::None;

    //===------------------------------------------------------------===//
    // Commit (in order, up to RetireWidth).
    //===------------------------------------------------------------===//
    unsigned Retired = 0;
    while (RetireSeq != DispatchSeq && Retired < Config.RetireWidth) {
      FastEntry &Head = Flight[RetireSeq & Mask];
      if (!Head.Issued || Head.DoneCycle > Cycle)
        break;
      const PackedOp &Op = *Head.Op;
      if (Op.is(PackedOp::IsStore)) {
        S.DCache->access(PT.memAddr(Head.Idx), /*Write=*/true);
        assert(StoreQ[StoreHead & Mask] == RetireSeq && "store FIFO order");
        ++StoreHead;
      }
      if (Op.is(PackedOp::HasDef)) {
        if (Op.Def & PackedOp::FileBit)
          ++FpPhysFree;
        else
          ++IntPhysFree;
      }
      ++Stats.Instructions;
      ++Retired;
      ++RetireSeq;
    }

    //===------------------------------------------------------------===//
    // Issue (per subsystem, oldest first).
    //===------------------------------------------------------------===//
    unsigned IntIssuedNow = 0, FpIssuedNow = 0, PortsUsed = 0;
    // True when a load completed its memory evaluation (store-forward
    // scan / D-cache probe, with their counter and cache side effects)
    // but then found no free unit. The reference loop re-runs that
    // evaluation every cycle the load retries, so such a cycle must
    // not be skipped -- the elided cycles would under-count
    // StoreForwards / D-cache traffic. These spans are short: they
    // end at a unit-free wakeup, at most an unpipelined divide away.
    bool LoadEvalNoIssue = false;
    // One candidate, with the reference loop's per-entry order of checks
    // and side effects: subsystem cap, operands, port, store scan and
    // D-cache probe, free unit. Returns false once both subsystems are
    // at their cap, after which every younger entry would be skipped.
    auto TryIssue = [&](uint64_t Sq, FastEntry &E) -> bool {
      const PackedOp &Op = *E.Op;
      const bool Fp = Op.is(PackedOp::FpSubsystem);
      auto &Units = Fp ? FpUnitFree : IntUnitFree;
      unsigned &IssuedNow = Fp ? FpIssuedNow : IntIssuedNow;
      if (IssuedNow >= Units.size())
        return true;

      if (E.Pending || E.ReadyCycle > Cycle) {
        if (Sink && IssueBlock == stats::StallReason::None) {
          // Attribute the wait to the first unready producer, as the
          // reference loop does. Producers older than the ROB head have
          // committed; the others' ring slots hold their issue state.
          uint64_t Blocking = 0;
          for (unsigned U = 0; U < Op.NumUses && !Blocking; ++U) {
            uint64_t P = E.ProducerSeq[U];
            if (P == 0 || P < RetireSeq)
              continue;
            const FastEntry &Prod = Flight[P & Mask];
            if (!Prod.Issued || Prod.DoneCycle > Cycle)
              Blocking = P;
          }
          assert(Blocking && "unready entry without a blocking producer");
          IssueBlock = Flight[Blocking & Mask].MissedLoad
                           ? stats::StallReason::DCacheMissWait
                           : stats::StallReason::OperandWait;
        }
        return true;
      }

      // Memory constraints (INT subsystem only).
      unsigned ExtraLatency = 0;
      if (Op.is(PackedOp::IsLoad) || Op.is(PackedOp::IsStore)) {
        if (PortsUsed >= Config.LoadStorePorts)
          return true;
        if (Op.is(PackedOp::IsLoad)) {
          bool Blocked = false;
          bool Forwarded = false;
          const uint32_t MyLine = PT.memAddr(E.Idx) / 4;
          for (uint64_t I = StoreHead; I != StoreTail; ++I) {
            const uint64_t OSq = StoreQ[I & Mask];
            if (OSq >= Sq)
              break;
            const FastEntry &Older = Flight[OSq & Mask];
            if (!Older.Issued) {
              Blocked = true;
              break;
            }
            if (PT.memAddr(Older.Idx) / 4 == MyLine)
              Forwarded = true; // Youngest older match wins.
          }
          if (Blocked) {
            if (Sink && IssueBlock == stats::StallReason::None)
              IssueBlock = stats::StallReason::LoadBlockedStoreAddr;
            return true;
          }
          if (Forwarded) {
            ++Stats.StoreForwards;
          } else {
            unsigned Lat = S.DCache->access(PT.memAddr(E.Idx), false);
            ExtraLatency = Lat - Config.DCache.HitLatency;
            if (ExtraLatency)
              ++Stats.DCacheMisses;
          }
        }
      }

      // Find a free functional unit.
      unsigned Unit = ~0u;
      for (unsigned U = 0; U < Units.size(); ++U)
        if (Units[U] <= Cycle) {
          Unit = U;
          break;
        }
      if (Unit == ~0u) {
        if (Op.is(PackedOp::IsLoad))
          LoadEvalNoIssue = true;
        if (Sink && IssueBlock == stats::StallReason::None)
          IssueBlock = stats::StallReason::UnitBusy;
        return true;
      }

      // Issue.
      E.Issued = true;
      E.DoneCycle = Cycle + Op.Latency + ExtraLatency;
      Units[Unit] = Op.is(PackedOp::Unpipelined) ? E.DoneCycle : Cycle + 1;
      ++IssuedNow;
      const uint64_t Slot = Sq & Mask;
      ClearBit(Waiting, Slot);
      ClearBit(Ready, Slot);
      // Wake the consumers. One producer feeding two operand slots of a
      // consumer is linked, and counted in Pending, once per slot.
      for (uint32_t L = E.Consumers; L != FastEntry::NoLink;) {
        const uint32_t CSlot = L >> 2;
        FastEntry &C = Flight[CSlot];
        L = C.NextConsumer[L & 3];
        C.ReadyCycle = std::max(C.ReadyCycle, E.DoneCycle);
        if (--C.Pending == 0)
          SetBit(Ready, CSlot);
      }
      if (Sink && Op.is(PackedOp::IsLoad) && ExtraLatency)
        E.MissedLoad = true;
      if (Op.is(PackedOp::IsLoad) || Op.is(PackedOp::IsStore))
        ++PortsUsed;
      if (E.Mispredicted) {
        FetchResumeCycle =
            std::max(FetchResumeCycle, E.DoneCycle + Config.MispredictRedirect);
        if (Sink)
          ResumeKind = stats::StallReason::FetchMispredict;
        if (PendingBranchSeq == Sq)
          PendingBranchSeq = 0;
      }
      return IntIssuedNow < IntUnitFree.size() ||
             FpIssuedNow < FpUnitFree.size();
    };
    WalkInAgeOrder(Sink ? Waiting : Ready, RetireSeq, TryIssue);
    Stats.IntIssued += IntIssuedNow;
    Stats.FpIssued += FpIssuedNow;
    if (FpIssuedNow > 0) {
      ++Stats.FpBusyCycles;
      if (IntIssuedNow == 0)
        ++Stats.IntIdleFpBusyCycles;
    }

    //===------------------------------------------------------------===//
    // Dispatch (decode/rename, up to DecodeWidth).
    //===------------------------------------------------------------===//
    unsigned Dispatched = 0;
    while (DispatchSeq != NextSeq && Dispatched < Config.DecodeWidth) {
      FastEntry &E = Flight[DispatchSeq & Mask];
      if (E.FetchCycle >= Cycle)
        break; // Fetched this cycle; decodes next.
      const PackedOp &Op = *E.Op;
      if (DispatchSeq - RetireSeq >= Config.MaxInFlight) {
        if (Sink)
          DispatchBlock = stats::StallReason::RobFull;
        break;
      }
      const bool Fp = Op.is(PackedOp::FpSubsystem);
      unsigned &Window = Fp ? FpWindowUsed : IntWindowUsed;
      unsigned Capacity = Fp ? Config.FpWindow : Config.IntWindow;
      if (Window >= Capacity) {
        if (Sink)
          DispatchBlock = Fp ? stats::StallReason::WindowFullFpa
                             : stats::StallReason::WindowFullInt;
        break;
      }
      if (Op.is(PackedOp::HasDef)) {
        unsigned &Free =
            (Op.Def & PackedOp::FileBit) ? FpPhysFree : IntPhysFree;
        if (Free == 0) {
          if (Sink)
            DispatchBlock = stats::StallReason::PhysRegsFull;
          break;
        }
        --Free;
      }

      // Rename: record operand producers, claim the destination. A
      // retired producer is ready; an issued one bounds ReadyCycle; an
      // un-issued one gets this operand slot on its consumer list.
      const uint64_t Slot = DispatchSeq & Mask;
      for (unsigned U = 0; U < Op.NumUses; ++U) {
        const uint64_t P =
            RenameTable[(Op.Uses[U] & PackedOp::FileBit) ? 1 : 0]
                       [Op.Uses[U] & PackedOp::ArchMask];
        E.ProducerSeq[U] = P;
        if (P == 0 || P < RetireSeq)
          continue;
        FastEntry &Prod = Flight[P & Mask];
        if (Prod.Issued) {
          E.ReadyCycle = std::max(E.ReadyCycle, Prod.DoneCycle);
        } else {
          E.NextConsumer[U] = Prod.Consumers;
          Prod.Consumers = static_cast<uint32_t>(Slot << 2 | U);
          ++E.Pending;
        }
      }
      if (Op.is(PackedOp::HasDef))
        RenameTable[(Op.Def & PackedOp::FileBit) ? 1 : 0]
                   [Op.Def & PackedOp::ArchMask] = DispatchSeq;
      SetBit(Waiting, Slot);
      if (E.Pending == 0)
        SetBit(Ready, Slot);
      if (Op.is(PackedOp::IsStore))
        StoreQ[StoreTail++ & Mask] = DispatchSeq;

      ++Window;
      ++DispatchSeq;
      ++Dispatched;
    }
    // The reference loop recounts window occupancy after dispatch as
    // "dispatched and not yet issued"; incrementally that is last
    // cycle's recount, plus this cycle's dispatches (added above),
    // minus this cycle's issues (every issue came out of last cycle's
    // recount because issue precedes dispatch within the cycle).
    IntWindowUsed -= IntIssuedNow;
    FpWindowUsed -= FpIssuedNow;

    //===------------------------------------------------------------===//
    // Fetch (up to FetchWidth, blocked by mispredicts and I-misses).
    //===------------------------------------------------------------===//
    unsigned Fetched = 0;
    if (Cycle >= FetchResumeCycle && PendingBranchSeq == 0 &&
        NextSeq - DispatchSeq < 2 * Config.FetchWidth) {
      for (unsigned N = 0; N < Config.FetchWidth && PT.has(FetchIdx); ++N) {
        const PackedOp &Op = PT.op(FetchIdx);

        unsigned ILat = S.ICache->access(Op.Pc, false);
        if (ILat > Config.ICache.HitLatency) {
          ++Stats.ICacheMisses;
          FetchResumeCycle = Cycle + (ILat - Config.ICache.HitLatency);
          if (Sink)
            ResumeKind = stats::StallReason::FetchICacheMiss;
        }

        FastEntry &E = Flight[NextSeq & Mask];
        E.Op = &Op;
        E.Idx = static_cast<uint32_t>(FetchIdx);
        E.FetchCycle = Cycle;
        E.DoneCycle = NeverCycle;
        E.ReadyCycle = 0;
        E.Consumers = FastEntry::NoLink;
        E.Pending = 0;
        E.Issued = false;
        E.Mispredicted = false;
        E.MissedLoad = false;
        const bool Taken = PT.taken(FetchIdx);
        if (Op.is(PackedOp::IsCondBranch)) {
          ++Stats.CondBranches;
          bool Correct = S.Predictor->predictAndUpdate(Op.Pc, Taken);
          if (!Correct) {
            ++Stats.Mispredicts;
            E.Mispredicted = true;
            PendingBranchSeq = NextSeq;
          }
        }
        if (Op.is(PackedOp::IsLoad))
          ++Stats.Loads;
        if (Op.is(PackedOp::IsStore))
          ++Stats.Stores;
        ++FetchIdx;
        bool TakenTransfer = (Op.is(PackedOp::IsCondBranch) && Taken) ||
                             Op.is(PackedOp::UncondTransfer);
        bool StopFetch = E.Mispredicted || FetchResumeCycle > Cycle ||
                         (Config.FetchBreaksOnTaken && TakenTransfer);
        ++NextSeq;
        ++Fetched;
        if (StopFetch)
          break;
      }
    }

    //===------------------------------------------------------------===//
    // Cycle skipping: when nothing retired, issued, dispatched, or
    // fetched -- and no retrying load re-runs its side-effecting
    // memory evaluation (LoadEvalNoIssue) -- every phase is a pure
    // function of state that can only change at the next wakeup
    // boundary: the earliest in-flight completion, busy-unit free
    // time, or fetch resume cycle. Jump there directly; the cycles in
    // between would have replayed this exact cycle (same stall
    // classification, same occupancy), so they are bulk-emitted
    // through EventSink::onCycles.
    //===------------------------------------------------------------===//
    uint64_t Advance = 1;
    if (Retired == 0 && IntIssuedNow == 0 && FpIssuedNow == 0 &&
        Dispatched == 0 && Fetched == 0 && !LoadEvalNoIssue) {
      uint64_t Next = NeverCycle;
      for (uint64_t Sq = RetireSeq; Sq != DispatchSeq; ++Sq) {
        const FastEntry &E = Flight[Sq & Mask];
        if (E.Issued && E.DoneCycle > Cycle && E.DoneCycle < Next)
          Next = E.DoneCycle;
      }
      for (uint64_t F : IntUnitFree)
        if (F > Cycle && F < Next)
          Next = F;
      for (uint64_t F : FpUnitFree)
        if (F > Cycle && F < Next)
          Next = F;
      if (FetchResumeCycle > Cycle && FetchResumeCycle < Next)
        Next = FetchResumeCycle;
      if (Next != NeverCycle && Next > Cycle + 1)
        Advance = Next - Cycle;
    }

    //===------------------------------------------------------------===//
    // Telemetry: classify the cycle and emit the event (sink-only).
    //===------------------------------------------------------------===//
    if (Sink) {
      using stats::StallReason;
      stats::CycleEvent Ev;
      Ev.IntIssued = IntIssuedNow;
      Ev.FpIssued = FpIssuedNow;
      Ev.IntWindowUsed = IntWindowUsed;
      Ev.FpWindowUsed = FpWindowUsed;
      Ev.IntWindowFull = IntWindowUsed >= Config.IntWindow;
      Ev.FpWindowFull = FpWindowUsed >= Config.FpWindow;
      if (IntIssuedNow + FpIssuedNow == 0) {
        StallReason R = StallReason::FrontendLatency;
        if (DispatchBlock == StallReason::WindowFullInt ||
            DispatchBlock == StallReason::WindowFullFpa)
          R = DispatchBlock;
        else if (IssueBlock != StallReason::None)
          R = IssueBlock;
        else if (DispatchBlock != StallReason::None)
          R = DispatchBlock;
        else if (RetireSeq != DispatchSeq)
          R = StallReason::RetireStall;
        else if (PendingBranchSeq != 0)
          R = StallReason::FetchMispredict;
        else if (Cycle < FetchResumeCycle)
          R = ResumeKind != StallReason::None ? ResumeKind
                                              : StallReason::FetchMispredict;
        Ev.Reason = R;
      }
      if (Advance == 1)
        Sink->onCycle(Ev);
      else
        Sink->onCycles(Ev, Advance);
    }

    Cycle += Advance;
    if (Cycle > SafetyLimit)
      throw SimulationOverrun(Cycle, SafetyLimit, Stats.Instructions,
                              PT.size());
  }

  Stats.Cycles = Cycle;
  return Stats;
}

//===----------------------------------------------------------------------===//
// simulateModule
//===----------------------------------------------------------------------===//

SimStats timing::simulateModule(const sir::Module &M,
                                const regalloc::ModuleAlloc &Alloc,
                                const MachineConfig &Config,
                                const std::vector<int32_t> &MainArgs) {
  PackedTraceBuilder Builder(Alloc);
  vm::VM::Options Opts;
  Opts.CollectTrace = true;
  Opts.Sink = &Builder;
  vm::VM Machine(M, Opts);
  vm::VM::Result R = Machine.run(MainArgs);
  if (!R.Ok)
    throw std::runtime_error(R.Error);
  Simulator Sim(Config, Alloc);
  return Sim.run(Builder.take());
}
