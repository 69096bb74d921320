//===- regalloc/RegAlloc.cpp - Linear-scan register allocation ------------===//
//
// The scan policy: lowest-index-first register pools per class,
// caller-saved preferred for intervals that do not cross a call,
// furthest-end victim spilling. Everything around the scan lives in
// AllocBase.cpp.
//
//===----------------------------------------------------------------------===//

#include "regalloc/RegAlloc.h"

#include "regalloc/AllocBase.h"

#include <algorithm>
#include <cassert>
#include <chrono>

using namespace fpint;
using namespace fpint::regalloc;
using sir::Reg;
using sir::RegClass;

namespace {

class ScanFuncAllocator final : public FuncAllocBase {
public:
  using FuncAllocBase::FuncAllocBase;

private:
  void scan(RegClass RC) override;
};

void ScanFuncAllocator::scan(RegClass RC) {
  std::vector<bool> CallerFree(ArchLayout::NumCaller, true);
  std::vector<bool> CalleeFree(ArchLayout::NumCallee, true);
  std::vector<unsigned> Active; // Interval indices, unordered.

  auto Release = [&](unsigned ArchIdx) {
    if (ArchIdx >= ArchLayout::CalleeBase &&
        ArchIdx < ArchLayout::CalleeBase + ArchLayout::NumCallee)
      CalleeFree[ArchIdx - ArchLayout::CalleeBase] = true;
    else
      CallerFree[ArchIdx - ArchLayout::CallerBase] = true;
  };
  auto TakeCaller = [&]() -> unsigned {
    for (unsigned I = 0; I < ArchLayout::NumCaller; ++I)
      if (CallerFree[I]) {
        CallerFree[I] = false;
        return ArchLayout::CallerBase + I;
      }
    return ~0u;
  };
  auto TakeCallee = [&]() -> unsigned {
    for (unsigned I = 0; I < ArchLayout::NumCallee; ++I)
      if (CalleeFree[I]) {
        CalleeFree[I] = false;
        markCalleeUsed(RC, ArchLayout::CalleeBase + I);
        return ArchLayout::CalleeBase + I;
      }
    return ~0u;
  };

  for (unsigned IvIdx = 0; IvIdx < Intervals.size(); ++IvIdx) {
    Interval &Iv = Intervals[IvIdx];
    if (Iv.RC != RC)
      continue;

    // Expire finished intervals (end strictly before this start keeps a
    // def reading its own operands safe at equal positions; equal
    // positions may share since reads precede the write).
    for (size_t A = 0; A < Active.size();) {
      if (Intervals[Active[A]].End <= Iv.Start) {
        Release(Intervals[Active[A]].ArchIdx);
        Active[A] = Active.back();
        Active.pop_back();
      } else {
        ++A;
      }
    }

    unsigned Got = ~0u;
    if (Iv.CrossesCall)
      Got = TakeCallee();
    else {
      Got = TakeCaller();
      if (Got == ~0u)
        Got = TakeCallee();
    }
    if (Got != ~0u) {
      Iv.ArchIdx = Got;
      Active.push_back(IvIdx);
      continue;
    }

    // Out of registers: spill the furthest-ending compatible interval.
    unsigned Victim = ~0u;
    for (unsigned A : Active) {
      const Interval &Act = Intervals[A];
      if (Iv.CrossesCall && !isCalleeIdx(Act.ArchIdx))
        continue;
      if (Victim == ~0u || Act.End > Intervals[Victim].End)
        Victim = A;
    }
    if (Victim != ~0u && Intervals[Victim].End > Iv.End) {
      Iv.ArchIdx = Intervals[Victim].ArchIdx;
      if (isCalleeIdx(Iv.ArchIdx))
        markCalleeUsed(RC, Iv.ArchIdx);
      spillInterval(Intervals[Victim]);
      Intervals[Victim].ArchIdx = ~0u;
      Active.erase(std::find(Active.begin(), Active.end(), Victim));
      Active.push_back(IvIdx);
    } else {
      spillInterval(Iv);
    }
  }
}

} // namespace

ModuleAlloc regalloc::allocateModule(sir::Module &M,
                                     analysis::AnalysisManager *AM) {
  ModuleAlloc Result;
  Result.AllocatorName = "regalloc";
  for (const auto &F : M.functions()) {
    std::string Error;
    // Lowering and rewriting mutate F around the analysis fetches, so
    // bracket each function with invalidations: stale entries from
    // earlier passes are dropped going in, and the allocator's own
    // CFG / liveness / live-interval results are dropped going out.
    if (AM)
      AM->invalidateFunction(*F);
    auto T0 = std::chrono::steady_clock::now();
    bool Ok = ScanFuncAllocator(*F, Result, AM).run(Error);
    auto T1 = std::chrono::steady_clock::now();
    if (!Ok)
      Result.Errors.push_back(Error);
    auto It = Result.Funcs.find(F.get());
    if (It != Result.Funcs.end())
      It->second.WallMs =
          std::chrono::duration<double, std::milli>(T1 - T0).count();
    if (AM)
      AM->invalidateFunction(*F);
  }
  return Result;
}

unsigned ModuleAlloc::archIndexOf(const sir::Function *F, Reg R) const {
  auto It = Funcs.find(F);
  assert(It != Funcs.end() && "function not allocated");
  assert(R.id() < It->second.ArchIndex.size() && "register out of range");
  unsigned Idx = It->second.ArchIndex[R.id()];
  assert(Idx != ~0u && "register not mapped to an architectural index");
  return Idx;
}

unsigned ModuleAlloc::totalSpilledIntervals() const {
  unsigned N = 0;
  for (const auto &KV : Funcs)
    N += KV.second.SpilledIntervals;
  return N;
}

unsigned ModuleAlloc::totalSpillSlots() const {
  unsigned N = 0;
  for (const auto &KV : Funcs)
    N += KV.second.SpillSlots;
  return N;
}

unsigned ModuleAlloc::totalSpillLoads() const {
  unsigned N = 0;
  for (const auto &KV : Funcs)
    N += KV.second.SpillLoads;
  return N;
}

unsigned ModuleAlloc::totalSpillStores() const {
  unsigned N = 0;
  for (const auto &KV : Funcs)
    N += KV.second.SpillStores;
  return N;
}

unsigned ModuleAlloc::totalCalleeSaveStores() const {
  unsigned N = 0;
  for (const auto &KV : Funcs)
    N += KV.second.CalleeSaveStores;
  return N;
}

unsigned ModuleAlloc::totalCalleeSaveRestores() const {
  unsigned N = 0;
  for (const auto &KV : Funcs)
    N += KV.second.CalleeSaveRestores;
  return N;
}

double ModuleAlloc::totalWallMs() const {
  double N = 0;
  for (const auto &KV : Funcs)
    N += KV.second.WallMs;
  return N;
}
