//===- regalloc/Liveness.h - Live-variable analysis -----------------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Backward live-variable dataflow over a function, feeding the linear
/// scan register allocator's live intervals. Registers of both classes
/// are tracked uniformly (they draw from disjoint architectural files).
///
/// Each set is a run of 64-bit words, bit R for register id R; all
/// blocks' sets sit in one flat array of NumBlocks x ceil(numRegs / 64)
/// words.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_REGALLOC_LIVENESS_H
#define FPINT_REGALLOC_LIVENESS_H

#include "analysis/CFG.h"
#include "sir/IR.h"

#include <cstdint>
#include <vector>

namespace fpint {
namespace regalloc {

/// Per-block live-in/live-out register sets (bit per register id).
class Liveness {
public:
  Liveness(const sir::Function &F, const analysis::CFG &Cfg);

  bool liveIn(unsigned Block, sir::Reg R) const {
    return test(In, Block, R.id());
  }
  bool liveOut(unsigned Block, sir::Reg R) const {
    return test(Out, Block, R.id());
  }

  /// Calls \p Fn(sir::Reg) for each register live into \p Block, in
  /// ascending id order.
  template <typename FnT> void forEachLiveIn(unsigned Block, FnT Fn) const {
    forEach(In, Block, Fn);
  }
  /// Calls \p Fn(sir::Reg) for each register live out of \p Block, in
  /// ascending id order.
  template <typename FnT> void forEachLiveOut(unsigned Block, FnT Fn) const {
    forEach(Out, Block, Fn);
  }

private:
  bool test(const std::vector<uint64_t> &Sets, unsigned Block,
            uint32_t Id) const {
    return (Sets[size_t(Block) * Words + Id / 64] >> (Id % 64)) & 1;
  }
  template <typename FnT>
  void forEach(const std::vector<uint64_t> &Sets, unsigned Block,
               FnT &Fn) const {
    const uint64_t *Set = Sets.data() + size_t(Block) * Words;
    for (unsigned W = 0; W < Words; ++W)
      for (uint64_t Bits = Set[W]; Bits; Bits &= Bits - 1)
        Fn(sir::Reg(W * 64 + static_cast<unsigned>(__builtin_ctzll(Bits))));
  }

  unsigned Words = 0; ///< 64-bit words per set: ceil(numRegs / 64).
  std::vector<uint64_t> In;
  std::vector<uint64_t> Out;
};

} // namespace regalloc
} // namespace fpint

#endif // FPINT_REGALLOC_LIVENESS_H
