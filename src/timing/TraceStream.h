//===- timing/TraceStream.h - Bounded trace hand-off between threads ------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The ring through which Simulator::runStreamed's producer (the calling
/// thread, usually a VM) hands a dynamic trace to the cycle loop (a
/// worker thread), so a trace of any length is simulated in bounded
/// memory.
///
/// Entry I lives in ring slot I & Mask. After waiting for entry I the
/// reader may still touch entries up to Window behind it (the
/// instructions in flight), so the writer stays at most
/// capacity() - Window entries ahead of the last index waited for.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_TIMING_TRACESTREAM_H
#define FPINT_TIMING_TRACESTREAM_H

#include "vm/VM.h"

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <vector>

namespace fpint {
namespace timing {

class TraceStream final : public vm::TraceSink {
public:
  /// \p Window: how far behind its position the reader still reads.
  explicit TraceStream(size_t Window);

  /// Writer: appends entries, blocking while the ring is full. Drops
  /// them once the reader has stopped.
  void consume(const vm::TraceEntry *Entries, size_t Count) override;

  /// Writer: the trace is complete.
  void close();

  /// Reader: finished (or failed); the writer may drop the rest.
  void stopReading();

  /// Reader: blocks until entry \p I is written or the trace is
  /// complete, and returns the number of entries written. The caller
  /// must not touch entries older than I - Window afterwards.
  size_t waitFor(size_t I);

  const vm::TraceEntry &at(size_t I) const { return Ring[I & Mask]; }
  size_t capacity() const { return Ring.size(); }

private:
  size_t writeLimit() const { return ReadPos + Ring.size() - Window; }

  std::vector<vm::TraceEntry> Ring;
  size_t Mask = 0;
  const size_t Window;
  std::mutex Mu;
  std::condition_variable HasData, HasRoom;
  size_t Written = 0; ///< Entries written (guarded by Mu).
  size_t ReadPos = 0; ///< Last index the reader waited for (guarded).
  bool Closed = false, Stopped = false;
};

} // namespace timing
} // namespace fpint

#endif // FPINT_TIMING_TRACESTREAM_H
