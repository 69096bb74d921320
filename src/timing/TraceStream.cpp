//===- timing/TraceStream.cpp - Bounded trace hand-off between threads ----===//

#include "timing/TraceStream.h"

#include <algorithm>

using namespace fpint;
using namespace fpint::timing;

TraceStream::TraceStream(size_t WindowIn) : Window(WindowIn) {
  size_t Capacity = 1;
  while (Capacity < 4 * (Window + vm::VM::TraceBatch))
    Capacity <<= 1;
  Ring.resize(Capacity);
  Mask = Capacity - 1;
}

void TraceStream::consume(const vm::TraceEntry *Entries, size_t Count) {
  while (Count) {
    size_t Start, Take;
    {
      std::unique_lock<std::mutex> L(Mu);
      HasRoom.wait(L, [&] { return Stopped || Written < writeLimit(); });
      if (Stopped)
        return;
      Start = Written;
      Take = std::min(Count, writeLimit() - Written);
    }
    // Slots [Start, Start + Take) hold entries the reader is done with.
    for (size_t K = 0; K < Take; ++K)
      Ring[(Start + K) & Mask] = Entries[K];
    {
      std::lock_guard<std::mutex> L(Mu);
      Written += Take;
    }
    HasData.notify_one();
    Entries += Take;
    Count -= Take;
  }
}

void TraceStream::close() {
  {
    std::lock_guard<std::mutex> L(Mu);
    Closed = true;
  }
  HasData.notify_one();
}

void TraceStream::stopReading() {
  {
    std::lock_guard<std::mutex> L(Mu);
    Stopped = true;
  }
  HasRoom.notify_one();
}

size_t TraceStream::waitFor(size_t I) {
  std::unique_lock<std::mutex> L(Mu);
  ReadPos = I;
  HasRoom.notify_one();
  HasData.wait(L, [&] { return Written > I || Closed; });
  return Written;
}
