//===- support/ThreadPool.cpp - Fixed-size task thread pool ---------------===//

#include "support/ThreadPool.h"

#include "support/ParseNumber.h"

using namespace fpint;
using namespace fpint::support;

unsigned ThreadPool::defaultThreadCount() {
  const unsigned HW = std::thread::hardware_concurrency();
  return envNumber("jobs", "FPINT_JOBS", 1u, MaxJobs, HW ? HW : 1u);
}

ThreadPool &ThreadPool::global() {
  static ThreadPool Pool;
  return Pool;
}

ThreadPool::ThreadPool(unsigned Threads) {
  if (Threads == 0)
    Threads = defaultThreadCount();
  Workers.reserve(Threads);
  for (unsigned I = 0; I < Threads; ++I)
    Workers.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Stopping = true;
  }
  Cv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void ThreadPool::workerLoop() {
  for (;;) {
    std::function<void()> Task;
    {
      std::unique_lock<std::mutex> Lock(Mu);
      Cv.wait(Lock, [this] { return Stopping || !Queue.empty(); });
      if (Queue.empty())
        return; // Stopping and drained.
      Task = std::move(Queue.front());
      Queue.pop_front();
    }
    Task(); // packaged_task captures any exception into the future.
  }
}
