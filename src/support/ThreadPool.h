//===- support/ThreadPool.h - Fixed-size task thread pool -----------------===//
//
// Part of the fpint project (PLDI 1998 idle-FP-resources reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A deliberately simple fixed-size thread pool for the evaluation
/// harness: the (workload x scheme x machine) bench matrix is
/// embarrassingly parallel, so plain FIFO scheduling over a fixed
/// worker count is enough -- no work stealing, no task priorities.
///
/// The worker count defaults to std::thread::hardware_concurrency()
/// and can be overridden with the FPINT_JOBS environment variable
/// (clamped to at least 1; FPINT_JOBS=1 gives a single-worker pool,
/// the degenerate but still correct configuration).
///
/// submit() returns a std::future carrying the task's result; an
/// exception thrown by the task is captured and rethrown from
/// future::get(), so callers on the main thread see worker failures
/// as ordinary exceptions.
///
//===----------------------------------------------------------------------===//

#ifndef FPINT_SUPPORT_THREADPOOL_H
#define FPINT_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace fpint {
namespace support {

class ThreadPool {
public:
  /// Spawns \p Threads workers (0 means defaultThreadCount()).
  explicit ThreadPool(unsigned Threads = 0);

  /// Drains the queue and joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;

  /// Enqueues \p Fn and returns a future for its result. Safe to call
  /// from worker threads (tasks may submit subtasks), but a task must
  /// never block on a future of a task that has not started yet --
  /// the harness only ever waits on futures from the main thread, or
  /// on computations already running on another worker.
  template <typename Fn>
  auto submit(Fn &&F) -> std::future<std::invoke_result_t<std::decay_t<Fn>>> {
    using R = std::invoke_result_t<std::decay_t<Fn>>;
    auto Task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(F));
    std::future<R> Result = Task->get_future();
    {
      std::lock_guard<std::mutex> Lock(Mu);
      Queue.push_back([Task] { (*Task)(); });
    }
    Cv.notify_one();
    return Result;
  }

  unsigned threadCount() const { return static_cast<unsigned>(Workers.size()); }

  /// Largest worker count FPINT_JOBS may ask for.
  static constexpr unsigned MaxJobs = 256;

  /// FPINT_JOBS when it is an integer in [1, MaxJobs], else
  /// hardware_concurrency() (or 1 if that reports 0); a malformed or
  /// out-of-range FPINT_JOBS prints one warning.
  static unsigned defaultThreadCount();

  /// Process-wide pool shared by the bench harness (constructed on
  /// first use with defaultThreadCount() workers).
  static ThreadPool &global();

private:
  void workerLoop();

  std::vector<std::thread> Workers;
  std::deque<std::function<void()>> Queue;
  std::mutex Mu;
  std::condition_variable Cv;
  bool Stopping = false;
};

} // namespace support
} // namespace fpint

#endif // FPINT_SUPPORT_THREADPOOL_H
