//===- tests/ThreadPoolTest.cpp - support::ThreadPool tests ---------------===//

#include "support/ParseNumber.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

using namespace fpint;
using support::ThreadPool;

TEST(ThreadPoolTest, CompletesAllTasksAndReturnsValues) {
  ThreadPool Pool(4);
  EXPECT_EQ(Pool.threadCount(), 4u);

  std::vector<std::future<int>> Futures;
  for (int I = 0; I < 100; ++I)
    Futures.push_back(Pool.submit([I] { return I * I; }));

  int Sum = 0;
  for (auto &F : Futures)
    Sum += F.get();
  int Expected = 0;
  for (int I = 0; I < 100; ++I)
    Expected += I * I;
  EXPECT_EQ(Sum, Expected);
}

TEST(ThreadPoolTest, TasksRunEvenIfFuturesDropped) {
  std::atomic<int> Count{0};
  {
    ThreadPool Pool(3);
    for (int I = 0; I < 50; ++I)
      Pool.submit([&Count] { ++Count; });
    // Destructor drains the queue before joining.
  }
  EXPECT_EQ(Count.load(), 50);
}

TEST(ThreadPoolTest, ExceptionPropagatesThroughFuture) {
  ThreadPool Pool(2);
  auto F = Pool.submit(
      []() -> int { throw std::runtime_error("task failed"); });
  try {
    F.get();
    FAIL() << "expected exception";
  } catch (const std::runtime_error &E) {
    EXPECT_STREQ(E.what(), "task failed");
  }
  // A failed task must not poison the pool.
  EXPECT_EQ(Pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPoolTest, SingleWorkerDegenerateCaseStillCorrect) {
  ThreadPool Pool(1);
  EXPECT_EQ(Pool.threadCount(), 1u);
  std::vector<std::future<int>> Futures;
  std::atomic<int> Concurrent{0}, MaxConcurrent{0};
  for (int I = 0; I < 20; ++I)
    Futures.push_back(Pool.submit([&] {
      int C = ++Concurrent;
      int Prev = MaxConcurrent.load();
      while (C > Prev && !MaxConcurrent.compare_exchange_weak(Prev, C))
        ;
      --Concurrent;
      return 1;
    }));
  int Sum = 0;
  for (auto &F : Futures)
    Sum += F.get();
  EXPECT_EQ(Sum, 20);
  EXPECT_EQ(MaxConcurrent.load(), 1);
}

TEST(ThreadPoolTest, FpintJobsEnvOverridesDefaultCount) {
  ASSERT_EQ(setenv("FPINT_JOBS", "3", 1), 0);
  EXPECT_EQ(ThreadPool::defaultThreadCount(), 3u);
  ThreadPool Pool; // 0 => defaultThreadCount()
  EXPECT_EQ(Pool.threadCount(), 3u);

  ASSERT_EQ(setenv("FPINT_JOBS", "1", 1), 0);
  EXPECT_EQ(ThreadPool::defaultThreadCount(), 1u);

  ASSERT_EQ(unsetenv("FPINT_JOBS"), 0);
  const unsigned Default = ThreadPool::defaultThreadCount();
  EXPECT_GE(Default, 1u);

  // Malformed or out-of-range values keep the default. Only the count
  // is computed: no pool is started with it.
  for (const char *Bad : {"0", "bogus", "2x", " 3", "257", "100000"}) {
    ASSERT_EQ(setenv("FPINT_JOBS", Bad, 1), 0);
    EXPECT_EQ(ThreadPool::defaultThreadCount(), Default) << Bad;
  }
  ASSERT_EQ(unsetenv("FPINT_JOBS"), 0);
}

TEST(ThreadPoolTest, KnobNumberWarnsOnceAndKeepsTheDefault) {
  using support::knobNumber;
  const unsigned Max = ThreadPool::MaxJobs;
  EXPECT_EQ(knobNumber("jobs", "FPINT_JOBS", nullptr, 1u, Max, 4u), 4u);
  EXPECT_EQ(knobNumber("jobs", "FPINT_JOBS", "", 1u, Max, 4u), 4u);
  EXPECT_EQ(knobNumber("jobs", "FPINT_JOBS", "1", 1u, Max, 4u), 1u);
  EXPECT_EQ(knobNumber("jobs", "FPINT_JOBS", "256", 1u, Max, 4u), 256u);

  testing::internal::CaptureStderr();
  EXPECT_EQ(knobNumber("jobs", "FPINT_JOBS", "2x", 1u, Max, 4u), 4u);
  EXPECT_EQ(testing::internal::GetCapturedStderr(),
            "[jobs] ignoring FPINT_JOBS='2x': want an integer in [1, 256]; "
            "using 4\n");
  for (const char *Bad : {"0", "-1", "257", "99999999999999999999", "4.0"}) {
    testing::internal::CaptureStderr();
    EXPECT_EQ(knobNumber("jobs", "FPINT_JOBS", Bad, 1u, Max, 4u), 4u) << Bad;
    const std::string Err = testing::internal::GetCapturedStderr();
    EXPECT_EQ(std::count(Err.begin(), Err.end(), '\n'), 1) << Err;
  }
  // Signed knobs (bench::envInt) take the same path.
  EXPECT_EQ(knobNumber("bench", "FPINT_SIM_REPS", "7", 1, 1000, 5), 7);
  testing::internal::CaptureStderr();
  EXPECT_EQ(knobNumber("bench", "FPINT_SIM_REPS", "5OO", 1, 1000, 5), 5);
  EXPECT_NE(testing::internal::GetCapturedStderr().find(
                "[bench] ignoring FPINT_SIM_REPS='5OO'"),
            std::string::npos);
}

TEST(ThreadPoolTest, TasksMaySubmitSubtasks) {
  ThreadPool Pool(2);
  auto F = Pool.submit([&Pool] {
    // Subtask submitted from a worker; the parent does not wait on it
    // (waiting on queued-but-unstarted work could deadlock a full
    // pool), it only proves submit() is safe from worker threads.
    Pool.submit([] {});
    return 41;
  });
  EXPECT_EQ(F.get(), 41);
}
