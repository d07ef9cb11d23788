#include "parallel/work_stealing_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <vector>
#include <thread>

#include "parallel/parallel_for.hpp"

namespace hddm::parallel {
namespace {

TEST(Pool, ExecutesAllSubmittedTasks) {
  WorkStealingPool pool(3);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) pool.submit([&count] { count.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(count.load(), 1000);
  EXPECT_EQ(pool.executed_count(), 1000u);
}

TEST(Pool, WaitIdleOnEmptyPoolReturnsImmediately) {
  WorkStealingPool pool(2);
  pool.wait_idle();
  EXPECT_EQ(pool.executed_count(), 0u);
}

TEST(Pool, TasksRunConcurrentlyWithSubmitter) {
  // The waiting thread participates: even a 1-worker pool makes progress on
  // a task that blocks until another task runs.
  WorkStealingPool pool(1);
  std::atomic<bool> first_ran{false};
  pool.submit([&first_ran] { first_ran.store(true); });
  pool.submit([&first_ran] {
    // Either order is fine; just ensure no deadlock.
    (void)first_ran.load();
  });
  pool.wait_idle();
  EXPECT_TRUE(first_ran.load());
}

TEST(Pool, ImbalancedWorkloadGetsStolen) {
  // Submit tasks with wildly varying durations round-robin over queues; with
  // stealing, total wall time cannot be the sum of one queue's work.
  WorkStealingPool pool(4);
  std::atomic<int> done{0};
  for (int i = 0; i < 64; ++i) {
    pool.submit([i, &done] {
      if (i % 8 == 0) std::this_thread::sleep_for(std::chrono::milliseconds(2));
      done.fetch_add(1);
    });
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 64);
  // Stealing happened (the submitter and idle workers drain other queues).
  // On a single-core host this may legitimately be small, so only assert
  // the counter is consistent.
  EXPECT_LE(pool.steal_count(), pool.executed_count());
}

TEST(Pool, ReusableAcrossWaves) {
  WorkStealingPool pool(2);
  std::atomic<int> count{0};
  for (int wave = 0; wave < 5; ++wave) {
    for (int i = 0; i < 100; ++i) pool.submit([&count] { count.fetch_add(1); });
    pool.wait_idle();
    EXPECT_EQ(count.load(), (wave + 1) * 100);
  }
}

TEST(Pool, DestructorDrainsOutstandingWork) {
  std::atomic<int> count{0};
  {
    WorkStealingPool pool(2);
    for (int i = 0; i < 50; ++i) pool.submit([&count] { count.fetch_add(1); });
    // no wait_idle: destructor must not lose tasks
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ParallelFor, CoversExactRange) {
  WorkStealingPool pool(3);
  std::vector<std::atomic<int>> hits(257);
  parallel_for(pool, 0, 257, [&hits](std::size_t i) { hits[i].fetch_add(1); }, 16);
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  WorkStealingPool pool(2);
  int touched = 0;
  parallel_for(pool, 5, 5, [&touched](std::size_t) { ++touched; });
  EXPECT_EQ(touched, 0);
}

TEST(ParallelFor, GrainLargerThanRange) {
  WorkStealingPool pool(2);
  std::atomic<int> count{0};
  parallel_for(pool, 0, 7, [&count](std::size_t) { count.fetch_add(1); }, 100);
  EXPECT_EQ(count.load(), 7);
}

TEST(ParallelFor, PropagatesExceptions) {
  WorkStealingPool pool(2);
  EXPECT_THROW(
      parallel_for(pool, 0, 100,
                   [](std::size_t i) {
                     if (i == 37) throw std::runtime_error("boom");
                   }),
      std::runtime_error);
  // The pool survives and stays usable.
  std::atomic<int> count{0};
  parallel_for(pool, 0, 10, [&count](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ParallelFor, ComputesDeterministicResult) {
  WorkStealingPool pool(4);
  std::vector<double> out(1000, 0.0);
  parallel_for(pool, 0, out.size(), [&out](std::size_t i) {
    out[i] = static_cast<double>(i) * 0.5;
  }, 8);
  double sum = std::accumulate(out.begin(), out.end(), 0.0);
  EXPECT_DOUBLE_EQ(sum, 0.5 * (999.0 * 1000.0 / 2.0));
}

TEST(ParallelFor, NestedLoopsCoverEveryIndexOnce) {
  // Each outer task runs an inner parallel_for on the same pool and waits
  // on it: a wait on the whole pool could never return from inside a task.
  constexpr std::size_t kOuter = 8, kInner = 50;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    WorkStealingPool pool(workers);
    std::vector<std::atomic<int>> hits(kOuter * kInner);
    parallel_for(pool, 0, kOuter, [&](std::size_t o) {
      parallel_for(pool, 0, kInner, [&](std::size_t i) { hits[o * kInner + i].fetch_add(1); });
    });
    for (std::size_t k = 0; k < hits.size(); ++k)
      EXPECT_EQ(hits[k].load(), 1) << workers << " workers, index " << k;
  }
}

TEST(ParallelFor, InnerLoopExceptionReachesOuterCaller) {
  WorkStealingPool pool(2);
  std::atomic<int> outer_done{0};
  EXPECT_THROW(parallel_for(pool, 0, 8,
                            [&](std::size_t o) {
                              parallel_for(pool, 0, 20, [o](std::size_t i) {
                                if (o == 5 && i == 13) throw std::runtime_error("inner");
                              });
                              outer_done.fetch_add(1);
                            }),
               std::runtime_error);
  EXPECT_EQ(outer_done.load(), 7);  // every other outer task ran to the end
  std::atomic<int> count{0};
  parallel_for(pool, 0, 10, [&count](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 10);
}

TEST(ParallelFor, ManyTinyNestedLoopsNeverMissAWakeup) {
  // Waiters sleep without a timeout, so one lost notify (work queued or a
  // group finished while an executor went to sleep) would hang this test.
  WorkStealingPool pool(3);
  std::atomic<long> sum{0};
  for (int rep = 0; rep < 10000; ++rep) {
    parallel_for(pool, 0, 2, [&](std::size_t) {
      parallel_for(pool, 0, 3, [&sum](std::size_t i) {
        sum.fetch_add(static_cast<long>(i), std::memory_order_relaxed);
      });
    });
  }
  EXPECT_EQ(sum.load(), 10000L * 2 * (0 + 1 + 2));
}

}  // namespace
}  // namespace hddm::parallel
