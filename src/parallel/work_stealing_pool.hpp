// Work-stealing thread pool — the TBB substitute (see DESIGN.md).
//
// The paper distributes a node's grid points over TBB worker threads and
// relies on TBB's task stealing to even out the wildly varying per-point
// Newton solve times. This pool reproduces those semantics: each executor
// owns a deque (LIFO for the owner, FIFO for thieves), idle executors steal
// from random victims, and a thread that waits runs tasks meanwhile, so a
// pool of K workers gives K+1 executors during a wait.
//
// Every task belongs to a TaskGroup, and a wait returns when its own group's
// tasks are done, not when the pool is idle. A task may therefore submit and
// wait on a group of its own: parallel_for nests. Threads that are not pool
// workers share one extra deque, so a waiting caller pops its own tasks LIFO
// like a worker. Idle executors sleep on one condition variable that is
// notified exactly when work is queued or a group finishes; there is no
// timed poll.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace hddm::parallel {

/// The tasks a wait() waits for: a counter of the group's unfinished tasks.
class TaskGroup {
 public:
  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

 private:
  friend class WorkStealingPool;
  std::atomic<std::size_t> pending_{0};
};

class WorkStealingPool {
 public:
  using Task = std::function<void()>;

  /// `workers` = number of pool threads; 0 means hardware_concurrency - 1
  /// (the waiting thread is the extra executor).
  explicit WorkStealingPool(std::size_t workers = 0);
  ~WorkStealingPool();

  WorkStealingPool(const WorkStealingPool&) = delete;
  WorkStealingPool& operator=(const WorkStealingPool&) = delete;

  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// Enqueues a task of `group` on the calling thread's deque (a worker's
  /// own, or the one all other threads share) and wakes a sleeper if any.
  void submit(Task task, TaskGroup& group);

  /// Runs tasks (own deque LIFO first, then stealing FIFO) until every task
  /// of `group` has completed; sleeps while there is nothing to run.
  void wait(TaskGroup& group);

  /// submit() / wait() on the pool's default group.
  void submit(Task task) { submit(std::move(task), default_group_); }
  void wait_idle() { wait(default_group_); }

  /// Total tasks stolen from another executor's deque since construction — a
  /// measure of how much rebalancing the workload needed (exposed for the
  /// scheduler tests and the Fig. 7 bench diagnostics).
  [[nodiscard]] std::uint64_t steal_count() const { return steals_.load(); }
  [[nodiscard]] std::uint64_t executed_count() const { return executed_.load(); }

 private:
  struct Job {
    Task task;
    TaskGroup* group = nullptr;
  };
  struct Deque {
    std::mutex mu;
    std::deque<Job> jobs;
  };

  /// The calling thread's deque: its worker index, or the shared one.
  [[nodiscard]] std::size_t self_index() const;
  void worker_loop(std::size_t self);
  bool try_pop_local(std::size_t self, Job& job);
  bool try_steal(std::size_t thief, Job& job);
  bool run_one(std::size_t self);
  /// Sleeps until work is queued, `group` (if any) finishes, or the pool stops.
  void sleep(const TaskGroup* group);
  /// Wakes sleepers, if any (`all`: a finished group's waiter is among them).
  void wake(bool all);

  std::vector<std::unique_ptr<Deque>> deques_;  ///< workers' deques, then the shared one
  std::vector<std::thread> workers_;
  TaskGroup default_group_;
  std::atomic<std::size_t> queued_{0};  ///< jobs sitting in the deques
  std::atomic<std::size_t> sleepers_{0};
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<std::uint64_t> executed_{0};
  std::atomic<bool> stop_{false};

  std::mutex sleep_mu_;
  std::condition_variable wake_;
};

}  // namespace hddm::parallel
