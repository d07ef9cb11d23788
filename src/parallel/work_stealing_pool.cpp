#include "parallel/work_stealing_pool.hpp"

#include "util/rng.hpp"

namespace hddm::parallel {

namespace {

/// The pool the calling thread works for, and its deque there.
struct Executor {
  const WorkStealingPool* pool = nullptr;
  std::size_t index = 0;
};
thread_local Executor tls_executor;

}  // namespace

WorkStealingPool::WorkStealingPool(std::size_t workers) {
  if (workers == 0) {
    const unsigned hw = std::thread::hardware_concurrency();
    workers = hw > 1 ? hw - 1 : 1;
  }
  deques_.reserve(workers + 1);
  for (std::size_t i = 0; i <= workers; ++i) deques_.push_back(std::make_unique<Deque>());
  workers_.reserve(workers);
  for (std::size_t i = 0; i < workers; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

WorkStealingPool::~WorkStealingPool() {
  stop_.store(true);
  { const std::lock_guard<std::mutex> lock(sleep_mu_); }
  wake_.notify_all();
  for (auto& w : workers_) w.join();
}

std::size_t WorkStealingPool::self_index() const {
  return tls_executor.pool == this ? tls_executor.index : workers_.size();
}

// Sleep/wake protocol. A sleeper announces itself (sleepers_++) and then
// tests its predicate under sleep_mu_; a waker changes the state (queued_,
// a group's count or stop_) and then reads sleepers_. With all four
// accesses seq_cst, either the sleeper's test sees the change or the waker
// sees the sleeper and notifies it through sleep_mu_, so no wake-up is lost
// and an executor with nothing to do never polls.

void WorkStealingPool::submit(Task task, TaskGroup& group) {
  group.pending_.fetch_add(1, std::memory_order_relaxed);
  Deque& d = *deques_[self_index()];
  {
    const std::lock_guard<std::mutex> lock(d.mu);
    d.jobs.push_back({std::move(task), &group});
    queued_.fetch_add(1);
  }
  wake(false);
}

void WorkStealingPool::wake(bool all) {
  if (sleepers_.load() == 0) return;
  { const std::lock_guard<std::mutex> lock(sleep_mu_); }
  if (all)
    wake_.notify_all();
  else
    wake_.notify_one();
}

void WorkStealingPool::sleep(const TaskGroup* group) {
  std::unique_lock<std::mutex> lock(sleep_mu_);
  sleepers_.fetch_add(1);
  wake_.wait(lock, [this, group] {
    return queued_.load() > 0 || stop_.load() || (group != nullptr && group->pending_.load() == 0);
  });
  sleepers_.fetch_sub(1);
}

bool WorkStealingPool::try_pop_local(std::size_t self, Job& job) {
  Deque& d = *deques_[self];
  const std::lock_guard<std::mutex> lock(d.mu);
  if (d.jobs.empty()) return false;
  // Owner pops LIFO — hot caches, like TBB.
  job = std::move(d.jobs.back());
  d.jobs.pop_back();
  queued_.fetch_sub(1, std::memory_order_relaxed);
  return true;
}

bool WorkStealingPool::try_steal(std::size_t thief, Job& job) {
  // Random victim order; one full sweep per attempt.
  thread_local util::Rng rng(0xC0FFEE ^ std::hash<std::thread::id>{}(std::this_thread::get_id()));
  const std::size_t n = deques_.size();
  const std::size_t start = rng.uniform_index(n);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t victim = (start + k) % n;
    if (victim == thief) continue;
    Deque& d = *deques_[victim];
    const std::lock_guard<std::mutex> lock(d.mu);
    if (d.jobs.empty()) continue;
    // Thieves take FIFO — the oldest (typically largest-remaining) work.
    job = std::move(d.jobs.front());
    d.jobs.pop_front();
    queued_.fetch_sub(1, std::memory_order_relaxed);
    steals_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  return false;
}

bool WorkStealingPool::run_one(std::size_t self) {
  Job job;
  if (!try_pop_local(self, job) && !try_steal(self, job)) return false;
  job.task();
  job.task = nullptr;  // the closure may refer to the waiter's frame
  executed_.fetch_add(1, std::memory_order_relaxed);
  if (job.group->pending_.fetch_sub(1) == 1) wake(true);
  return true;
}

void WorkStealingPool::worker_loop(std::size_t self) {
  tls_executor = {this, self};
  // Runs until stopped with every deque empty, so no submitted task is lost.
  for (;;) {
    if (run_one(self)) continue;
    if (stop_.load()) return;
    sleep(nullptr);
  }
}

void WorkStealingPool::wait(TaskGroup& group) {
  const std::size_t self = self_index();
  while (group.pending_.load() != 0)
    if (!run_one(self)) sleep(&group);
}

}  // namespace hddm::parallel
