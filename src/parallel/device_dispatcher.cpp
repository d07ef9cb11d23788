#include "parallel/device_dispatcher.hpp"

#include <algorithm>

namespace hddm::parallel {

struct DeviceDispatcher::Ticket::Request {
  const kernels::InterpolationKernel* kernel = nullptr;
  const double* x = nullptr;
  double* value = nullptr;
  std::size_t npoints = 0;
  // Completion flag. Stored under the dispatcher mutex (for the condition
  // variable) but read atomically so wait() can fast-path a finished ticket
  // without touching the mutex.
  std::atomic<bool> done{false};
};

DeviceDispatcher::DeviceDispatcher(DispatcherOptions options) : opts_(options) {
  if (opts_.queue_capacity == 0) opts_.queue_capacity = 1;
  if (opts_.max_batch == 0) opts_.max_batch = 1;
  // A full-size batch must fit the queue, or every max_batch-sized
  // submission would be rejected even when the device is idle — silently
  // disabling offload entirely.
  opts_.queue_capacity = std::max(opts_.queue_capacity, opts_.max_batch);
}

DeviceDispatcher::~DeviceDispatcher() {
  std::unique_lock<std::mutex> lock(mu_);
  while (!queue_.empty()) combine(lock);
}

DeviceDispatcher::Ticket DeviceDispatcher::try_submit(const kernels::InterpolationKernel& kernel,
                                                      const double* x, double* value,
                                                      std::size_t npoints) {
  if (npoints == 0) return Ticket{};
  auto req = std::make_shared<Ticket::Request>();
  req->kernel = &kernel;
  req->x = x;
  req->value = value;
  req->npoints = npoints;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (outstanding_points_ + npoints > opts_.queue_capacity) {
      rejected_.fetch_add(npoints, std::memory_order_relaxed);
      return Ticket{};
    }
    queue_.push_back(req);
    outstanding_points_ += npoints;
  }
  submitted_runs_.fetch_add(1, std::memory_order_relaxed);
  return Ticket{std::move(req)};
}

void DeviceDispatcher::wait(Ticket ticket) {
  if (!ticket.req_) return;
  if (ticket.req_->done.load(std::memory_order_acquire)) return;
  std::unique_lock<std::mutex> lock(mu_);
  // An unfinished ticket is either queued or in the running launch, so with
  // no launch running the queue holds it and this waiter combines.
  while (!ticket.req_->done.load(std::memory_order_acquire)) {
    if (launching_)
      done_cv_.wait(lock);
    else
      combine(lock);
  }
}

bool DeviceDispatcher::try_offload(const kernels::InterpolationKernel& kernel, const double* x,
                                   double* value) {
  Ticket ticket = try_submit(kernel, x, value, 1);
  if (!ticket) return false;
  wait(std::move(ticket));
  return true;
}

void DeviceDispatcher::combine(std::unique_lock<std::mutex>& lock) noexcept {
  // Coalesce the head run of submissions sharing one kernel into a single
  // batch, capped at max_batch points. Flush-on-idle: only what is queued
  // *now* is taken — the device never waits for a batch to fill. The first
  // submission is always admitted even when it alone exceeds max_batch
  // (run_batch slices the launches).
  const kernels::InterpolationKernel* kernel = queue_.front()->kernel;
  std::size_t points = 0;
  while (!queue_.empty() && queue_.front()->kernel == kernel &&
         (points == 0 || points + queue_.front()->npoints <= opts_.max_batch)) {
    points += queue_.front()->npoints;
    batch_.push_back(std::move(queue_.front()));
    queue_.pop_front();
  }
  launching_ = true;

  // The device kernel runs outside the lock — workers keep queueing.
  lock.unlock();
  run_batch(points);
  // Counters update before completion is published, so a worker returning
  // from wait() always observes them included.
  offloaded_.fetch_add(points, std::memory_order_relaxed);
  lock.lock();

  for (const auto& req : batch_) req->done.store(true, std::memory_order_release);
  batch_.clear();
  outstanding_points_ -= points;
  launching_ = false;
  done_cv_.notify_all();
}

void DeviceDispatcher::run_batch(std::size_t points) {
  const kernels::InterpolationKernel& kernel = *batch_.front()->kernel;
  const auto d = static_cast<std::size_t>(kernel.dim());
  const auto nd = static_cast<std::size_t>(kernel.ndofs());

  const auto launch = [&](const double* x, double* value, std::size_t n) {
    // An oversized single submission still respects max_batch per launch.
    for (std::size_t begin = 0; begin < n; begin += opts_.max_batch) {
      const std::size_t len = std::min(opts_.max_batch, n - begin);
      kernel.evaluate_batch(x + begin * d, value + begin * nd, len);
      batches_.fetch_add(1, std::memory_order_relaxed);
    }
  };

  if (batch_.size() == 1) {
    // Single submission: evaluate in place, no staging copy.
    launch(batch_.front()->x, batch_.front()->value, batch_.front()->npoints);
    return;
  }

  // Gather the coalesced submissions into one contiguous staging buffer,
  // drain it in a single launch, and scatter the results back. The staging
  // copies are bitwise, so batched results stay bit-identical to per-point
  // evaluate() on the same kernel.
  xbuf_.resize(points * d);
  vbuf_.resize(points * nd);
  std::size_t row = 0;
  for (const auto& req : batch_) {
    std::copy(req->x, req->x + req->npoints * d, xbuf_.begin() + static_cast<std::ptrdiff_t>(row * d));
    row += req->npoints;
  }
  launch(xbuf_.data(), vbuf_.data(), points);
  row = 0;
  for (const auto& req : batch_) {
    std::copy(vbuf_.begin() + static_cast<std::ptrdiff_t>(row * nd),
              vbuf_.begin() + static_cast<std::ptrdiff_t>((row + req->npoints) * nd), req->value);
    row += req->npoints;
  }
}

}  // namespace hddm::parallel
