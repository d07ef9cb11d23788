// Batched asynchronous device offload — the batching pipeline described in
// DESIGN.md ("Batched device-offload pipeline"), built on Sec. IV-A's
// hybrid node with its single accelerator.
//
// Worker threads *submit* whole runs of interpolation points (a Ticket per
// submission) instead of one point per blocking handshake. There is no
// dispatcher thread: the device queue is driven by its waiters (flat
// combining, Hendler et al., SPAA 2010). A thread that waits on an
// unfinished ticket while no launch is running becomes the combiner: it
// takes the head run of queued submissions for one kernel, drains up to
// `max_batch` points through InterpolationKernel::evaluate_batch() in a
// single launch (flush-on-idle: whatever is queued launches — nothing waits
// for a batch to fill), completes every ticket of the batch at once, and
// repeats until its own ticket is done. A worker can therefore submit
// several chunks and wait once per chunk *after* all submissions.
//
// When admitting a submission would exceed `queue_capacity` outstanding
// points (device saturated), try_submit returns a null ticket and the
// caller evaluates on its CPU kernel instead — the "partial offload" of the
// paper, degrading gracefully to pure-CPU when no device is present.
//
// Batched results are bit-identical to per-point evaluate() on the same
// kernel (the evaluate_batch contract, enforced by tests/parallel/).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "kernels/kernel_api.hpp"

namespace hddm::parallel {

struct DispatcherOptions {
  /// Outstanding *points* (queued + in flight) admitted before try_submit
  /// rejects; the backpressure that makes callers fall back to CPU. Raised
  /// to max_batch when smaller, so a full-size batch always fits.
  std::size_t queue_capacity = 1024;
  /// Maximum points fused into one device launch. Coalesced submissions
  /// never exceed it; an oversized single submission is drained in
  /// max_batch-sized launches.
  std::size_t max_batch = 256;
};

/// Monotonic offload counters (points, not requests).
struct DispatcherStats {
  std::uint64_t offloaded_points = 0;  ///< points completed on the device
  std::uint64_t rejected_points = 0;   ///< points refused (caller went to CPU)
  std::uint64_t batches = 0;           ///< device launches
  /// Accepted try_submit calls (ticketed runs). The gather-accounting
  /// counter: a per-point caller produces one run per point, the gathered
  /// Newton path one run per (shock, chunk) — so runs collapsing while
  /// offloaded_points holds steady is batching working.
  std::uint64_t submitted_runs = 0;
  [[nodiscard]] double mean_batch() const {
    return batches == 0 ? 0.0
                        : static_cast<double>(offloaded_points) / static_cast<double>(batches);
  }
  /// Mean points carried per accepted submission.
  [[nodiscard]] double mean_run() const {
    return submitted_runs == 0
               ? 0.0
               : static_cast<double>(offloaded_points) / static_cast<double>(submitted_runs);
  }
  /// Counter delta relative to an earlier snapshot of the same dispatcher
  /// (how the per-iteration stats in core::IterationStats are derived).
  [[nodiscard]] DispatcherStats since(const DispatcherStats& before) const {
    return {offloaded_points - before.offloaded_points, rejected_points - before.rejected_points,
            batches - before.batches, submitted_runs - before.submitted_runs};
  }
};

class DeviceDispatcher {
 public:
  explicit DeviceDispatcher(DispatcherOptions options = {});

  /// Runs every still-queued submission inline, so unwaited tickets are
  /// safe: their results are written before the destructor returns.
  ~DeviceDispatcher();

  DeviceDispatcher(const DeviceDispatcher&) = delete;
  DeviceDispatcher& operator=(const DeviceDispatcher&) = delete;

  /// Handle to one accepted submission; null (false) when the device
  /// rejected it. wait() consumes the ticket.
  class Ticket {
   public:
    Ticket() = default;
    explicit operator bool() const { return req_ != nullptr; }

   private:
    friend class DeviceDispatcher;
    struct Request;
    explicit Ticket(std::shared_ptr<Request> req) : req_(std::move(req)) {}
    std::shared_ptr<Request> req_;
  };

  /// Submits `npoints` contiguous evaluation points (x: npoints rows of
  /// kernel.dim(); value: npoints rows of kernel.ndofs()) for asynchronous
  /// device evaluation. Returns a null ticket when the queue is saturated —
  /// evaluate the run on a CPU kernel instead. Both buffers and `kernel`
  /// must stay alive until wait() returns (or the dispatcher is destroyed).
  [[nodiscard]] Ticket try_submit(const kernels::InterpolationKernel& kernel, const double* x,
                                  double* value, std::size_t npoints);

  /// Returns once the ticket's batch completed on the device, running queued
  /// launches on the calling thread while no other waiter does. Null
  /// tickets return immediately.
  void wait(Ticket ticket);

  /// Single-point convenience retained for point-granular callers: one
  /// submission + wait. Returns false when the device rejected the point.
  bool try_offload(const kernels::InterpolationKernel& kernel, const double* x, double* value);

  [[nodiscard]] DispatcherStats stats() const {
    return {offloaded_.load(), rejected_.load(), batches_.load(), submitted_runs_.load()};
  }
  [[nodiscard]] const DispatcherOptions& options() const { return opts_; }

 private:
  // Called with mu_ held and launching_ false on a non-empty queue: takes
  // the head run, launches it outside the lock and publishes its tickets.
  // A combiner may be inside a point solve's gather, so a launch calls
  // nothing but InterpolationKernel::evaluate_batch — never the pool or
  // core::executor_workspace() (DESIGN.md, "The workspace invariant").
  // noexcept: a throwing launch terminates instead of leaving launching_
  // set, which would strand every other waiter.
  void combine(std::unique_lock<std::mutex>& lock) noexcept;
  void run_batch(std::size_t points);

  DispatcherOptions opts_;

  std::mutex mu_;
  std::condition_variable done_cv_;  // waiters wait for completion
  std::deque<std::shared_ptr<Ticket::Request>> queue_;
  std::size_t outstanding_points_ = 0;  // queued + in-flight
  bool launching_ = false;              // a combiner owns the device

  // The combiner's launch and staging buffers. Only one launch runs at a
  // time, so they are reused across launches without allocating.
  std::vector<std::shared_ptr<Ticket::Request>> batch_;
  std::vector<double> xbuf_;
  std::vector<double> vbuf_;

  std::atomic<std::uint64_t> offloaded_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> submitted_runs_{0};
};

}  // namespace hddm::parallel
