// Tests of the batched async device-offload pipeline (DESIGN.md, "Batched
// device-offload pipeline"): bit-identical batch-vs-single-point parity,
// capacity rejection with CPU fallback, the combining rules (a waiter runs
// whatever launches precede its own ticket, including dropped tickets),
// shutdown that runs still-queued submissions inline, and a ThreadSanitizer/
// ASan-friendly stress test (no sleeps, no unsynchronized shared state)
// exercised by the sanitizer CI legs.
#include "parallel/device_dispatcher.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <thread>

#include "core/compression.hpp"
#include "sparse_grid/regular.hpp"
#include "util/rng.hpp"

namespace hddm::parallel {
namespace {

constexpr int kDim = 3;
constexpr int kDofs = 4;

struct Fixture {
  sg::GridStorage storage{kDim};
  sg::DenseGridData dense;
  core::CompressedGridData compressed;
  std::unique_ptr<kernels::InterpolationKernel> device;
  std::unique_ptr<kernels::InterpolationKernel> cpu;

  Fixture() {
    sg::build_regular_grid(storage, 3);
    dense = sg::make_dense_grid(storage, kDofs);
    util::Rng rng(8);
    for (auto& s : dense.surplus) s = rng.uniform(-1, 1);
    compressed = core::compress(dense);
    device = kernels::make_kernel(kernels::KernelKind::SimGpu, &dense, &compressed);
    cpu = kernels::make_kernel(kernels::KernelKind::X86, &dense, &compressed);
  }

  [[nodiscard]] std::vector<double> random_points(std::size_t n, std::uint64_t seed) const {
    util::Rng rng(seed);
    std::vector<double> xs(n * kDim);
    for (auto& xi : xs) xi = rng.uniform();
    return xs;
  }
};

// The core acceptance property: a run of points submitted as one batch
// ticket produces bitwise the same values as per-point evaluate() on the
// same kernel — the dispatcher's staging/coalescing never perturbs results.
TEST(Dispatcher, BatchedMatchesSinglePointBitIdentical) {
  Fixture fx;
  for (const std::size_t npoints : {std::size_t{1}, std::size_t{7}, std::size_t{64}}) {
    DeviceDispatcher dispatcher({/*queue_capacity=*/256, /*max_batch=*/16});
    const std::vector<double> xs = fx.random_points(npoints, 100 + npoints);
    std::vector<double> batched(npoints * kDofs), single(npoints * kDofs);

    auto ticket = dispatcher.try_submit(*fx.device, xs.data(), batched.data(), npoints);
    ASSERT_TRUE(ticket);
    dispatcher.wait(std::move(ticket));

    for (std::size_t k = 0; k < npoints; ++k)
      fx.device->evaluate(xs.data() + k * kDim, single.data() + k * kDofs);

    for (std::size_t i = 0; i < batched.size(); ++i)
      EXPECT_EQ(batched[i], single[i]) << "npoints=" << npoints << " value " << i;
    EXPECT_EQ(dispatcher.stats().offloaded_points, npoints);
  }
}

// Coalesced submissions (several tickets fused into shared launches) must
// keep the same bitwise guarantee.
TEST(Dispatcher, CoalescedSubmissionsStayBitIdentical) {
  Fixture fx;
  DeviceDispatcher dispatcher({/*queue_capacity=*/1024, /*max_batch=*/32});
  constexpr std::size_t kTickets = 24;
  constexpr std::size_t kPerTicket = 5;
  const std::vector<double> xs = fx.random_points(kTickets * kPerTicket, 17);
  std::vector<double> got(kTickets * kPerTicket * kDofs);

  // Submit everything first (letting the dispatcher accumulate), wait once
  // per ticket afterwards — the worker-side pattern of the pipeline.
  std::vector<DeviceDispatcher::Ticket> tickets;
  for (std::size_t t = 0; t < kTickets; ++t) {
    auto ticket = dispatcher.try_submit(*fx.device, xs.data() + t * kPerTicket * kDim,
                                        got.data() + t * kPerTicket * kDofs, kPerTicket);
    ASSERT_TRUE(ticket);
    tickets.push_back(std::move(ticket));
  }
  for (auto& t : tickets) dispatcher.wait(std::move(t));

  for (std::size_t k = 0; k < kTickets * kPerTicket; ++k) {
    std::vector<double> want(kDofs);
    fx.device->evaluate(xs.data() + k * kDim, want.data());
    for (int dof = 0; dof < kDofs; ++dof)
      EXPECT_EQ(got[k * kDofs + static_cast<std::size_t>(dof)],
                want[static_cast<std::size_t>(dof)]) << "point " << k;
  }
  // Nothing runs until the first wait, which finds all 24 tickets queued
  // and combines them head first: 6 tickets (30 points) fit max_batch = 32,
  // so 4 launches of 30 points each.
  const DispatcherStats stats = dispatcher.stats();
  EXPECT_EQ(stats.offloaded_points, kTickets * kPerTicket);
  EXPECT_EQ(stats.batches, 4u);
  EXPECT_DOUBLE_EQ(stats.mean_batch(), 30.0);
}

// The gather-accounting counter: every *accepted* try_submit is one
// submitted run, rejections are not, and mean_run reports points per run.
TEST(Dispatcher, SubmittedRunCounterTracksAcceptedTickets) {
  Fixture fx;
  DeviceDispatcher dispatcher({/*queue_capacity=*/16, /*max_batch=*/16});
  constexpr std::size_t kRuns = 4;
  constexpr std::size_t kPerRun = 4;
  const std::vector<double> xs = fx.random_points(kRuns * kPerRun, 41);
  std::vector<double> got(kRuns * kPerRun * kDofs);

  const DispatcherStats before = dispatcher.stats();
  std::vector<DeviceDispatcher::Ticket> tickets;
  for (std::size_t t = 0; t < kRuns; ++t) {
    auto ticket = dispatcher.try_submit(*fx.device, xs.data() + t * kPerRun * kDim,
                                        got.data() + t * kPerRun * kDofs, kPerRun);
    if (ticket) tickets.push_back(std::move(ticket));
  }
  // An oversized request the saturated queue rejects must not count as a run.
  std::vector<double> big_x(32 * kDim, 0.5), big_v(32 * kDofs);
  while (dispatcher.try_submit(*fx.device, big_x.data(), big_v.data(), 32)) {
  }
  for (auto& t : tickets) dispatcher.wait(std::move(t));

  const DispatcherStats delta = dispatcher.stats().since(before);
  EXPECT_EQ(tickets.size(), kRuns);  // all small runs fit the capacity
  EXPECT_EQ(delta.submitted_runs, kRuns);
  EXPECT_EQ(delta.offloaded_points, kRuns * kPerRun);  // only accepted runs complete
  EXPECT_EQ(delta.rejected_points, 32u);
  EXPECT_DOUBLE_EQ(delta.mean_run(), static_cast<double>(kPerRun));
}

// An oversized single submission is admitted but drained in max_batch-sized
// launches — max_batch really caps the per-launch point count.
TEST(Dispatcher, OversizedSubmissionIsSlicedIntoMaxBatchLaunches) {
  Fixture fx;
  DeviceDispatcher dispatcher({/*queue_capacity=*/256, /*max_batch=*/16});
  constexpr std::size_t kPoints = 64;
  const std::vector<double> xs = fx.random_points(kPoints, 23);
  std::vector<double> got(kPoints * kDofs);

  auto ticket = dispatcher.try_submit(*fx.device, xs.data(), got.data(), kPoints);
  ASSERT_TRUE(ticket);
  dispatcher.wait(std::move(ticket));

  EXPECT_EQ(dispatcher.stats().offloaded_points, kPoints);
  EXPECT_EQ(dispatcher.stats().batches, kPoints / 16);
  for (std::size_t k = 0; k < kPoints; ++k) {
    std::vector<double> want(kDofs);
    fx.device->evaluate(xs.data() + k * kDim, want.data());
    for (int dof = 0; dof < kDofs; ++dof)
      EXPECT_EQ(got[k * kDofs + static_cast<std::size_t>(dof)], want[static_cast<std::size_t>(dof)]);
  }
}

// A submission that does not fit the outstanding-point capacity returns a
// null ticket; the caller evaluates on its CPU kernel — graceful partial
// offload, with the rejection counted in points.
TEST(Dispatcher, CapacityRejectionFallsBackToCpu) {
  Fixture fx;
  DeviceDispatcher dispatcher({/*queue_capacity=*/8, /*max_batch=*/8});
  const std::vector<double> xs = fx.random_points(16, 31);
  std::vector<double> got(16 * kDofs);

  auto ticket = dispatcher.try_submit(*fx.device, xs.data(), got.data(), 16);
  EXPECT_FALSE(ticket);
  EXPECT_EQ(dispatcher.stats().rejected_points, 16u);
  EXPECT_EQ(dispatcher.stats().offloaded_points, 0u);

  // CPU fallback produces the values the caller needs.
  fx.cpu->evaluate_batch(xs.data(), got.data(), 16);
  for (std::size_t k = 0; k < 16; ++k) {
    std::vector<double> want(kDofs);
    fx.cpu->evaluate(xs.data() + k * kDim, want.data());
    for (int dof = 0; dof < kDofs; ++dof)
      EXPECT_EQ(got[k * kDofs + static_cast<std::size_t>(dof)], want[static_cast<std::size_t>(dof)]);
  }
}

// Destroying the dispatcher with accepted-but-unwaited tickets must run
// the queued batches inline (results written) — never drop or deadlock.
TEST(Dispatcher, CleanShutdownWithInFlightBatches) {
  Fixture fx;
  constexpr std::size_t kTickets = 8;
  constexpr std::size_t kPerTicket = 4;
  const std::vector<double> xs = fx.random_points(kTickets * kPerTicket, 47);
  std::vector<double> got(kTickets * kPerTicket * kDofs, -1.0);
  {
    DeviceDispatcher dispatcher({/*queue_capacity=*/1024, /*max_batch=*/8});
    for (std::size_t t = 0; t < kTickets; ++t) {
      auto ticket = dispatcher.try_submit(*fx.device, xs.data() + t * kPerTicket * kDim,
                                          got.data() + t * kPerTicket * kDofs, kPerTicket);
      ASSERT_TRUE(ticket);
      // Tickets intentionally dropped without wait().
    }
  }  // ~DeviceDispatcher completes every accepted batch.
  for (std::size_t k = 0; k < kTickets * kPerTicket; ++k) {
    std::vector<double> want(kDofs);
    fx.device->evaluate(xs.data() + k * kDim, want.data());
    for (int dof = 0; dof < kDofs; ++dof)
      EXPECT_EQ(got[k * kDofs + static_cast<std::size_t>(dof)], want[static_cast<std::size_t>(dof)]);
  }
}

// Combining runs the queue head first: a waiter whose ticket sits behind a
// run on another kernel launches that run too before its own, so one wait
// completes both (one launch per kernel — runs never coalesce across
// kernels).
TEST(Dispatcher, WaitRunsEarlierRunOnAnotherKernel) {
  Fixture fx;
  const auto other = kernels::make_kernel(kernels::KernelKind::SimGpu, &fx.dense, &fx.compressed);
  DeviceDispatcher dispatcher({/*queue_capacity=*/256, /*max_batch=*/16});
  constexpr std::size_t kPoints = 6;
  const std::vector<double> xa = fx.random_points(kPoints, 61);
  const std::vector<double> xb = fx.random_points(kPoints, 67);
  std::vector<double> got_a(kPoints * kDofs, -1.0), got_b(kPoints * kDofs, -1.0);

  auto ticket_a = dispatcher.try_submit(*fx.device, xa.data(), got_a.data(), kPoints);
  auto ticket_b = dispatcher.try_submit(*other, xb.data(), got_b.data(), kPoints);
  ASSERT_TRUE(ticket_a);
  ASSERT_TRUE(ticket_b);
  dispatcher.wait(std::move(ticket_b));  // ticket_a is never waited on

  EXPECT_EQ(dispatcher.stats().offloaded_points, 2 * kPoints);
  EXPECT_EQ(dispatcher.stats().batches, 2u);
  for (std::size_t k = 0; k < kPoints; ++k) {
    std::vector<double> want_a(kDofs), want_b(kDofs);
    fx.device->evaluate(xa.data() + k * kDim, want_a.data());
    other->evaluate(xb.data() + k * kDim, want_b.data());
    for (int dof = 0; dof < kDofs; ++dof) {
      const std::size_t i = k * kDofs + static_cast<std::size_t>(dof);
      EXPECT_EQ(got_a[i], want_a[static_cast<std::size_t>(dof)]) << "run A point " << k;
      EXPECT_EQ(got_b[i], want_b[static_cast<std::size_t>(dof)]) << "run B point " << k;
    }
  }
}

// A ticket dropped without wait() stays queued until some waiter combines:
// another thread's wait on a later ticket completes it.
TEST(Dispatcher, DroppedTicketIsCompletedByAnotherThreadsWait) {
  Fixture fx;
  DeviceDispatcher dispatcher({/*queue_capacity=*/256, /*max_batch=*/16});
  constexpr std::size_t kPoints = 4;
  const std::vector<double> xs = fx.random_points(2 * kPoints, 71);
  std::vector<double> got(2 * kPoints * kDofs, -1.0);

  std::thread dropper([&] {
    EXPECT_TRUE(dispatcher.try_submit(*fx.device, xs.data(), got.data(), kPoints));
  });
  dropper.join();
  EXPECT_EQ(dispatcher.stats().offloaded_points, 0u);  // nobody has waited yet

  std::thread waiter([&] {
    auto ticket = dispatcher.try_submit(*fx.device, xs.data() + kPoints * kDim,
                                        got.data() + kPoints * kDofs, kPoints);
    ASSERT_TRUE(ticket);
    dispatcher.wait(std::move(ticket));
  });
  waiter.join();

  EXPECT_EQ(dispatcher.stats().offloaded_points, 2 * kPoints);
  for (std::size_t k = 0; k < 2 * kPoints; ++k) {
    std::vector<double> want(kDofs);
    fx.device->evaluate(xs.data() + k * kDim, want.data());
    for (int dof = 0; dof < kDofs; ++dof)
      EXPECT_EQ(got[k * kDofs + static_cast<std::size_t>(dof)], want[static_cast<std::size_t>(dof)])
          << "point " << k;
  }
}

// queue_capacity below max_batch is raised to it, so a caller chunking at
// max_batch (AsgPolicy does) is never starved into permanent CPU fallback.
TEST(Dispatcher, CapacityIsRaisedToMaxBatch) {
  Fixture fx;
  DeviceDispatcher dispatcher({/*queue_capacity=*/4, /*max_batch=*/32});
  EXPECT_EQ(dispatcher.options().queue_capacity, 32u);
  const std::vector<double> xs = fx.random_points(32, 59);
  std::vector<double> got(32 * kDofs);
  auto ticket = dispatcher.try_submit(*fx.device, xs.data(), got.data(), 32);
  EXPECT_TRUE(ticket);  // a full-size batch fits an idle queue
  dispatcher.wait(std::move(ticket));
  EXPECT_EQ(dispatcher.stats().offloaded_points, 32u);
}

TEST(Dispatcher, CleanShutdownWithNoRequests) {
  DeviceDispatcher dispatcher({/*queue_capacity=*/4, /*max_batch=*/4});
  EXPECT_EQ(dispatcher.stats().offloaded_points, 0u);
  EXPECT_EQ(dispatcher.stats().batches, 0u);
}

// The retained single-point convenience path (one submission + wait) still
// matches the CPU kernel and counts into the same statistics.
TEST(Dispatcher, SinglePointOffloadProducesCorrectResult) {
  Fixture fx;
  DeviceDispatcher dispatcher({/*queue_capacity=*/4, /*max_batch=*/4});
  util::Rng rng(3);
  const std::vector<double> x = rng.uniform_point(kDim);
  std::vector<double> dev_value(kDofs), cpu_value(kDofs);
  ASSERT_TRUE(dispatcher.try_offload(*fx.device, x.data(), dev_value.data()));
  fx.cpu->evaluate(x.data(), cpu_value.data());
  for (int dof = 0; dof < kDofs; ++dof)
    EXPECT_NEAR(dev_value[static_cast<std::size_t>(dof)], cpu_value[static_cast<std::size_t>(dof)],
                1e-12);
  EXPECT_EQ(dispatcher.stats().offloaded_points, 1u);
  EXPECT_EQ(dispatcher.stats().batches, 1u);
}

// Stress: many workers mixing batch submissions, single-point offloads, and
// CPU fallbacks on a deliberately tight queue. Verifies values against the
// worker's own kernel choice and point-count conservation across the
// counters. Runs under TSan/ASan in the sanitizer CI leg: all cross-thread
// state is either dispatcher-internal or thread-local.
TEST(Dispatcher, StressManyThreadsManyBatches) {
  Fixture fx;
  DeviceDispatcher dispatcher({/*queue_capacity=*/64, /*max_batch=*/16});
  constexpr int kThreads = 6;
  constexpr int kTrials = 40;
  std::atomic<int> wrong{0};
  std::atomic<std::uint64_t> cpu_points{0};
  std::atomic<std::uint64_t> total_points{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(500 + static_cast<std::uint64_t>(t));
      for (int trial = 0; trial < kTrials; ++trial) {
        const std::size_t n = 1 + (static_cast<std::size_t>(rng.next_u64()) % 12);
        std::vector<double> xs(n * kDim);
        for (auto& xi : xs) xi = rng.uniform();
        std::vector<double> got(n * kDofs);
        total_points.fetch_add(n);

        bool on_device = false;
        if (trial % 3 == 0 && n == 1) {
          on_device = dispatcher.try_offload(*fx.device, xs.data(), got.data());
          if (!on_device) fx.cpu->evaluate_batch(xs.data(), got.data(), n);
        } else {
          auto ticket = dispatcher.try_submit(*fx.device, xs.data(), got.data(), n);
          on_device = static_cast<bool>(ticket);
          if (on_device)
            dispatcher.wait(std::move(ticket));
          else
            fx.cpu->evaluate_batch(xs.data(), got.data(), n);
        }
        if (!on_device) cpu_points.fetch_add(n);

        // Bitwise check against the kernel that actually served the run.
        const kernels::InterpolationKernel& served = on_device ? *fx.device : *fx.cpu;
        for (std::size_t k = 0; k < n; ++k) {
          std::vector<double> want(kDofs);
          served.evaluate(xs.data() + k * kDim, want.data());
          for (int dof = 0; dof < kDofs; ++dof) {
            if (got[k * kDofs + static_cast<std::size_t>(dof)] !=
                want[static_cast<std::size_t>(dof)])
              wrong.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(wrong.load(), 0);
  const DispatcherStats stats = dispatcher.stats();
  EXPECT_EQ(stats.offloaded_points + cpu_points.load(), total_points.load());
  EXPECT_EQ(stats.rejected_points, cpu_points.load());
  if (stats.batches > 0) {
    EXPECT_GE(stats.mean_batch(), 1.0);
  }
}

}  // namespace
}  // namespace hddm::parallel
