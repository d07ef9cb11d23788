// Swap-under-load stress: reader threads hammer PolicyServer::evaluate_batch
// while a writer republishes snapshots in a loop. The torn-read oracle: every
// policy generation has precomputed expected outputs at fixed probe points,
// and evaluate_batch returns the version that served the whole call — so each
// response must be bitwise equal to exactly that version's expected outputs.
// A torn read (mixing generations mid-batch), a half-built snapshot, or a
// use-after-retire would all break the bitwise match or crash under the
// sanitizer legs (this suite is TSan/ASan-friendly: bounded iterations, no
// sleeps, joins everything).
#include "serve/policy_server.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <thread>
#include <vector>

#include "sparse_grid/regular.hpp"
#include "util/rng.hpp"

namespace hddm::serve {
namespace {

constexpr int kDim = 2;
constexpr int kNdofs = 3;
constexpr int kNshocks = 2;
constexpr std::size_t kProbePoints = 8;

std::shared_ptr<core::AsgPolicy> make_policy(std::uint64_t seed) {
  std::vector<std::unique_ptr<core::ShockGrid>> grids;
  util::Rng rng(seed);
  for (int z = 0; z < kNshocks; ++z) {
    sg::GridStorage storage(kDim);
    sg::build_regular_grid(storage, 3);
    std::vector<double> surpluses(static_cast<std::size_t>(storage.size()) * kNdofs);
    for (auto& s : surpluses) s = rng.uniform(-2, 2);
    grids.push_back(std::make_unique<core::ShockGrid>(sg::make_dense_grid(storage, kNdofs, surpluses),
                                                      kernels::KernelKind::X86));
  }
  return std::make_shared<core::AsgPolicy>(kNdofs, std::move(grids));
}

struct StressConfig {
  int generations = 4;      ///< distinct policies cycled by the writer
  int swaps = 200;          ///< writer republish count
  int readers = 4;          ///< reader threads
  int queries_per_reader = 500;
  ServerOptions server;
};

std::uint64_t generation_seed(int gen) { return 0xABC0 + static_cast<std::uint64_t>(gen); }

/// Runs the stress; returns the number of bitwise mismatches observed.
int run_stress(const StressConfig& cfg) {
  // Distinct generations with precomputed ground truth at fixed probes. The
  // writer publishes *fresh* policy objects rebuilt from these seeds (a
  // published generation is immutable; re-attaching a device to a live one
  // would be a real race), and make_policy is deterministic from its seed, so
  // the rebuilt policies answer bitwise identically to these oracles.
  std::vector<std::shared_ptr<core::AsgPolicy>> policies;
  for (int g = 0; g < cfg.generations; ++g) policies.push_back(make_policy(generation_seed(g)));

  util::Rng rng(0x51A55);
  std::vector<double> xs(kProbePoints * kDim);
  for (auto& xi : xs) xi = rng.uniform();

  // expected[g][z] = policies[g]->evaluate_batch(z, xs) — computed before any
  // thread starts, against the same X86 kernels the server will pin.
  std::vector<std::vector<std::vector<double>>> expected(
      static_cast<std::size_t>(cfg.generations));
  for (int g = 0; g < cfg.generations; ++g) {
    auto& per_shock = expected[static_cast<std::size_t>(g)];
    per_shock.resize(kNshocks, std::vector<double>(kProbePoints * kNdofs));
    for (int z = 0; z < kNshocks; ++z)
      policies[static_cast<std::size_t>(g)]->evaluate_batch(z, xs,
                                                            per_shock[static_cast<std::size_t>(z)],
                                                            kProbePoints);
  }

  PolicyServer server(cfg.server);
  server.publish(make_policy(generation_seed(0)));  // version 1 -> generation 0

  std::atomic<bool> writer_done{false};
  std::atomic<int> mismatches{0};

  std::vector<std::thread> readers;
  readers.reserve(static_cast<std::size_t>(cfg.readers));
  for (int r = 0; r < cfg.readers; ++r) {
    readers.emplace_back([&, r] {
      std::vector<double> out(kProbePoints * kNdofs);
      for (int q = 0; q < cfg.queries_per_reader; ++q) {
        const int z = (r + q) % kNshocks;
        const std::uint64_t version =
            server.evaluate_batch(z, xs, out, kProbePoints);
        // Versions are 1-based and the writer cycles generations round-robin.
        const auto gen = static_cast<std::size_t>((version - 1) %
                                                  static_cast<std::uint64_t>(cfg.generations));
        const auto& want = expected[gen][static_cast<std::size_t>(z)];
        if (std::memcmp(want.data(), out.data(), want.size() * sizeof(double)) != 0)
          mismatches.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::thread writer([&] {
    for (int s = 0; s < cfg.swaps; ++s) {
      const int gen = (s + 1) % cfg.generations;
      server.publish(make_policy(generation_seed(gen)));
    }
    writer_done.store(true, std::memory_order_release);
  });

  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_TRUE(writer_done.load());
  EXPECT_EQ(server.stats().swaps, static_cast<std::uint64_t>(cfg.swaps) + 1);
  EXPECT_GE(server.stats().queries,
            static_cast<std::uint64_t>(cfg.readers) *
                static_cast<std::uint64_t>(cfg.queries_per_reader));
  return mismatches.load();
}

TEST(ServerHotSwap, NoTornReadsUnderCpuLoad) {
  EXPECT_EQ(0, run_stress({}));
}

TEST(ServerHotSwap, NoTornReadsUnderDeviceLoad) {
  // Same oracle with the admission queue in the loop: every generation gets a
  // device attached before publication and its dispatcher torn down on
  // retirement, so the stress also covers swap-while-offload teardown. The
  // device kernel is pinned to the CPU tier so offloaded and fallback points
  // agree bit for bit with the oracle (SimGpu-vs-CPU parity is ULP-bounded
  // and owned by test_kernel_parity, not this test).
  StressConfig cfg;
  cfg.swaps = 60;
  cfg.queries_per_reader = 200;
  cfg.server.attach_device = true;
  cfg.server.device_kernel = kernels::KernelKind::X86;
  cfg.server.offload.queue_capacity = 1024;
  cfg.server.offload.max_batch = 32;
  EXPECT_EQ(0, run_stress(cfg));
}

TEST(ServerHotSwap, RetiredGenerationsOutliveTheirPins) {
  // A reader pins current() explicitly, the writer retires it many times
  // over, and the pinned snapshot must stay fully usable (refcount keeps the
  // whole generation — policy, kernels, dispatcher — alive).
  PolicyServer server;
  const auto p0 = make_policy(0xDEAD);
  server.publish(p0);
  const auto pinned = server.current();

  for (int s = 0; s < 16; ++s) server.publish(make_policy(0xDEAD + 1 + static_cast<std::uint64_t>(s)));
  EXPECT_EQ(server.current()->version, 17u);

  util::Rng rng(1);
  std::vector<double> x(kDim), out(kNdofs), want(kNdofs);
  for (auto& xi : x) xi = rng.uniform();
  pinned->policy->evaluate(0, x, out);
  p0->evaluate(0, x, want);
  EXPECT_EQ(pinned->version, 1u);
  EXPECT_EQ(0, std::memcmp(want.data(), out.data(), kNdofs * sizeof(double)));
}

}  // namespace
}  // namespace hddm::serve
