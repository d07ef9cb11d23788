// Policy-serving benchmark: sustained query throughput and tail latency of
// serve::PolicyServer, plus the swap-under-load proof (DESIGN.md, "Policy
// serving").
//
//   serve/qps             — N reader threads of batched queries against one
//                           published snapshot (CPU kernels)
//   serve/qps_device      — same load with the device-offload admission
//                           queue in the serving path
//   serve/swap_under_load — the readers keep querying while a writer
//                           republishes fresh snapshots in a loop
//   serve/load_and_serve  — one snapshot file saved by an x86 policy, loaded
//                           through PolicyServer::load_and_publish with the
//                           default ISA rule, then one query per shock
//
// Each benchmark records p50/p99 per-query latency (microseconds) in its
// info block alongside the QPS implied by seconds_per_item. The report is an
// acceptance gate, not just a table: it *fails the run* (non-zero exit) if
//   - any query during the swap storm returned values that are not bitwise
//     identical to its serving snapshot's precomputed ground truth (a torn
//     read), or threw / was dropped,
//   - the writer failed to publish every scheduled swap (a blocked swap),
//   - a load_and_publish of the x86 snapshot served on the gold kernel (an
//     ISA fallback on the host that can run x86) or answered differently
//     from the saved policy, or
//   - the untimed snapshot parity check fails: save -> load -> evaluate on
//     the gold path must be bitwise identical to the source policy.
//
// Env knobs:  HDDM_SERVE_DIM      (default 4)    grid dimension
//             HDDM_SERVE_LEVEL    (default 4)    regular grid level
//             HDDM_SERVE_NDOFS    (default 8)    dofs per point
//             HDDM_SERVE_THREADS  (default 4)    reader threads
//             HDDM_SERVE_QUERIES  (default 200)  queries per thread per rep
//             HDDM_SERVE_BATCH    (default 32)   points per query
//             HDDM_SERVE_SWAPS    (default 50)   publishes per swap-storm rep
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "benchlib/benchlib.hpp"
#include "serve/policy_server.hpp"
#include "util/stats.hpp"

namespace {

using namespace hddm;

constexpr int kNshocks = 2;
constexpr int kGenerations = 4;  // distinct policies cycled by the swap storm

struct Setup {
  int dim = 4;
  int level = 4;
  int ndofs = 8;
  int threads = 4;
  int queries = 200;
  std::size_t batch = 32;
  int swaps = 50;
  std::vector<double> xs;  // batch rows of dim — the probe every query uses
  /// expected[g][z]: generation g's ground truth at the probe points.
  std::vector<std::vector<std::vector<double>>> expected;
  bool parity_ok = true;  // save -> load -> evaluate bitwise on the gold path
};

// Swap-storm failure counters, accumulated across reps and checked by the
// report (the acceptance gate).
std::atomic<std::uint64_t> g_torn_reads{0};
std::atomic<std::uint64_t> g_failed_queries{0};
std::atomic<std::uint64_t> g_missed_swaps{0};
// load_and_serve failures: loads that fell back to gold, answers that differ.
std::atomic<std::uint64_t> g_gold_loads{0};
std::atomic<std::uint64_t> g_load_mismatches{0};

std::uint64_t generation_seed(int gen) { return 0x5EED + static_cast<std::uint64_t>(gen); }

/// Builds generation `gen`'s policy: deterministic from its seed, so fresh
/// builds answer bitwise identically to the precomputed ground truth.
std::shared_ptr<core::AsgPolicy> make_generation(const Setup& s, int gen,
                                                 kernels::KernelKind kind) {
  std::vector<std::unique_ptr<core::ShockGrid>> grids;
  for (int z = 0; z < kNshocks; ++z) {
    const std::uint64_t seed = generation_seed(gen) * 31 + static_cast<std::uint64_t>(z);
    bench::TestGrid grid = bench::build_test_grid(s.dim, s.level, s.ndofs, seed);
    grids.push_back(std::make_unique<core::ShockGrid>(std::move(grid.dense), kind));
  }
  return std::make_shared<core::AsgPolicy>(s.ndofs, std::move(grids));
}

Setup make_setup() {
  Setup s;
  s.dim = static_cast<int>(util::env_long("HDDM_SERVE_DIM", 4));
  s.level = static_cast<int>(util::env_long("HDDM_SERVE_LEVEL", 4));
  s.ndofs = static_cast<int>(util::env_long("HDDM_SERVE_NDOFS", 8));
  s.threads = static_cast<int>(util::env_long("HDDM_SERVE_THREADS", 4));
  s.queries = static_cast<int>(util::env_long("HDDM_SERVE_QUERIES", 200));
  s.batch = static_cast<std::size_t>(util::env_long("HDDM_SERVE_BATCH", 32));
  s.swaps = static_cast<int>(util::env_long("HDDM_SERVE_SWAPS", 50));

  util::Rng rng(0xBE7);
  s.xs.resize(s.batch * static_cast<std::size_t>(s.dim));
  for (auto& xi : s.xs) xi = rng.uniform();

  // Ground truth per generation and shock, on the tier the benches serve.
  s.expected.resize(kGenerations);
  for (int g = 0; g < kGenerations; ++g) {
    const auto policy = make_generation(s, g, kernels::KernelKind::X86);
    auto& per_shock = s.expected[static_cast<std::size_t>(g)];
    per_shock.resize(kNshocks,
                     std::vector<double>(s.batch * static_cast<std::size_t>(s.ndofs)));
    for (int z = 0; z < kNshocks; ++z)
      policy->evaluate_batch(z, s.xs, per_shock[static_cast<std::size_t>(z)], s.batch);
  }

  // Untimed acceptance check: snapshot round trip on the gold path must be
  // bitwise lossless. (The tests cover this per model; the bench re-proves it
  // on its own synthetic workload so a served regression cannot hide behind
  // scaled-down test grids.)
  {
    const auto original = make_generation(s, 0, kernels::KernelKind::Gold);
    std::stringstream buffer;
    serve::SnapshotMeta meta;
    meta.model = "bench-serve";
    serve::save_snapshot(*original, meta, buffer);
    const serve::LoadedSnapshot loaded =
        serve::load_snapshot(buffer, kernels::KernelKind::Gold);
    std::vector<double> want(static_cast<std::size_t>(s.ndofs));
    std::vector<double> got(want.size());
    util::Rng prng(0xA11CE);
    for (int trial = 0; trial < 50 && s.parity_ok; ++trial) {
      const auto x = prng.uniform_point(s.dim);
      for (int z = 0; z < kNshocks; ++z) {
        original->evaluate(z, x, want);
        loaded.policy->evaluate(z, x, got);
        if (std::memcmp(want.data(), got.data(), want.size() * sizeof(double)) != 0)
          s.parity_ok = false;
      }
    }
  }
  return s;
}

Setup& setup() {
  static Setup s = make_setup();
  return s;
}

struct LoadResult {
  std::vector<double> latencies_us;  // one entry per query, all threads
};

/// Runs the reader load against `server`; validates every response against
/// the generation ground truth when `validate` is set (the swap storm).
LoadResult run_readers(Setup& s, const serve::PolicyServer& server, bool validate) {
  std::vector<std::vector<double>> lat(static_cast<std::size_t>(s.threads));
  std::vector<std::thread> threads;
  for (int t = 0; t < s.threads; ++t) {
    threads.emplace_back([&, t] {
      const auto nd = static_cast<std::size_t>(s.ndofs);
      std::vector<double> out(s.batch * nd);
      auto& mine = lat[static_cast<std::size_t>(t)];
      mine.reserve(static_cast<std::size_t>(s.queries));
      for (int q = 0; q < s.queries; ++q) {
        const int z = (t + q) % kNshocks;
        const auto q0 = std::chrono::steady_clock::now();
        std::uint64_t version = 0;
        try {
          version = server.evaluate_batch(z, s.xs, out, s.batch);
        } catch (...) {
          g_failed_queries.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        const auto q1 = std::chrono::steady_clock::now();
        mine.push_back(std::chrono::duration<double, std::micro>(q1 - q0).count());
        if (validate) {
          const auto gen = static_cast<std::size_t>((version - 1) % kGenerations);
          const auto& want = s.expected[gen][static_cast<std::size_t>(z)];
          if (std::memcmp(want.data(), out.data(), want.size() * sizeof(double)) != 0)
            g_torn_reads.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  LoadResult result;
  for (const auto& mine : lat) result.latencies_us.insert(result.latencies_us.end(),
                                                          mine.begin(), mine.end());
  return result;
}

void record_latency_info(benchlib::State& state, const LoadResult& load) {
  state.info("queries", static_cast<double>(load.latencies_us.size()));
  state.info("latency_p50_us", util::percentile(load.latencies_us, 0.50));
  state.info("latency_p99_us", util::percentile(load.latencies_us, 0.99));
}

void bench_qps(benchlib::State& state) {
  Setup& s = setup();
  serve::PolicyServer server;
  server.publish(make_generation(s, 0, kernels::KernelKind::X86));
  state.set_items_per_rep(static_cast<double>(s.threads) * s.queries * s.batch);
  LoadResult load;
  state.run([&] { load = run_readers(s, server, /*validate=*/false); });
  record_latency_info(state, load);
}

void bench_qps_device(benchlib::State& state) {
  Setup& s = setup();
  serve::ServerOptions opts;
  opts.attach_device = true;
  opts.offload.queue_capacity = 4096;
  opts.offload.max_batch = s.batch;
  serve::PolicyServer server(opts);
  server.publish(make_generation(s, 0, kernels::KernelKind::X86));
  state.set_items_per_rep(static_cast<double>(s.threads) * s.queries * s.batch);
  LoadResult load;
  state.run([&] { load = run_readers(s, server, /*validate=*/false); });
  record_latency_info(state, load);
  const parallel::DispatcherStats dev = server.device_stats();
  state.info("offloaded_points", static_cast<double>(dev.offloaded_points));
  state.info("rejected_points", static_cast<double>(dev.rejected_points));
}

void bench_swap_under_load(benchlib::State& state) {
  Setup& s = setup();
  serve::PolicyServer server;
  server.publish(make_generation(s, 0, kernels::KernelKind::X86));
  state.set_items_per_rep(static_cast<double>(s.threads) * s.queries * s.batch);
  LoadResult load;
  std::uint64_t swaps_done = 0;
  state.run([&] {
    std::thread writer([&] {
      for (int w = 0; w < s.swaps; ++w) {
        // Version v serves generation (v - 1) % kGenerations across reps.
        const auto gen = static_cast<int>((swaps_done + 1) % kGenerations);
        try {
          server.publish(make_generation(s, gen, kernels::KernelKind::X86));
          ++swaps_done;
        } catch (...) {
          g_missed_swaps.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
    load = run_readers(s, server, /*validate=*/true);
    writer.join();
  });
  record_latency_info(state, load);
  state.info("swaps_per_rep", static_cast<double>(s.swaps));
  state.info("swaps_done_total", static_cast<double>(swaps_done));
}

void bench_load_and_serve(benchlib::State& state) {
  Setup& s = setup();
  const std::string path = "bench_serve_load.hsnap";
  serve::SnapshotMeta meta;
  meta.model = "bench-serve";
  serve::save_snapshot(*make_generation(s, 0, kernels::KernelKind::X86), meta, path);
  std::vector<double> out(s.batch * static_cast<std::size_t>(s.ndofs));
  state.set_items_per_rep(1.0);
  state.run([&] {
    serve::PolicyServer server;
    server.load_and_publish(path);
    const serve::ServerStats stats = server.stats();
    if (stats.isa_fallbacks != 0 || stats.kernel == kernels::KernelKind::Gold)
      g_gold_loads.fetch_add(1, std::memory_order_relaxed);
    for (int z = 0; z < kNshocks; ++z) {
      server.evaluate_batch(z, s.xs, out, s.batch);
      const auto& want = s.expected[0][static_cast<std::size_t>(z)];
      if (std::memcmp(want.data(), out.data(), want.size() * sizeof(double)) != 0)
        g_load_mismatches.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::remove(path.c_str());
}

int serve_report(const benchlib::RunReport& report) {
  Setup& s = setup();
  bench::print_header("Policy serving: throughput, tail latency, swap-under-load");
  std::printf("workload: dim=%d ndofs=%d, %d readers x %d queries x %zu points\n", s.dim,
              s.ndofs, s.threads, s.queries, s.batch);

  const auto fmt_us = [](const std::string* v) {
    if (v == nullptr) return std::string("-");
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.1f us", std::strtod(v->c_str(), nullptr));
    return std::string(buf);
  };
  util::Table table({"benchmark", "points/s", "latency p50", "latency p99"});
  for (const char* name : {"serve/qps", "serve/qps_device", "serve/swap_under_load"}) {
    const benchlib::BenchResult* r = report.find_measured(name);
    if (r == nullptr) continue;
    char rate[32];
    std::snprintf(rate, sizeof rate, "%.3g M", 1.0 / r->seconds_per_item() / 1e6);
    table.add_row({name, rate, fmt_us(r->find_info("latency_p50_us")),
                   fmt_us(r->find_info("latency_p99_us"))});
  }
  bench::print_table(table);

  // ---- acceptance gate ----------------------------------------------------
  int rc = 0;
  if (!s.parity_ok) {
    std::fprintf(stderr,
                 "FAIL: snapshot save -> load -> evaluate is not bitwise identical on the "
                 "gold path\n");
    rc = 1;
  }
  const std::uint64_t torn = g_torn_reads.load();
  const std::uint64_t failed = g_failed_queries.load();
  const std::uint64_t missed = g_missed_swaps.load();
  if (torn != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu quer%s returned values inconsistent with their serving snapshot "
                 "version (torn read under hot swap)\n",
                 static_cast<unsigned long long>(torn), torn == 1 ? "y" : "ies");
    rc = 1;
  }
  if (failed != 0) {
    std::fprintf(stderr, "FAIL: %llu quer%s threw or were dropped during the swap storm\n",
                 static_cast<unsigned long long>(failed), failed == 1 ? "y" : "ies");
    rc = 1;
  }
  if (missed != 0) {
    std::fprintf(stderr, "FAIL: %llu scheduled snapshot publish%s did not complete\n",
                 static_cast<unsigned long long>(missed), missed == 1 ? "" : "es");
    rc = 1;
  }
  const std::uint64_t gold = g_gold_loads.load();
  const std::uint64_t mismatched = g_load_mismatches.load();
  if (gold != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu load%s of an x86 snapshot served on the gold kernel (ISA "
                 "fallback on a host that runs x86)\n",
                 static_cast<unsigned long long>(gold), gold == 1 ? "" : "s");
    rc = 1;
  }
  if (mismatched != 0) {
    std::fprintf(stderr,
                 "FAIL: %llu quer%s after load_and_publish differ bitwise from the saved "
                 "policy\n",
                 static_cast<unsigned long long>(mismatched), mismatched == 1 ? "y" : "ies");
    rc = 1;
  }
  if (rc == 0)
    std::printf("swap-under-load proof: every query served by exactly one snapshot version, "
                "bitwise consistent; no drops, no blocked swaps\n");
  return rc;
}

const bool registered = [] {
  benchlib::register_benchmark("serve/qps", bench_qps);
  benchlib::register_benchmark("serve/qps_device", bench_qps_device);
  benchlib::register_benchmark("serve/swap_under_load", bench_swap_under_load);
  benchlib::register_benchmark("serve/load_and_serve", bench_load_and_serve);
  benchlib::register_report(serve_report);
  return true;
}();

}  // namespace

int main(int argc, char** argv) { return hddm::benchlib::run_main(argc, argv, "bench_serve"); }
