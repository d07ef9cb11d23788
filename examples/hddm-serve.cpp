// Policy-serving front end: load (or produce) a policy snapshot and answer
// batched evaluation queries through a PolicyServer, with a live hot swap
// under load — the deployment story of ROADMAP item 1.
//
//   $ ./hddm-serve [snapshot.hsnap]
//
// Without an argument the example solves a small stochastic OLG economy,
// saves the converged policy as a snapshot (so the artifact on disk is the
// real serialization path, not a shortcut), loads it back, and serves it.
// With an argument it serves an existing snapshot file. Either way it then:
//
//   1. reports the snapshot's provenance (model, params, git SHA, ISA tier)
//      and the kernel tier chosen after ISA revalidation,
//   2. runs a multi-threaded query load and reports sustained QPS plus
//      p50/p99 per-query latency,
//   3. republishes a refreshed snapshot *while the readers are querying* —
//      the zero-downtime hot swap — and shows which versions served the
//      traffic before and after.
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/time_iteration.hpp"
#include "olg/olg_model.hpp"
#include "serve/policy_server.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace {

using namespace hddm;

/// Solves the demo economy and returns the converged policy.
std::shared_ptr<core::AsgPolicy> solve_demo_policy() {
  std::printf("[solve] no snapshot given — solving a small OLG economy first\n");
  const olg::OlgModel model(olg::build_economy(olg::reduced_calibration(4, 2, 1)));
  core::TimeIterationOptions opts;
  opts.base_level = 2;
  opts.max_iterations = 40;
  opts.tolerance = 1e-4;
  opts.threads = 2;
  auto result = core::solve_time_iteration(model, opts);
  std::printf("[solve] %s after %d iterations (final change %.2e)\n",
              result.converged ? "converged" : "stopped", result.iterations,
              result.final_change);
  return std::shared_ptr<core::AsgPolicy>(std::move(result.policy));
}

struct LoadReport {
  double qps = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  std::uint64_t versions_seen_lo = 0;  ///< smallest version that served a query
  std::uint64_t versions_seen_hi = 0;  ///< largest version that served a query
};

/// Hammers the server from `nthreads` readers; the caller may swap snapshots
/// concurrently. Every query's latency and serving version are recorded.
LoadReport run_load(const serve::PolicyServer& server, int nthreads, int queries_per_thread,
                    std::size_t batch_points) {
  const auto snap = server.current();
  const int d = snap->policy->grid(0).dense().dim;
  const auto nd = static_cast<std::size_t>(snap->policy->ndofs());
  const int nshocks = snap->policy->num_shocks();

  std::vector<std::vector<double>> latencies(static_cast<std::size_t>(nthreads));
  std::atomic<std::uint64_t> lo{UINT64_MAX}, hi{0};

  const auto t0 = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  for (int t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      util::Rng rng(0x5E12 + static_cast<std::uint64_t>(t));
      std::vector<double> xs(batch_points * static_cast<std::size_t>(d));
      std::vector<double> out(batch_points * nd);
      auto& lat = latencies[static_cast<std::size_t>(t)];
      lat.reserve(static_cast<std::size_t>(queries_per_thread));
      for (int q = 0; q < queries_per_thread; ++q) {
        for (auto& xi : xs) xi = rng.uniform();
        const int z = q % nshocks;
        const auto q0 = std::chrono::steady_clock::now();
        const std::uint64_t version = server.evaluate_batch(z, xs, out, batch_points);
        const auto q1 = std::chrono::steady_clock::now();
        lat.push_back(std::chrono::duration<double, std::micro>(q1 - q0).count());
        std::uint64_t cur = lo.load();
        while (version < cur && !lo.compare_exchange_weak(cur, version)) {}
        cur = hi.load();
        while (version > cur && !hi.compare_exchange_weak(cur, version)) {}
      }
    });
  }
  for (auto& th : threads) th.join();
  const double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::vector<double> all;
  for (const auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
  LoadReport report;
  report.qps = static_cast<double>(all.size()) / elapsed;
  report.p50_us = util::percentile(all, 0.50);
  report.p99_us = util::percentile(all, 0.99);
  report.versions_seen_lo = lo.load();
  report.versions_seen_hi = hi.load();
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  // 1. Obtain a snapshot file: the given one, or solve-and-save.
  std::string path;
  if (argc > 1) {
    path = argv[1];
  } else {
    const auto policy = solve_demo_policy();
    serve::SnapshotMeta meta;
    meta.model = "olg";
    meta.params = "reduced_calibration(4, 2, 1)";
    path = "olg_policy.hsnap";
    serve::save_snapshot(*policy, meta, path);
    std::printf("[save ] wrote %s\n", path.c_str());
  }

  // 2. Load it through the full validation path and publish.
  serve::PolicyServer server;
  try {
    server.load_and_publish(path);
  } catch (const serve::SnapshotError& e) {
    std::fprintf(stderr, "hddm-serve: cannot serve %s: %s\n", path.c_str(), e.what());
    return 1;
  }
  const auto snap = server.current();
  std::printf("\n--- snapshot provenance ---------------------------------------\n");
  util::Table prov({"field", "value"});
  prov.add_row({"model", snap->meta.model});
  prov.add_row({"params", snap->meta.params});
  prov.add_row({"git sha", snap->meta.git_sha});
  prov.add_row({"saved ISA tier", snap->meta.isa_tier});
  const serve::ServerStats loaded = server.stats();
  prov.add_row({"serving kernel", std::string(kernels::kernel_name(*loaded.kernel))});
  prov.add_row({"gold fallbacks", std::to_string(loaded.isa_fallbacks)});
  prov.add_row({"shocks", std::to_string(snap->policy->num_shocks())});
  prov.add_row({"grid points", std::to_string(snap->policy->total_points())});
  std::fputs(prov.to_string().c_str(), stdout);

  // 3. Steady-state load.
  const int nthreads = 4;
  const int queries = 400;
  const std::size_t batch = 32;
  std::printf("\n--- query load (%d threads x %d queries, %zu points each) -----\n", nthreads,
              queries, batch);
  const LoadReport before = run_load(server, nthreads, queries, batch);
  std::printf("sustained: %.0f queries/s, latency p50 %.1f us, p99 %.1f us\n", before.qps,
              before.p50_us, before.p99_us);

  // 4. Hot swap under load: readers keep querying while a writer republishes
  // the snapshot. No query is dropped or blocked; each is served entirely by
  // one version.
  std::printf("\n--- hot swap under load ---------------------------------------\n");
  std::atomic<bool> swapped{false};
  std::thread writer([&] {
    server.load_and_publish(path);
    swapped.store(true);
  });
  const LoadReport during = run_load(server, nthreads, queries, batch);
  writer.join();
  std::printf("sustained: %.0f queries/s, latency p50 %.1f us, p99 %.1f us\n", during.qps,
              during.p50_us, during.p99_us);
  std::printf("versions serving traffic: %llu -> %llu (swap published v%llu mid-load)\n",
              static_cast<unsigned long long>(during.versions_seen_lo),
              static_cast<unsigned long long>(during.versions_seen_hi),
              static_cast<unsigned long long>(server.current()->version));

  const serve::ServerStats stats = server.stats();
  std::printf("\nserver totals: %llu queries, %llu points, %llu snapshots published, "
              "%llu gold fallbacks; serving kernel %s\n",
              static_cast<unsigned long long>(stats.queries),
              static_cast<unsigned long long>(stats.points),
              static_cast<unsigned long long>(stats.swaps),
              static_cast<unsigned long long>(stats.isa_fallbacks),
              std::string(kernels::kernel_name(*stats.kernel)).c_str());
  if (!swapped.load() || stats.swaps < 2) {
    std::fprintf(stderr, "hddm-serve: hot swap did not complete\n");
    return 1;
  }
  if (argc <= 1) std::remove(path.c_str());
  return 0;
}
