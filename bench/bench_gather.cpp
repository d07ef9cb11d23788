// Per-solve gather benchmark: Newton-internal policy evaluation, per-shock
// scalar vs gathered through PolicyEvaluator::evaluate_gather (DESIGN.md,
// "Batched device-offload pipeline" — per-solve gather stage).
//
// The Newton solves inside every grid-point equilibrium evaluate p_next once
// per successor shock per residual evaluation; with finite-difference
// Jacobians that is Ns x (n+1) scalar interpolations per iteration. The
// gather entry point collects a whole Jacobian sweep's requests and issues
// them per shock through evaluate_batch — and therefore the ticketed device
// pipeline. Benchmarks drive the exact request pattern of one sweep:
//   gather/scalar/N<k>   — one evaluate() (blocking device handshake) per
//                          (successor shock, trial column) request
//   gather/batched/N<k>  — ONE evaluate_gather per sweep
// across IRBC country counts N (d = ndofs = N, Ns = 2^min(N,4)).
//
// The report adds the real-solver acceptance checks (untimed, CPU kernels):
// IrbcModel::solve_point against the same policy once with the gather-aware
// AsgPolicy and once behind a scalar-only adapter (the pre-gather regime).
// The run FAILS (non-zero exit) if
//   * the two solves are not bit-identical,
//   * at N >= 4 the gathered solve's policy calls do not collapse (mean
//     requests per gather < Ns while scalar pays one call per request),
//   * at N >= 4 the measured mean submitted-run size shows no batching, or
//   * at N >= 4 the modeled P100 cost per request does not beat scalar.
//
// Env knobs:  HDDM_GATHER_SWEEPS (default 64)  Jacobian sweeps per rep
//             HDDM_GATHER_LEVEL  (default 4)   regular grid level of p_next
//             HDDM_GATHER_SOLVES (default 3)   solve_point parity points
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "benchlib/benchlib.hpp"
#include "core/policy.hpp"
#include "irbc/irbc_model.hpp"
#include "simgpu/perf_model.hpp"
#include "sparse_grid/hierarchize.hpp"
#include "sparse_grid/regular.hpp"
#include "support/scalar_policy_view.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

namespace {

using namespace hddm;

constexpr int kCountryCounts[] = {2, 4, 8};

std::unique_ptr<core::AsgPolicy> build_policy(const irbc::IrbcModel& model, int level,
                                              std::uint64_t seed) {
  const int N = model.state_dim();
  std::vector<std::unique_ptr<core::ShockGrid>> grids;
  for (int z = 0; z < model.num_shocks(); ++z) {
    sg::GridStorage storage(N);
    sg::build_regular_grid(storage, level);
    // Near-identity policy (k' = k plus a few percent of noise): nodal
    // values are hierarchized into surpluses, so the solver workload is the
    // realistic one — interpolants stay inside the solve box.
    sg::DenseGridData dense = sg::make_dense_grid(storage, N);
    util::Rng rng(seed + static_cast<std::uint64_t>(z));
    for (std::uint32_t p = 0; p < storage.size(); ++p) {
      const std::vector<double> phys = model.domain().to_physical(storage.coordinates(p));
      double* row = dense.surplus_row(p);
      for (int j = 0; j < N; ++j)
        row[j] = phys[static_cast<std::size_t>(j)] * (1.0 + 0.02 * rng.uniform(-1.0, 1.0));
    }
    sg::hierarchize_tail(dense, 0);
    grids.push_back(
        std::make_unique<core::ShockGrid>(std::move(dense), kernels::KernelKind::X86));
  }
  return std::make_unique<core::AsgPolicy>(N, std::move(grids));
}

struct Setup {
  irbc::IrbcCalibration cal;
  std::unique_ptr<irbc::IrbcModel> model;
  // Two device-attached twins (identical grids) so each benchmark owns its
  // dispatcher counters, plus a CPU-only policy for the bitwise solve check.
  std::unique_ptr<core::AsgPolicy> dev_scalar;
  std::unique_ptr<core::AsgPolicy> dev_batched;
  std::unique_ptr<core::AsgPolicy> cpu;
  std::vector<double> xs;                      // sweep columns (rows of N)
  std::vector<core::GatherRequest> requests;   // one sweep's request list
  std::size_t sweeps = 0;
  std::size_t cols = 0;  // trial columns per sweep (residual + N Jacobian)
  // Real-solver acceptance results (computed once, untimed, CPU kernels).
  bool solve_parity_ok = true;
  long long scalar_calls = 0;    ///< policy entry calls of the scalar solve
  long long gathered_calls = 0;  ///< policy entry calls of the gathered solve
  long long interpolations = 0;  ///< point-interpolations (equal on both paths)
  double mean_requests_per_gather = 0.0;
};

Setup make_setup(int countries) {
  Setup s;
  s.cal.countries = countries;
  s.model = std::make_unique<irbc::IrbcModel>(s.cal);
  const int level = static_cast<int>(util::env_long("HDDM_GATHER_LEVEL", 4));
  s.sweeps = static_cast<std::size_t>(util::env_long("HDDM_GATHER_SWEEPS", 64));
  const auto solves = static_cast<int>(util::env_long("HDDM_GATHER_SOLVES", 3));

  s.dev_scalar = build_policy(*s.model, level, 100);
  s.dev_batched = build_policy(*s.model, level, 100);
  s.cpu = build_policy(*s.model, level, 100);
  s.dev_scalar->attach_default_device(kernels::KernelKind::SimGpu);
  s.dev_batched->attach_default_device(kernels::KernelKind::SimGpu);

  const auto N = static_cast<std::size_t>(countries);
  const int Ns = s.model->num_shocks();
  s.cols = N + 1;  // one residual + N finite-difference columns
  util::Rng rng(7);
  s.xs.resize(s.sweeps * s.cols * N);
  for (auto& xi : s.xs) xi = rng.uniform();
  for (int z = 0; z < Ns; ++z)
    for (std::size_t col = 0; col < s.cols; ++col)
      s.requests.push_back({z, static_cast<std::uint32_t>(col)});

  // --- real-solver acceptance: gathered vs per-shock scalar solve_point ----
  const core::InitialPolicyEvaluator warm_eval(*s.model);
  const core::ScalarPolicyView scalar_view(*s.cpu);
  util::Rng prng(11);
  for (int p = 0; p < solves; ++p) {
    const std::vector<double> x_unit = prng.uniform_point(countries);
    std::vector<double> warm(N);
    warm_eval.evaluate(0, x_unit, warm);
    const core::GatherStats before = s.cpu->gather_stats();
    const auto gathered = s.model->solve_point(p % Ns, x_unit, *s.cpu, warm);
    const core::GatherStats delta = s.cpu->gather_stats().since(before);
    const auto scalar = s.model->solve_point(p % Ns, x_unit, scalar_view, warm);

    if (gathered.dofs.size() != scalar.dofs.size()) s.solve_parity_ok = false;
    for (std::size_t j = 0; j < gathered.dofs.size() && s.solve_parity_ok; ++j)
      if (gathered.dofs[j] != scalar.dofs[j]) s.solve_parity_ok = false;

    // Scalar regime: every interpolation is its own policy call. Gathered:
    // the same interpolations ride on solve's gather count.
    s.scalar_calls += scalar.interpolations;
    s.interpolations += gathered.interpolations;
    s.gathered_calls += gathered.gathers;
    s.mean_requests_per_gather += delta.mean_requests();
  }
  if (solves > 0) s.mean_requests_per_gather /= solves;
  return s;
}

Setup& setup(int countries) {
  static std::map<int, std::unique_ptr<Setup>> cache;
  auto& slot = cache[countries];
  if (!slot) slot = std::make_unique<Setup>(make_setup(countries));
  return *slot;
}

simgpu::KernelEstimate modeled_estimate(const Setup& s) {
  simgpu::KernelWorkload w;
  const core::CompressedGridData& grid = s.cpu->grid(0).compressed();
  w.nno = grid.nno;
  w.ndofs = static_cast<std::uint64_t>(grid.ndofs);
  w.nfreq = static_cast<std::uint64_t>(grid.nfreq);
  w.xps = grid.xps.size();
  w.active_fraction = 1.0;  // same on both sides of the comparison
  return simgpu::estimate_interpolation(simgpu::DeviceProperties{}, w);
}

/// Modeled P100 seconds per request when `batch` requests share one launch.
double modeled_seconds_per_request(const Setup& s, double batch) {
  const simgpu::KernelEstimate est = modeled_estimate(s);
  const double body = std::max(est.memory_seconds, est.compute_seconds);
  return body + est.launch_overhead_seconds / std::max(batch, 1.0);
}

void bench_scalar(benchlib::State& state, int countries) {
  Setup& s = setup(countries);
  const auto N = static_cast<std::size_t>(countries);
  std::vector<double> out(N);
  state.set_items_per_rep(static_cast<double>(s.sweeps * s.requests.size()));
  state.run([&] {
    // One blocking per-point policy call per (shock, column) request — the
    // pre-gather Newton-internal regime.
    for (std::size_t sweep = 0; sweep < s.sweeps; ++sweep) {
      const double* base = s.xs.data() + sweep * s.cols * N;
      for (const core::GatherRequest& r : s.requests)
        s.dev_scalar->evaluate(r.z, {base + static_cast<std::size_t>(r.point) * N, N}, out);
    }
  });
  benchlib::do_not_optimize(out.data());
  const parallel::DispatcherStats stats = s.dev_scalar->device_stats();
  state.info("mean_run", stats.mean_run());
  state.info("mean_batch", stats.mean_batch());
  state.info("modeled_p100_s_per_req", modeled_seconds_per_request(s, stats.mean_batch()));
}

void bench_batched(benchlib::State& state, int countries) {
  Setup& s = setup(countries);
  const auto N = static_cast<std::size_t>(countries);
  std::vector<double> out(s.requests.size() * N);
  state.set_items_per_rep(static_cast<double>(s.sweeps * s.requests.size()));
  state.run([&] {
    // One gather per Jacobian sweep: requests bucket per shock into
    // evaluate_batch runs riding the ticketed offload pipeline.
    for (std::size_t sweep = 0; sweep < s.sweeps; ++sweep)
      s.dev_batched->evaluate_gather(s.requests,
                                     {s.xs.data() + sweep * s.cols * N, s.cols * N}, s.cols,
                                     out, N);
  });
  benchlib::do_not_optimize(out.data());
  const parallel::DispatcherStats stats = s.dev_batched->device_stats();
  state.info("mean_run", stats.mean_run());
  state.info("mean_batch", stats.mean_batch());
  state.info("modeled_p100_s_per_req", modeled_seconds_per_request(s, stats.mean_batch()));
}

int gather_report(const benchlib::RunReport& report) {
  bench::print_header("Per-solve gather: Newton-internal policy evaluation");
  std::printf("(host times measure dispatch cost at the *simulated* device; the P100 column\n"
              " is the perf_model projection where gathering amortizes launch overhead)\n");

  util::Table table({"countries", "Ns", "path", "host s/request", "mean run", "mean batch",
                     "modeled P100 s/req"});
  int rc = 0;
  for (const int countries : kCountryCounts) {
    std::string tag = "N";
    tag += std::to_string(countries);
    const auto* scalar = report.find_measured("gather/scalar/" + tag);
    const auto* batched = report.find_measured("gather/batched/" + tag);
    if (scalar == nullptr || batched == nullptr) continue;
    Setup& s = setup(countries);
    const int Ns = s.model->num_shocks();

    const auto info_num = [](const benchlib::BenchResult* r, const char* key) {
      const std::string* v = r->find_info(key);
      return v != nullptr ? std::strtod(v->c_str(), nullptr) : 0.0;
    };
    for (const auto* r : {scalar, batched}) {
      table.add_row({std::to_string(countries), std::to_string(Ns),
                     r == scalar ? "scalar" : "gathered",
                     util::fmt_seconds(r->seconds_per_item()),
                     util::fmt_double(info_num(r, "mean_run"), 2),
                     util::fmt_double(info_num(r, "mean_batch"), 2),
                     util::fmt_seconds(info_num(r, "modeled_p100_s_per_req"))});
    }

    if (countries < 4) continue;
    // Acceptance at N >= 4 — the paper-relevant scale. (1) the pipeline must
    // really coalesce: mean submitted-run size ~ the sweep's per-shock
    // column count, not 1; (2) the modeled per-request cost must beat the
    // per-point handshake's.
    const double expected_run = static_cast<double>(s.cols);
    const double mean_run = info_num(batched, "mean_run");
    if (mean_run < 0.5 * expected_run) {
      std::fprintf(stderr,
                   "FAIL: gather/batched/%s mean submitted run %.2f points (expected ~%.0f) "
                   "— per-solve batching is not happening\n",
                   tag.c_str(), mean_run, expected_run);
      rc = 1;
    }
    const double modeled_scalar = info_num(scalar, "modeled_p100_s_per_req");
    const double modeled_batched = info_num(batched, "modeled_p100_s_per_req");
    if (!(modeled_batched < modeled_scalar)) {
      std::fprintf(stderr,
                   "FAIL: modeled gathered evaluation (%s, %.3e s/req) does not beat the "
                   "per-shock scalar path (%.3e s/req)\n",
                   tag.c_str(), modeled_batched, modeled_scalar);
      rc = 1;
    }
  }
  bench::print_table(table);

  bench::print_header("solve_point acceptance (CPU kernels, untimed)");
  util::Table solves({"countries", "interpolations", "scalar policy calls",
                      "gathered policy calls", "mean req/gather", "bit-identical"});
  for (const int countries : kCountryCounts) {
    Setup& s = setup(countries);
    const int Ns = s.model->num_shocks();
    solves.add_row({std::to_string(countries), util::fmt_count(s.interpolations),
                    util::fmt_count(s.scalar_calls), util::fmt_count(s.gathered_calls),
                    util::fmt_double(s.mean_requests_per_gather, 2),
                    s.solve_parity_ok ? "yes" : "NO"});
    if (!s.solve_parity_ok) {
      std::fprintf(stderr, "FAIL: N=%d gathered and scalar solve_point dofs differ bitwise\n",
                   countries);
      rc = 1;
    }
    if (countries >= 4 &&
        s.mean_requests_per_gather < static_cast<double>(Ns)) {
      std::fprintf(stderr,
                   "FAIL: N=%d mean requests per gather %.2f < Ns=%d — per-solve call counts "
                   "did not collapse\n",
                   countries, s.mean_requests_per_gather, Ns);
      rc = 1;
    }
  }
  bench::print_table(solves);
  if (rc == 0)
    std::printf("parity: gathered Newton solves bit-identical to the per-shock scalar path\n");
  return rc;
}

const bool registered = [] {
  for (const int countries : kCountryCounts) {
    std::string tag = "N";
    tag += std::to_string(countries);
    benchlib::register_benchmark("gather/scalar/" + tag, [countries](benchlib::State& st) {
      bench_scalar(st, countries);
    });
    benchlib::register_benchmark("gather/batched/" + tag, [countries](benchlib::State& st) {
      bench_batched(st, countries);
    });
  }
  benchlib::register_report(gather_report);
  return true;
}();

}  // namespace

int main(int argc, char** argv) { return hddm::benchlib::run_main(argc, argv, "bench_gather"); }
