// Jacobian-refresh benchmark: batched finite differences vs the analytic
// Euler-system columns (DESIGN.md, "Jacobian pipeline").
//
// PR 4 collapsed the per-solve interpolation traffic into gathers, leaving
// the Newton hot loop dominated by Jacobian refreshes: a batched-FD sweep
// still costs N full residual evaluations (one gathered interpolation pass
// carrying Ns x N requests) per refresh, while the analytic refresh costs
// ONE evaluate_gather_with_gradient of Ns requests. Benchmarks time the two
// refresh paths on identical IRBC trial points:
//   jacobian/fd/N<k>        — solver::finite_difference_jacobian over the
//                             batched residual (the PR 4 regime)
//   jacobian/analytic/N<k>  — IrbcModel::euler_jacobian (closed-form columns)
// across country counts N (d = ndofs = N, Ns = 2^min(N,4)).
//
// The report adds untimed acceptance checks on real Newton solves — the
// model's residual, its Newton settings and capital box
// (IrbcModel::newton_options), one warm start, solved by solver::solve_newton
// once with and once without euler_jacobian — and FAILS (non-zero exit) if
//   * at N >= 4 the analytic sweep does not beat the batched-FD sweep, on
//     the medians of 21 interleaved samples of each that the check times
//     itself,
//   * the analytic and FD-refreshed solutions diverge beyond the documented
//     trajectory tolerance (1e-6 inf-norm on converged dofs — both solve to
//     residual 1e-10, so agreeing endpoints are the correctness statement;
//     iteration paths may differ),
//   * any refresh of those analytic solves deviates from the batched-FD
//     reference by solver::jacobian_deviation > 1e-3 (the audit), or
//   * no sampled point produced a converged trajectory pair at some N.
// Solves where BOTH runs fail to converge are excluded: an unconverged
// Newton stops at whatever iterate the line search died on, which depends
// on the Jacobian path by construction (and wanders into floor/clamp
// regions where forward differences straddle kinks), so neither endpoint
// agreement nor the FD audit is meaningful there.
//
// Env knobs:  HDDM_JAC_SWEEPS (default 64)  Jacobian refreshes per rep
//             HDDM_JAC_LEVEL  (default 4)   regular grid level of p_next
//             HDDM_JAC_SOLVES (default 3)   solve_point trajectory points
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "benchlib/benchlib.hpp"
#include "core/policy.hpp"
#include "irbc/irbc_model.hpp"
#include "sparse_grid/hierarchize.hpp"
#include "sparse_grid/regular.hpp"
#include "util/env.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

using namespace hddm;

constexpr int kCountryCounts[] = {2, 4, 8};
/// Documented trajectory tolerance: inf-norm between converged Newton
/// solutions with analytic vs finite-difference refreshes (see DESIGN.md).
constexpr double kTrajectoryTolerance = 1e-6;
/// A refresh whose jacobian_deviation from the FD reference exceeds this is
/// a wrong derivative, not FD truncation error (see DESIGN.md).
constexpr double kAuditTolerance = 1e-3;
/// Forward-difference step scale of the FD solves and the audit reference.
constexpr double kFdEpsilon = 1e-7;

std::unique_ptr<core::AsgPolicy> build_policy(const irbc::IrbcModel& model, int level,
                                              std::uint64_t seed) {
  const int N = model.state_dim();
  std::vector<std::unique_ptr<core::ShockGrid>> grids;
  for (int z = 0; z < model.num_shocks(); ++z) {
    sg::GridStorage storage(N);
    sg::build_regular_grid(storage, level);
    // Near-identity policy (k' = k plus a few percent of noise), hierarchized
    // so interpolants stay inside the solve box — the bench_gather workload.
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
  std::unique_ptr<irbc::IrbcModel> model;
  std::unique_ptr<core::AsgPolicy> policy;
  std::vector<double> x_unit;  // today's state (unit cube)
  std::vector<double> us;      // sweeps trial points (rows of N)
  std::size_t sweeps = 0;
  // Untimed acceptance results (converged trajectory pairs only).
  bool trajectories_ok = true;
  int converged_pairs = 0;
  double worst_trajectory_dev = 0.0;
  long long audit_flagged = 0;  // analytic refreshes beyond kAuditTolerance
  double audit_max_dev = 0.0;
  long long analytic_refreshes = 0;
  long long fd_refreshes = 0;
};

Setup make_setup(int countries) {
  Setup s;
  irbc::IrbcCalibration cal;
  cal.countries = countries;
  s.model = std::make_unique<irbc::IrbcModel>(cal);
  const irbc::IrbcModel& model = *s.model;

  const int level = static_cast<int>(util::env_long("HDDM_JAC_LEVEL", 4));
  s.sweeps = static_cast<std::size_t>(util::env_long("HDDM_JAC_SWEEPS", 64));
  const auto solves = static_cast<int>(util::env_long("HDDM_JAC_SOLVES", 3));
  s.policy = build_policy(model, level, 100);

  const auto N = static_cast<std::size_t>(countries);
  util::Rng rng(7);
  s.x_unit = rng.uniform_point(countries);
  const std::vector<double> k = model.domain().to_physical(s.x_unit);
  // Trial points around the state — the iterates a Newton refresh sees.
  s.us.resize(s.sweeps * N);
  for (std::size_t sweep = 0; sweep < s.sweeps; ++sweep)
    for (std::size_t j = 0; j < N; ++j)
      s.us[sweep * N + j] = k[j] * (1.0 + 0.05 * rng.uniform(-1.0, 1.0));

  // --- untimed acceptance: trajectories + FD audit on real solves ----------
  const core::InitialPolicyEvaluator warm_eval(model);
  const int Ns = model.num_shocks();
  solver::NewtonOptions opts = model.newton_options();
  opts.fd_epsilon = kFdEpsilon;
  util::Rng prng(11);
  for (int p = 0; p < solves; ++p) {
    // Interior sample: random corners of the +-20% box are frequently
    // infeasible at higher N (negative consumption), and an unconverged
    // solve's endpoint is not comparable across Jacobian paths.
    std::vector<double> xp = prng.uniform_point(countries);
    for (double& v : xp) v = 0.25 + 0.5 * v;
    std::vector<double> warm(N);
    warm_eval.evaluate(0, xp, warm);
    const int z = p % Ns;

    irbc::IrbcModel::PointScratch scratch;
    (void)model.prepare(z, xp, scratch);
    const auto residual = [&](std::span<const double> u, std::span<double> out) {
      model.euler_residuals_batch(scratch, u, 1, *s.policy, out);
    };
    const auto batch = [&](std::span<const double> us, std::span<double> fs, std::size_t ncols) {
      model.euler_residuals_batch(scratch, us, ncols, *s.policy, fs);
    };
    // Steps with the analytic columns and audits each refresh against the
    // batched-FD reference at the same iterate.
    long long flagged = 0;
    double max_dev = 0.0;
    solver::FdBuffers fd_buffers;
    const auto audited = [&](std::span<const double> u, util::Matrix& jac) {
      model.euler_jacobian(scratch, u, *s.policy, jac);
      std::vector<double> fu(N);
      residual(u, fu);
      util::Matrix reference(N, N);
      solver::finite_difference_jacobian(batch, u, fu, kFdEpsilon, reference, fd_buffers);
      const double dev = solver::jacobian_deviation(jac, reference);
      max_dev = std::max(max_dev, dev);
      if (dev > kAuditTolerance) ++flagged;
    };
    solver::NewtonWorkspace fd_ws, an_ws;
    const solver::NewtonResult fd = solver::solve_newton(residual, warm, opts, fd_ws);
    const solver::NewtonResult an = solver::solve_newton(residual, warm, opts, an_ws, audited);

    if (fd.converged() != an.converged()) s.trajectories_ok = false;  // one-sided failure
    if (!fd.converged() || !an.converged()) continue;
    ++s.converged_pairs;
    for (std::size_t j = 0; j < N; ++j) {
      const double dev = std::fabs(an.solution[j] - fd.solution[j]);
      s.worst_trajectory_dev = std::max(s.worst_trajectory_dev, dev);
      if (dev > kTrajectoryTolerance) s.trajectories_ok = false;
    }
    s.analytic_refreshes += an.jacobian_factorizations;
    s.fd_refreshes += fd.jacobian_factorizations;
    s.audit_flagged += flagged;
    s.audit_max_dev = std::max(s.audit_max_dev, max_dev);
  }
  if (s.converged_pairs == 0) s.trajectories_ok = false;
  return s;
}

Setup& setup(int countries) {
  static std::map<int, std::unique_ptr<Setup>> cache;
  auto& slot = cache[countries];
  if (!slot) slot = std::make_unique<Setup>(make_setup(countries));
  return *slot;
}

/// The two refresh loops, over every trial point of a Setup once: what the
/// benchmarks time, and what the speed-up check samples itself.
class Refreshes {
 public:
  explicit Refreshes(Setup& s)
      : s_(s), n_(static_cast<std::size_t>(s.model->state_dim())), jac_(n_, n_), f0_(n_) {
    (void)s.model->prepare(0, s.x_unit, scratch_);
  }

  /// The refresh as solve_newton runs it: residual at u, then the batched
  /// N-column sweep (one gather carrying Ns x N requests).
  void fd() {
    const irbc::IrbcModel& model = *s_.model;
    const auto batch = [&](std::span<const double> us, std::span<double> fs, std::size_t ncols) {
      model.euler_residuals_batch(scratch_, us, ncols, *s_.policy, fs);
    };
    for (std::size_t sweep = 0; sweep < s_.sweeps; ++sweep) {
      const std::span<const double> u(s_.us.data() + sweep * n_, n_);
      model.euler_residuals_batch(scratch_, u, 1, *s_.policy, f0_);
      solver::finite_difference_jacobian(batch, u, f0_, kFdEpsilon, jac_, fd_buffers_);
    }
    benchlib::do_not_optimize(jac_.data());
  }

  /// One closed-form refresh per trial point: a single gather-with-gradient
  /// of Ns requests replaces the whole FD sweep.
  void analytic() {
    for (std::size_t sweep = 0; sweep < s_.sweeps; ++sweep) {
      const std::span<const double> u(s_.us.data() + sweep * n_, n_);
      s_.model->euler_jacobian(scratch_, u, *s_.policy, jac_);
    }
    benchlib::do_not_optimize(jac_.data());
  }

 private:
  Setup& s_;
  std::size_t n_;
  util::Matrix jac_;
  std::vector<double> f0_;
  irbc::IrbcModel::PointScratch scratch_;
  solver::FdBuffers fd_buffers_;
};

void bench_fd(benchlib::State& state, int countries) {
  Setup& s = setup(countries);
  Refreshes refreshes(s);
  state.set_items_per_rep(static_cast<double>(s.sweeps));
  state.run([&] { refreshes.fd(); });
}

void bench_analytic(benchlib::State& state, int countries) {
  Setup& s = setup(countries);
  Refreshes refreshes(s);
  state.set_items_per_rep(static_cast<double>(s.sweeps));
  state.run([&] { refreshes.analytic(); });
}

/// Interleaved samples per path of the N >= 4 speed-up check.
constexpr int kCheckSamples = 21;

struct CheckMedians {
  double fd_s = 0.0;  ///< median seconds per FD refresh
  double an_s = 0.0;  ///< median seconds per analytic refresh
};

/// The speed-up check's own timing: kCheckSamples FD and analytic passes
/// over the trial points, interleaved (alternating which path goes first)
/// after one warm-up pass each, so both paths see the same host state and
/// the decision rests on medians rather than on the harness's samples, which
/// a smoke run takes once.
CheckMedians check_medians(Setup& s) {
  Refreshes refreshes(s);
  refreshes.fd();
  refreshes.analytic();
  std::vector<double> fd, an;
  for (int i = 0; i < kCheckSamples; ++i) {
    for (int k = 0; k < 2; ++k) {
      const bool run_fd = (i + k) % 2 == 0;
      const util::Timer timer;
      run_fd ? refreshes.fd() : refreshes.analytic();
      (run_fd ? fd : an).push_back(timer.seconds());
    }
  }
  const auto sweeps = static_cast<double>(s.sweeps);
  return {util::percentile(fd, 0.5) / sweeps, util::percentile(an, 0.5) / sweeps};
}

int jacobian_report(const benchlib::RunReport& report) {
  bench::print_header("Jacobian refresh: batched-FD sweep vs analytic columns");
  std::printf("(one refresh = the Jacobian work of one Newton iteration at one grid point;\n"
              " FD pays N residual columns through one gather, analytic pays one\n"
              " gather-with-gradient — see DESIGN.md, \"Jacobian pipeline\")\n");

  util::Table table({"countries", "Ns", "path", "host s/refresh", "speedup"});
  std::vector<std::pair<int, CheckMedians>> checks;
  int rc = 0;
  for (const int countries : kCountryCounts) {
    std::string tag = "N";
    tag += std::to_string(countries);
    const auto* fd = report.find_measured("jacobian/fd/" + tag);
    const auto* an = report.find_measured("jacobian/analytic/" + tag);
    if (fd == nullptr || an == nullptr) continue;
    Setup& s = setup(countries);
    const int Ns = s.model->num_shocks();
    const double fd_s = fd->seconds_per_item();
    const double an_s = an->seconds_per_item();
    const double speedup = an_s > 0.0 ? fd_s / an_s : 0.0;
    table.add_row({std::to_string(countries), std::to_string(Ns), "batched-fd",
                   util::fmt_seconds(fd_s), "1.00"});
    table.add_row({std::to_string(countries), std::to_string(Ns), "analytic",
                   util::fmt_seconds(an_s), util::fmt_double(speedup, 2)});

    // Acceptance at N >= 4 — the paper-relevant scale: the analytic refresh
    // must actually be faster than the batched-FD sweep it replaces, on the
    // medians of the check's own interleaved samples.
    if (countries >= 4) checks.emplace_back(countries, check_medians(s));
  }
  bench::print_table(table);

  for (const auto& [countries, m] : checks) {
    std::printf("speed-up check N=%d: median of %d interleaved samples, batched-fd %.3e "
                "s/refresh, analytic %.3e s/refresh\n",
                countries, kCheckSamples, m.fd_s, m.an_s);
    if (!(m.an_s < m.fd_s)) {
      std::fprintf(stderr,
                   "FAIL: jacobian/analytic/N%d (median %.3e s/refresh) does not beat the "
                   "batched-FD sweep (median %.3e s/refresh)\n",
                   countries, m.an_s, m.fd_s);
      rc = 1;
    }
  }

  bench::print_header("Newton-trajectory + FD-audit acceptance (untimed, converged pairs)");
  util::Table solves({"countries", "pairs", "analytic refreshes", "fd refreshes",
                      "worst |dofs| dev", "audit max dev", "flagged refreshes", "within tol"});
  for (const int countries : kCountryCounts) {
    Setup& s = setup(countries);
    solves.add_row({std::to_string(countries), std::to_string(s.converged_pairs),
                    util::fmt_count(s.analytic_refreshes), util::fmt_count(s.fd_refreshes),
                    util::fmt_double(s.worst_trajectory_dev, 10),
                    util::fmt_double(s.audit_max_dev, 8), util::fmt_count(s.audit_flagged),
                    s.trajectories_ok && s.audit_flagged == 0 ? "yes" : "NO"});
    if (!s.trajectories_ok) {
      std::fprintf(stderr,
                   "FAIL: N=%d analytic-vs-FD Newton solutions diverge beyond %.0e "
                   "(worst %.3e over %d converged pairs), converge one-sidedly, or no "
                   "sampled point converged\n",
                   countries, kTrajectoryTolerance, s.worst_trajectory_dev, s.converged_pairs);
      rc = 1;
    }
    if (s.audit_flagged != 0) {
      std::fprintf(stderr,
                   "FAIL: N=%d FD audit flagged %lld refresh(es), max column-scaled deviation "
                   "%.3e — the analytic derivative disagrees with the FD reference\n",
                   countries, s.audit_flagged, s.audit_max_dev);
      rc = 1;
    }
  }
  bench::print_table(solves);
  if (rc == 0)
    std::printf("parity: analytic and FD Newton solutions agree within %.0e; "
                "the FD audit flagged no refreshes\n",
                kTrajectoryTolerance);
  return rc;
}

const bool registered = [] {
  for (const int countries : kCountryCounts) {
    std::string tag = "N";
    tag += std::to_string(countries);
    benchlib::register_benchmark("jacobian/fd/" + tag, [countries](benchlib::State& st) {
      bench_fd(st, countries);
    });
    benchlib::register_benchmark("jacobian/analytic/" + tag, [countries](benchlib::State& st) {
      bench_analytic(st, countries);
    });
  }
  benchlib::register_report(jacobian_report);
  return true;
}();

}  // namespace

int main(int argc, char** argv) { return hddm::benchlib::run_main(argc, argv, "bench_jacobian"); }
