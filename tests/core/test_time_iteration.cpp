#include "core/time_iteration.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "olg/olg_model.hpp"
#include "sparse_grid/regular.hpp"

namespace hddm::core {
namespace {

/// Synthetic contraction-map model with a known fixed point:
/// solve_point returns g(z, x) + rho * p_next(z, x), so the unique fixed
/// point of time iteration is p*(z, x) = g(z, x) / (1 - rho) and the policy
/// change contracts geometrically at rate rho — a clean probe of the driver
/// (Algorithm 1) without economic noise.
class ContractionModel : public DynamicModel {
 public:
  ContractionModel(int d, int ns, double rho)
      : d_(d), ns_(ns), rho_(rho),
        box_(std::vector<double>(static_cast<std::size_t>(d), 0.0),
             std::vector<double>(static_cast<std::size_t>(d), 1.0)) {}

  [[nodiscard]] int state_dim() const override { return d_; }
  [[nodiscard]] int num_shocks() const override { return ns_; }
  [[nodiscard]] int ndofs() const override { return 2; }
  [[nodiscard]] const sg::BoxDomain& domain() const override { return box_; }

  [[nodiscard]] std::vector<double> g(int z, std::span<const double> x) const {
    double s = 0.0;
    for (const double xi : x) s += xi;
    return {0.25 * s + 0.5 * z, 1.0 - 0.1 * s};
  }
  [[nodiscard]] std::vector<double> fixed_point(int z, std::span<const double> x) const {
    auto v = g(z, x);
    for (double& vi : v) vi /= (1.0 - rho_);
    return v;
  }

  [[nodiscard]] std::vector<double> initial_policy(int, std::span<const double>) const override {
    return {0.0, 0.0};
  }

  [[nodiscard]] PointSolveResult solve_point(int z, std::span<const double> x,
                                             const PolicyEvaluator& p_next,
                                             std::span<const double>) const override {
    PointSolveResult res;
    res.dofs.resize(2);
    std::vector<double> prev(2);
    p_next.evaluate(z, x, prev);
    const auto base = g(z, x);
    for (int k = 0; k < 2; ++k) res.dofs[static_cast<std::size_t>(k)] = base[static_cast<std::size_t>(k)] + rho_ * prev[static_cast<std::size_t>(k)];
    res.converged = true;
    res.interpolations = 1;
    return res;
  }

  [[nodiscard]] double equilibrium_residual(int z, std::span<const double> x,
                                            const PolicyEvaluator& p) const override {
    std::vector<double> v(2);
    p.evaluate(z, x, v);
    const auto fp = fixed_point(z, x);
    return std::max(std::fabs(v[0] - fp[0]), std::fabs(v[1] - fp[1]));
  }

 private:
  int d_;
  int ns_;
  double rho_;
  sg::BoxDomain box_;
};

TEST(TimeIteration, ConvergesToKnownFixedPoint) {
  const ContractionModel model(2, 3, 0.5);
  TimeIterationOptions opts;
  opts.base_level = 3;
  opts.max_iterations = 60;
  opts.tolerance = 1e-10;
  const TimeIterationResult result = solve_time_iteration(model, opts);
  ASSERT_TRUE(result.converged);

  // The converged ASG policy reproduces the analytic fixed point. g is a sum
  // of linear terms, which the level-3 grid does not capture exactly off the
  // grid axes — check *at grid nodes* via the residual with generous off-grid
  // sampling tolerance.
  std::vector<double> v(2);
  for (int z = 0; z < 3; ++z) {
    for (const std::vector<double>& x : {std::vector<double>{0.5, 0.5}, {0.25, 0.5}, {0.5, 0.75}}) {
      result.policy->evaluate(z, x, v);
      const auto fp = model.fixed_point(z, x);
      EXPECT_NEAR(v[0], fp[0], 1e-6) << "z=" << z;
      EXPECT_NEAR(v[1], fp[1], 1e-6);
    }
  }
}

TEST(TimeIteration, GeometricContractionRate) {
  // The contraction rate is a property of the plain Algorithm 1; Anderson
  // mixing solves this linear map in three steps (see below).
  const ContractionModel model(2, 2, 0.5);
  TimeIterationOptions opts;
  opts.base_level = 2;
  opts.max_iterations = 12;
  opts.tolerance = 0.0;  // run all iterations
  opts.acceleration_depth = 0;
  const TimeIterationResult result = solve_time_iteration(model, opts);
  ASSERT_EQ(result.history.size(), 12u);
  // Linear convergence at rate rho = 0.5 (after the first iteration).
  for (std::size_t it = 3; it < result.history.size(); ++it) {
    const double ratio =
        result.history[it].policy_change_linf / result.history[it - 1].policy_change_linf;
    EXPECT_NEAR(ratio, 0.5, 0.1) << "iteration " << it;
  }
}

TEST(TimeIteration, AcceleratedLinearMapReachesItsFixedPointInThreeSteps) {
  // At the grid points the map is x -> g + rho x, so its residuals g - x of
  // the first two steps are collinear: the second step's mix over their one
  // difference column is the fixed point, and the third step measures a
  // change at rounding level.
  const ContractionModel model(2, 3, 0.9);
  TimeIterationOptions opts;
  opts.base_level = 3;
  opts.max_iterations = 60;
  opts.tolerance = 1e-10;
  ASSERT_GT(opts.acceleration_depth, 0);
  const TimeIterationResult result = solve_time_iteration(model, opts);
  ASSERT_TRUE(result.converged);
  EXPECT_LE(result.iterations, 3);
  EXPECT_EQ(result.history[0].acceleration_columns, 0);
  EXPECT_EQ(result.history[1].acceleration_columns, 1);

  std::vector<double> v(2);
  const std::vector<double> node{0.25, 0.5};
  for (int z = 0; z < 3; ++z) {
    result.policy->evaluate(z, node, v);
    const auto fp = model.fixed_point(z, node);
    EXPECT_NEAR(v[0], fp[0], 1e-9) << "z=" << z;
    EXPECT_NEAR(v[1], fp[1], 1e-9) << "z=" << z;
  }
}

TEST(TimeIteration, RepeatedStepOfOnePolicyGivesThePlainUpdate) {
  // Stepping the same p_next again (the Fig. 7 single-step benchmark's
  // pattern) repeats the residuals bit for bit, so the difference columns
  // are zero: each repeat returns the plain update, finite, without
  // restarting the history.
  const ContractionModel model(2, 2, 0.5);
  TimeIterationOptions opts;
  opts.base_level = 3;
  TimeIterationOptions plain_opts = opts;
  plain_opts.acceleration_depth = 0;
  TimeIterationDriver accelerated(model, opts), plain(model, plain_opts);
  const InitialPolicyEvaluator initial(model);
  IterationStats stats;
  const std::shared_ptr<AsgPolicy> p = plain.step(initial, stats);
  const std::shared_ptr<AsgPolicy> expected = plain.step(*p, stats);
  for (int rep = 0; rep < 3; ++rep) {
    const std::shared_ptr<AsgPolicy> next = accelerated.step(*p, stats);
    EXPECT_EQ(stats.acceleration_columns, 0) << "rep " << rep;
    EXPECT_EQ(stats.acceleration_restarts, 0) << "rep " << rep;
    for (int z = 0; z < 2; ++z) {
      const auto& got = next->grid(z).dense().surplus;
      for (const double v : got) EXPECT_TRUE(std::isfinite(v));
      EXPECT_EQ(got, expected->grid(z).dense().surplus) << "rep " << rep << " z=" << z;
    }
  }
}

/// ContractionModel with a kink whose location moves once p_next carries a
/// second dof of 1: the first step refines around x0 = 0.37, every later
/// one around x0 = 0.61, so the point set changes once, at step 1.
class MovingKinkModel final : public ContractionModel {
 public:
  MovingKinkModel() : ContractionModel(2, 1, 0.0) {}
  [[nodiscard]] PointSolveResult solve_point(int z, std::span<const double> x,
                                             const PolicyEvaluator& p_next,
                                             std::span<const double>) const override {
    std::vector<double> center(2);
    p_next.evaluate(z, std::vector<double>{0.5, 0.5}, center);
    const double kink = center[1] > 0.5 ? 0.61 : 0.37;
    PointSolveResult res;
    res.dofs = {std::fabs(x[0] - kink), 1.0};
    res.converged = true;
    return res;
  }
};

TEST(TimeIteration, PointSetChangeRestartsTheAndersonHistory) {
  const MovingKinkModel model;
  TimeIterationOptions opts;
  opts.base_level = 3;
  opts.refine_epsilon = 1e-3;
  opts.max_level = 6;
  opts.max_iterations = 3;
  opts.tolerance = 0.0;
  const TimeIterationResult result = solve_time_iteration(model, opts);
  ASSERT_EQ(result.history.size(), 3u);
  EXPECT_EQ(result.history[0].acceleration_restarts, 0);  // nothing to clear yet
  EXPECT_EQ(result.history[1].acceleration_restarts, 1);  // the kink moved
  EXPECT_EQ(result.history[1].acceleration_columns, 0);
  EXPECT_EQ(result.history[2].acceleration_restarts, 0);  // same points as step 1
  EXPECT_EQ(result.history[2].acceleration_columns, 1);
}

TEST(TimeIteration, HistoryTracksPointCounts) {
  const ContractionModel model(3, 2, 0.3);
  TimeIterationOptions opts;
  opts.base_level = 3;
  opts.max_iterations = 3;
  opts.tolerance = 0.0;
  const TimeIterationResult result = solve_time_iteration(model, opts);
  const auto n3 = static_cast<std::uint32_t>(sg::count_regular_points(3, 3));  // 25
  for (const auto& st : result.history) {
    EXPECT_EQ(st.total_points, 2u * n3);
    EXPECT_EQ(st.points_per_shock.size(), 2u);
    EXPECT_EQ(st.solver_failures, 0u);
    EXPECT_GT(st.interpolations, 0u);
  }
}

/// ContractionModel whose point solves report a Newton failure by shock:
/// shock 0 fails its line search, shock 1 hits a singular Jacobian, shock 2
/// converges — a probe of how the drivers classify failed solves.
class FailingModel final : public ContractionModel {
 public:
  FailingModel() : ContractionModel(2, 3, 0.5) {}
  [[nodiscard]] PointSolveResult solve_point(int z, std::span<const double> x,
                                             const PolicyEvaluator& p_next,
                                             std::span<const double> warm) const override {
    PointSolveResult res = ContractionModel::solve_point(z, x, p_next, warm);
    res.converged = z == 2;
    res.status = z == 0   ? solver::NewtonStatus::LineSearchFailed
                 : z == 1 ? solver::NewtonStatus::SingularJacobian
                          : solver::NewtonStatus::Converged;
    return res;
  }
};

TEST(TimeIteration, FailuresAreCountedByNewtonStatus) {
  const FailingModel model;
  TimeIterationOptions opts;
  opts.base_level = 3;
  opts.max_iterations = 2;
  opts.tolerance = 0.0;
  const TimeIterationResult result = solve_time_iteration(model, opts);
  const auto per_shock = static_cast<std::uint32_t>(sg::count_regular_points(2, 3));
  const auto count = [](const IterationStats& st, solver::NewtonStatus status) {
    return st.failures_by_status[static_cast<std::size_t>(status)];
  };
  ASSERT_EQ(result.history.size(), 2u);
  for (const IterationStats& st : result.history) {
    EXPECT_EQ(count(st, solver::NewtonStatus::LineSearchFailed), per_shock);
    EXPECT_EQ(count(st, solver::NewtonStatus::SingularJacobian), per_shock);
    EXPECT_EQ(count(st, solver::NewtonStatus::MaxIterations), 0u);
    EXPECT_EQ(count(st, solver::NewtonStatus::Converged), 0u);
    EXPECT_EQ(st.solver_failures, 2 * per_shock);  // the sum of the split
  }
}

TEST(TimeIteration, ObserverSeesEveryIteration) {
  const ContractionModel model(2, 2, 0.4);
  TimeIterationOptions opts;
  opts.base_level = 2;
  opts.max_iterations = 5;
  opts.tolerance = 0.0;
  TimeIterationDriver driver(model, opts);
  int calls = 0;
  driver.on_iteration = [&calls](const IterationStats&) { ++calls; };
  (void)driver.run();
  EXPECT_EQ(calls, 5);
}

TEST(TimeIteration, AdaptiveRefinementAddsPoints) {
  // A model whose policy has a kink triggers adaptive refinement.
  class KinkModel final : public ContractionModel {
   public:
    KinkModel() : ContractionModel(2, 1, 0.0) {}
    [[nodiscard]] PointSolveResult solve_point(int, std::span<const double> x,
                                               const PolicyEvaluator&,
                                               std::span<const double>) const override {
      PointSolveResult res;
      res.dofs = {std::fabs(x[0] - 0.37), 0.0};
      res.converged = true;
      return res;
    }
  } model;

  TimeIterationOptions regular;
  regular.base_level = 3;
  regular.max_iterations = 1;
  regular.tolerance = 0.0;
  const auto without = solve_time_iteration(model, regular);

  TimeIterationOptions adaptive = regular;
  adaptive.refine_epsilon = 1e-3;
  adaptive.max_level = 6;
  const auto with = solve_time_iteration(model, adaptive);

  EXPECT_GT(with.history[0].total_points, without.history[0].total_points);
}

TEST(TimeIteration, MultithreadedMatchesSequential) {
  const ContractionModel model(2, 2, 0.5);
  TimeIterationOptions seq;
  seq.base_level = 3;
  seq.max_iterations = 4;
  seq.tolerance = 0.0;
  seq.threads = 1;
  TimeIterationOptions par = seq;
  par.threads = 4;

  const auto a = solve_time_iteration(model, seq);
  const auto b = solve_time_iteration(model, par);
  // Deterministic model + deterministic grid: identical trajectories.
  for (std::size_t it = 0; it < 4; ++it)
    EXPECT_NEAR(a.history[it].policy_change_linf, b.history[it].policy_change_linf, 1e-13);

  std::vector<double> va(2), vb(2);
  const std::vector<double> x{0.3, 0.7};
  a.policy->evaluate(1, x, va);
  b.policy->evaluate(1, x, vb);
  EXPECT_NEAR(va[0], vb[0], 1e-13);
}

TEST(TimeIteration, DeviceOffloadPipelineMatchesCpuAndReportsCounters) {
  const ContractionModel model(2, 2, 0.5);
  TimeIterationOptions cpu;
  cpu.base_level = 3;
  cpu.max_iterations = 4;
  cpu.tolerance = 0.0;
  TimeIterationOptions dev = cpu;
  dev.use_device = true;
  dev.offload.max_batch = 8;
  dev.threads = 2;

  const auto a = solve_time_iteration(model, cpu);
  const auto b = solve_time_iteration(model, dev);

  // The device kernel is numerically equivalent (not bitwise — different
  // summation order than the CPU kernel), so trajectories agree tightly.
  for (std::size_t it = 0; it < 4; ++it)
    EXPECT_NEAR(a.history[it].policy_change_linf, b.history[it].policy_change_linf, 1e-10);

  // Iteration 0 interpolates through the analytic initial policy (no
  // device); from iteration 1 on, p_next is an AsgPolicy with an attached
  // dispatcher and the batched warm-start path must show up in the offload
  // counters with batches of more than one point.
  for (std::size_t it = 1; it < b.history.size(); ++it) {
    const auto& st = b.history[it];
    EXPECT_GT(st.device_offloaded + st.device_rejected, 0u) << "iteration " << it;
    if (st.device_batches > 0) {
      EXPECT_GE(st.device_mean_batch, 1.0);
    }
  }
  std::uint64_t total_offloaded = 0;
  double best_mean_batch = 0.0;
  for (const auto& st : b.history) {
    total_offloaded += st.device_offloaded;
    best_mean_batch = std::max(best_mean_batch, st.device_mean_batch);
  }
  EXPECT_GT(total_offloaded, 0u);
  EXPECT_GT(best_mean_batch, 1.0) << "warm starts never batched";

  // CPU runs report no device activity.
  for (const auto& st : a.history) {
    EXPECT_EQ(st.device_offloaded, 0u);
    EXPECT_EQ(st.device_batches, 0u);
  }
}

TEST(TimeIteration, MultiStepRunReportsPerIterationDeltasNotCumulativeTotals) {
  // Regression for the offload-counter hazard: repeated step() calls against
  // the SAME p_next (whose dispatcher counters only ever grow) must report
  // each step's own work. With cumulative totals the second and third step
  // would re-report the first one's launches; with deltas the deterministic
  // workload yields identical counters every time. The stats object is
  // deliberately reused without resetting — step() owns the reset.
  const olg::OlgModel model(olg::build_economy(olg::reduced_calibration(5, 2, 1)));
  TimeIterationOptions opts;
  opts.base_level = 2;
  opts.max_iterations = 1;
  opts.use_device = true;
  opts.offload.max_batch = 8;
  TimeIterationDriver driver(model, opts);

  const InitialPolicyEvaluator initial(model);
  IterationStats warm_stats;
  const auto policy = driver.step(initial, warm_stats);
  ASSERT_GT(policy->total_points(), 0u);

  IterationStats stats;  // reused across steps on purpose
  std::vector<IterationStats> reported;
  for (int rep = 0; rep < 3; ++rep) {
    (void)driver.step(*policy, stats);
    reported.push_back(stats);
  }
  for (int rep = 1; rep < 3; ++rep) {
    const auto& first = reported[0];
    const auto& later = reported[static_cast<std::size_t>(rep)];
    EXPECT_EQ(later.interpolations, first.interpolations) << "rep " << rep;
    EXPECT_EQ(later.solver_gathers, first.solver_gathers) << "rep " << rep;
    EXPECT_EQ(later.policy_gathers, first.policy_gathers) << "rep " << rep;
    EXPECT_EQ(later.gathered_requests, first.gathered_requests) << "rep " << rep;
    // Offloaded + rejected is the deterministic total the step pushed at the
    // device (the split can vary with queue timing).
    EXPECT_EQ(later.device_offloaded + later.device_rejected,
              first.device_offloaded + first.device_rejected)
        << "rep " << rep;
    EXPECT_EQ(later.solver_failures, first.solver_failures) << "rep " << rep;
  }
  // The per-solve gather path is live: far fewer gathers than point
  // interpolations, and p_next's gather counter delta matches per step.
  EXPECT_GT(reported[0].solver_gathers, 0u);
  EXPECT_GT(reported[0].policy_gathers, 0u);
  EXPECT_GE(reported[0].gathered_requests, reported[0].policy_gathers);
  EXPECT_LT(reported[0].solver_gathers, reported[0].interpolations);
}

TEST(TimeIteration, RejectsBadOptions) {
  const ContractionModel model(2, 2, 0.5);
  TimeIterationOptions opts;
  opts.base_level = 0;
  EXPECT_THROW(TimeIterationDriver(model, opts), std::invalid_argument);
  opts.base_level = 4;
  opts.max_level = 2;
  EXPECT_THROW(TimeIterationDriver(model, opts), std::invalid_argument);
}

// --- End-to-end OLG integration -------------------------------------------

TEST(TimeIterationOlg, SmallOlgConverges) {
  const olg::OlgModel model(olg::build_economy(olg::reduced_calibration(5, 2, 1)));
  TimeIterationOptions opts;
  opts.base_level = 2;
  opts.max_iterations = 60;
  opts.tolerance = 5e-4;
  opts.threads = 2;
  const TimeIterationResult result = solve_time_iteration(model, opts);
  EXPECT_TRUE(result.converged) << "final change " << result.final_change;

  // The converged policy at the steady-state point should be close to the
  // steady-state savings profile.
  const auto& ss = model.steady_state();
  std::vector<double> x(static_cast<std::size_t>(model.state_dim()));
  x[0] = ss.capital;
  for (int a = 2; a <= model.state_dim(); ++a) x[a - 1] = ss.assets[a - 1];
  const auto x_unit = model.domain().to_unit(x);

  std::vector<double> dofs(static_cast<std::size_t>(model.ndofs()));
  result.policy->evaluate(0, x_unit, dofs);
  for (int a = 1; a < model.state_dim(); ++a) {
    EXPECT_NEAR(dofs[a - 1], ss.savings[a - 1], 0.5 * std::max(0.25, std::fabs(ss.savings[a - 1])))
        << "age " << a;
  }
}

TEST(TimeIterationOlg, EulerResidualShrinksOverIterations) {
  const olg::OlgModel model(olg::build_economy(olg::reduced_calibration(5, 2, 1)));
  TimeIterationOptions opts;
  opts.base_level = 2;
  opts.max_iterations = 25;
  opts.tolerance = 0.0;
  opts.residual_samples = 8;
  opts.seed = 7;
  const TimeIterationResult result = solve_time_iteration(model, opts);
  ASSERT_GE(result.history.size(), 10u);
  const double early = result.history[1].euler_residual;
  const double late = result.history.back().euler_residual;
  EXPECT_LT(late, early);
}

}  // namespace
}  // namespace hddm::core
