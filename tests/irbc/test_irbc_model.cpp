#include "irbc/irbc_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/time_iteration.hpp"
#include "support/scalar_policy_view.hpp"
#include "util/rng.hpp"

namespace hddm::irbc {
namespace {

TEST(IrbcModel, DimensionsFollowCountries) {
  IrbcCalibration cal;
  cal.countries = 4;
  const IrbcModel m(cal);
  EXPECT_EQ(m.state_dim(), 4);
  EXPECT_EQ(m.ndofs(), 4);
  EXPECT_EQ(m.num_shocks(), 16);  // 2^4 sign patterns
  EXPECT_EQ(m.domain().dim(), 4);
}

TEST(IrbcModel, ShockBitsCapped) {
  IrbcCalibration cal;
  cal.countries = 8;
  cal.max_shock_bits = 3;
  const IrbcModel m(cal);
  EXPECT_EQ(m.num_shocks(), 8);
  // Countries beyond the bit budget share the last bit.
  EXPECT_DOUBLE_EQ(m.productivity(5, 2), m.productivity(5, 7));
}

TEST(IrbcModel, ProductivityPatternsCoverBoomsAndBusts) {
  IrbcCalibration cal;
  cal.countries = 2;
  const IrbcModel m(cal);
  // State 0: all busts; state 3 (binary 11): all booms.
  EXPECT_LT(m.productivity(0, 0), 1.0);
  EXPECT_LT(m.productivity(0, 1), 1.0);
  EXPECT_GT(m.productivity(3, 0), 1.0);
  EXPECT_GT(m.productivity(3, 1), 1.0);
  // State 1: country 0 booms, country 1 busts.
  EXPECT_GT(m.productivity(1, 0), 1.0);
  EXPECT_LT(m.productivity(1, 1), 1.0);
}

TEST(IrbcModel, TfpNormalizationPutsSteadyStateAtOne) {
  IrbcCalibration cal;
  const IrbcModel m(cal);
  // At k = 1, a = 1: theta A k^(theta-1) + 1 - delta == 1/beta.
  const double gross = cal.theta * m.tfp_scale() + 1.0 - cal.delta;
  EXPECT_NEAR(gross, 1.0 / cal.beta, 1e-12);
}

TEST(IrbcModel, ConsumptionAtSteadyStateIsProductionMinusDepreciation) {
  IrbcCalibration cal;
  cal.countries = 3;
  cal.sigma = 0.0;  // no productivity dispersion
  const IrbcModel m(cal);
  const std::vector<double> k(3, 1.0);
  const double c = m.consumption(0, k, k);  // k' = k: no adjustment costs
  EXPECT_NEAR(c, m.tfp_scale() - cal.delta, 1e-12);
}

TEST(IrbcModel, SteadyStateIsEulerFixedPointWithoutRisk) {
  // sigma = 0: the identity policy at k = 1 must solve the Euler equations.
  IrbcCalibration cal;
  cal.countries = 3;
  cal.sigma = 0.0;
  const IrbcModel m(cal);

  const core::InitialPolicyEvaluator pnext(m);  // identity policy
  IrbcModel::PointScratch point;
  (void)m.prepare(0, std::vector<double>(3, 0.5), point);  // k = 1 (box center)
  const std::vector<double> k = point.k;
  ASSERT_EQ(k, std::vector<double>(3, 1.0));
  std::vector<double> res(3);
  m.euler_residuals(point, k, pnext, res);
  for (const double r : res) EXPECT_NEAR(r, 0.0, 1e-10);
}

TEST(IrbcModel, SolvePointRecoversSteadyState) {
  IrbcCalibration cal;
  cal.countries = 3;
  cal.sigma = 0.0;
  const IrbcModel m(cal);
  const core::InitialPolicyEvaluator pnext(m);

  const std::vector<double> x_unit(3, 0.5);  // k = 1 (box center)
  std::vector<double> warm(3);
  pnext.evaluate(0, x_unit, warm);
  const auto res = m.solve_point(0, x_unit, pnext, warm);
  ASSERT_TRUE(res.converged);
  for (const double kj : res.dofs) EXPECT_NEAR(kj, 1.0, 1e-7);
}

TEST(IrbcModel, RichCountriesRunDownCapital) {
  // Away from the steady state the planner smooths: k' moves toward 1.
  IrbcCalibration cal;
  cal.countries = 2;
  cal.sigma = 0.0;
  const IrbcModel m(cal);
  const core::InitialPolicyEvaluator pnext(m);

  std::vector<double> x_unit{1.0, 0.0};  // country 0 rich (k=1.2), 1 poor (0.8)
  std::vector<double> warm(2);
  pnext.evaluate(0, x_unit, warm);
  const auto res = m.solve_point(0, x_unit, pnext, warm);
  ASSERT_TRUE(res.converged);
  EXPECT_LT(res.dofs[0], 1.2);  // rich disinvests toward 1
  EXPECT_GT(res.dofs[1], 0.8);  // poor invests toward 1
}

TEST(IrbcModel, BoomRaisesInvestment) {
  IrbcCalibration cal;
  cal.countries = 2;
  cal.sigma = 0.05;
  const IrbcModel m(cal);
  const core::InitialPolicyEvaluator pnext(m);
  const std::vector<double> x_unit(2, 0.5);
  std::vector<double> warm(2);
  pnext.evaluate(0, x_unit, warm);

  const auto bust = m.solve_point(0, x_unit, pnext, warm);   // state 0: both bust
  const auto boom = m.solve_point(3, x_unit, pnext, warm);   // state 3: both boom
  ASSERT_TRUE(bust.converged);
  ASSERT_TRUE(boom.converged);
  EXPECT_GT(boom.dofs[0], bust.dofs[0]);
  EXPECT_GT(boom.dofs[1], bust.dofs[1]);
}

TEST(IrbcModel, TimeIterationConverges) {
  IrbcCalibration cal;
  cal.countries = 3;
  cal.max_shock_bits = 2;  // 4 shocks
  const IrbcModel m(cal);

  core::TimeIterationOptions opts;
  opts.base_level = 2;
  opts.max_iterations = 120;
  opts.tolerance = 1e-5;
  const auto result = core::solve_time_iteration(m, opts);
  EXPECT_TRUE(result.converged) << "final change " << result.final_change;
  EXPECT_EQ(result.policy->num_shocks(), 4);

  // The converged policy is near-identity at the box center (symmetric risk
  // shifts it only slightly).
  std::vector<double> k_next(3);
  result.policy->evaluate(0, std::vector<double>(3, 0.5), k_next);
  for (const double kj : k_next) EXPECT_NEAR(kj, 1.0, 0.05);
}

TEST(IrbcModel, SymmetricStatesGiveSymmetricPolicies) {
  IrbcCalibration cal;
  cal.countries = 2;
  cal.max_shock_bits = 2;
  const IrbcModel m(cal);
  core::TimeIterationOptions opts;
  opts.base_level = 3;
  opts.max_iterations = 80;
  opts.tolerance = 1e-5;
  const auto result = core::solve_time_iteration(m, opts);
  ASSERT_TRUE(result.converged);

  // Swapping the countries AND the shock pattern must swap the policy:
  // p(z=01, (ka, kb)) reversed == p(z=10, (kb, ka)).
  std::vector<double> a(2), b(2);
  const std::vector<double> x{0.3, 0.7}, x_swapped{0.7, 0.3};
  result.policy->evaluate(1, x, a);          // binary 01
  result.policy->evaluate(2, x_swapped, b);  // binary 10
  EXPECT_NEAR(a[0], b[1], 1e-6);
  EXPECT_NEAR(a[1], b[0], 1e-6);
}

TEST(IrbcModel, CornerSolveOnTheDomainFaceConverges) {
  // Regression for the domain-face failures: in the symmetric configuration
  // above, the mixed states z = 1, 2 at the unit corner (0, 0) start from
  // k' = (0.8, 0.8), exactly on the grid domain's lower face, where the
  // clamped policy puts a kink in the Euler residual. The Jacobian there is
  // one side's derivative, and the Newton direction it gives does not
  // descend on the side it points into: without solve_newton's kink retry,
  // every Armijo step fails and the solve stops with line-search-failed at
  // iteration 0.
  IrbcCalibration cal;
  cal.countries = 2;
  cal.max_shock_bits = 2;
  const IrbcModel m(cal);
  const core::InitialPolicyEvaluator pnext(m);  // the first step's p_next
  const std::vector<double> corner{0.0, 0.0};
  std::vector<double> warm(2);
  std::vector<std::vector<double>> k_next;
  for (const int z : {1, 2}) {
    pnext.evaluate(z, corner, warm);
    ASSERT_EQ(warm, (std::vector<double>{0.8, 0.8}));
    const core::PointSolveResult res = m.solve_point(z, corner, pnext, warm);
    EXPECT_TRUE(res.converged) << "z=" << z << ": " << solver::to_string(res.status);
    EXPECT_LT(res.residual_norm, 1e-10) << "z=" << z;
    k_next.push_back(res.dofs);
  }
  // The two states mirror each other.
  EXPECT_NEAR(k_next[0][0], k_next[1][1], 1e-12);
  EXPECT_NEAR(k_next[0][1], k_next[1][0], 1e-12);
}

TEST(IrbcModel, EquilibriumResidualSmallAfterConvergence) {
  IrbcCalibration cal;
  cal.countries = 2;
  cal.max_shock_bits = 1;
  cal.beta = 0.9;  // time iteration contracts at ~beta per step; 0.99 would
                   // need >1000 iterations to reach 1e-6
  const IrbcModel m(cal);
  core::TimeIterationOptions opts;
  opts.base_level = 3;
  opts.max_iterations = 150;
  opts.tolerance = 1e-6;
  const auto result = core::solve_time_iteration(m, opts);
  ASSERT_TRUE(result.converged);
  // Interior residuals at off-grid points stay small (smooth model, no
  // kinks): a much tighter check than the OLG path errors.
  for (const std::vector<double>& x : {std::vector<double>{0.4, 0.6}, {0.52, 0.48}, {0.3, 0.3}}) {
    EXPECT_LT(m.equilibrium_residual(0, x, *result.policy), 5e-3);
  }
}

TEST(IrbcModel, EulerResidualsFiniteForNonPositiveTrialIterates) {
  // The gross-return term (k'^(theta-1), g = k''/k') used to blow up to
  // NaN/Inf the moment a trial iterate touched zero; the guarded residual
  // must stay finite for zero and negative components.
  IrbcCalibration cal;
  cal.countries = 3;
  const IrbcModel m(cal);
  const core::InitialPolicyEvaluator pnext(m);
  IrbcModel::PointScratch point;
  (void)m.prepare(0, std::vector<double>(3, 0.5), point);  // k = 1

  for (const std::vector<double>& k_next :
       {std::vector<double>{0.0, 1.0, 1.0}, {1.0, -0.5, 1.0}, {0.0, 0.0, 0.0}, {-1.0, -1.0, -1.0}}) {
    std::vector<double> res(3);
    m.euler_residuals(point, k_next, pnext, res);
    for (const double r : res) EXPECT_TRUE(std::isfinite(r)) << "k_next[0]=" << k_next[0];
  }
}

TEST(IrbcModel, NewtonTrialStepThroughZeroStaysFiniteAndDiagnosable) {
  // Regression for the line-search hazard: an unbounded Newton run started
  // at k' = 2 (today's resources cannot fund it, so the consumption floor
  // flattens the residual and the first Newton direction is enormous)
  // drives its λ = 1 Armijo trial deep through zero. Unguarded, that trial
  // evaluates pow(negative, theta-1) = NaN and poisons the merit; the
  // guarded residual stays finite everywhere, so the solver backtracks on
  // real numbers and reports an honest terminal status.
  IrbcCalibration cal;
  cal.countries = 2;
  cal.sigma = 0.0;
  const IrbcModel m(cal);
  const core::InitialPolicyEvaluator pnext(m);
  IrbcModel::PointScratch point;
  (void)m.prepare(0, std::vector<double>(2, 0.5), point);  // k = 1

  bool all_finite = true;
  double min_trial = 1e300;
  const auto residual = [&](std::span<const double> u, std::span<double> out) {
    for (const double ui : u) min_trial = std::min(min_trial, ui);
    m.euler_residuals(point, u, pnext, out);
    for (const double r : out)
      if (!std::isfinite(r)) all_finite = false;
  };
  solver::NewtonOptions opts;
  opts.max_iterations = 50;
  opts.tolerance = 1e-9;  // deliberately no box: nothing clips the trials
  solver::NewtonWorkspace ws;
  const solver::NewtonResult r = solve_newton(residual, std::vector<double>{2.0, 2.0}, opts, ws);
  EXPECT_LT(min_trial, 0.0) << "the scenario no longer drives a trial step through zero";
  EXPECT_TRUE(all_finite) << "a trial step through zero produced a non-finite residual";
  // Infeasible basin, honest diagnosis — not a NaN-corrupted solution.
  EXPECT_FALSE(r.converged());
  EXPECT_TRUE(r.status == solver::NewtonStatus::LineSearchFailed ||
              r.status == solver::NewtonStatus::MaxIterations ||
              r.status == solver::NewtonStatus::SingularJacobian)
      << "status " << to_string(r.status);
  for (const double kj : r.solution) EXPECT_TRUE(std::isfinite(kj));

  // From a feasible warm start the same residual (same guard in the hot
  // path) converges to the steady state through the production box.
  solver::NewtonOptions boxed = opts;
  boxed.max_iterations = 120;
  const double lower[] = {0.2, 0.2}, upper[] = {3.0, 3.0};
  boxed.lower = lower;
  boxed.upper = upper;
  solver::NewtonWorkspace boxed_ws;
  const solver::NewtonResult rb =
      solve_newton(residual, std::vector<double>{0.9, 1.1}, boxed, boxed_ws);
  ASSERT_TRUE(rb.converged()) << "status " << to_string(rb.status);
  for (const double kj : rb.solution) EXPECT_NEAR(kj, 1.0, 1e-6);
}

TEST(IrbcModel, SolvePointGatheredMatchesScalarBitIdentical) {
  // End-to-end gather contract: the same solve against the same AsgPolicy,
  // once through the gather-aware path and once behind a scalar-only adapter
  // (PolicyEvaluator's default gather = loop of evaluate), must walk the
  // identical Newton trajectory — interpolation batching may not perturb a
  // single bit of the solution.
  IrbcCalibration cal;
  cal.countries = 2;
  cal.max_shock_bits = 2;
  const IrbcModel m(cal);

  core::TimeIterationOptions topts;
  topts.base_level = 2;
  topts.max_iterations = 3;
  topts.tolerance = 0.0;
  const auto ti = core::solve_time_iteration(m, topts);
  const core::AsgPolicy& policy = *ti.policy;

  const core::ScalarPolicyView scalar_view(policy);

  const core::InitialPolicyEvaluator warm_eval(m);
  for (const std::vector<double>& x_unit :
       {std::vector<double>{0.5, 0.5}, {0.2, 0.8}, {0.9, 0.1}}) {
    std::vector<double> warm(2);
    warm_eval.evaluate(0, x_unit, warm);
    for (int z = 0; z < m.num_shocks(); ++z) {
      const auto gathered = m.solve_point(z, x_unit, policy, warm);
      const auto scalar = m.solve_point(z, x_unit, scalar_view, warm);
      EXPECT_EQ(gathered.converged, scalar.converged);
      EXPECT_EQ(gathered.solver_iterations, scalar.solver_iterations);
      // Same point-interpolation demand; the gathered path carries it in
      // collapsed calls (one per residual/Jacobian evaluation, not Ns).
      EXPECT_EQ(gathered.interpolations, scalar.interpolations);
      EXPECT_GT(gathered.gathers, 0);
      EXPECT_LT(gathered.gathers, gathered.interpolations / m.num_shocks() + 1);
      ASSERT_EQ(gathered.dofs.size(), scalar.dofs.size());
      for (std::size_t j = 0; j < gathered.dofs.size(); ++j)
        EXPECT_EQ(gathered.dofs[j], scalar.dofs[j]) << "z=" << z << " dof " << j;
    }
  }
}

namespace {

/// A realistic p_next for the Jacobian tests: two TI iterations of the given
/// calibration (an AsgPolicy with analytic gradients, like production runs).
std::shared_ptr<core::AsgPolicy> two_step_policy(const IrbcModel& m) {
  core::TimeIterationOptions topts;
  topts.base_level = 2;
  topts.max_iterations = 2;
  topts.tolerance = 0.0;
  return core::solve_time_iteration(m, topts).policy;
}

}  // namespace

TEST(IrbcModel, AnalyticJacobianMatchesFdColumns) {
  // Column parity at generic (non-kink) trial points: the closed-form
  // Jacobian must agree with the FD sweep within the FD truncation
  // error — far inside the 1e-3 audit threshold of DESIGN.md.
  IrbcCalibration cal;
  cal.countries = 3;
  cal.max_shock_bits = 2;
  const IrbcModel m(cal);
  const auto policy = two_step_policy(m);
  const int N = m.state_dim();

  util::Rng rng(7);
  double worst = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<double> x_unit = rng.uniform_point(N);
    const int z = trial % m.num_shocks();
    IrbcModel::PointScratch scratch;
    (void)m.prepare(z, x_unit, scratch);
    std::vector<double> u(scratch.k);
    for (double& v : u) v *= (1.0 + 0.05 * rng.uniform(-1.0, 1.0));

    util::Matrix ja(static_cast<std::size_t>(N), static_cast<std::size_t>(N));
    util::Matrix jf(static_cast<std::size_t>(N), static_cast<std::size_t>(N));
    m.euler_jacobian(scratch, u, *policy, ja);

    const auto residual = [&](std::span<const double> v, std::span<double> out) {
      m.euler_residuals(scratch, v, *policy, out);
    };
    std::vector<double> f0(static_cast<std::size_t>(N));
    residual(u, f0);
    solver::FdBuffers fd;
    solver::finite_difference_jacobian(residual, u, f0, 1e-7, jf, fd);

    worst = std::max(worst, solver::jacobian_deviation(ja, jf));
  }
  EXPECT_LT(worst, 1e-4) << "analytic columns diverge from the FD reference";
}

TEST(IrbcModel, JacobianModesConvergeToTheSameSolution) {
  // The documented trajectory contract: FD-refreshed and analytic Newton
  // runs on the model's residual may take different paths but must land on
  // the same root (both solve to residual 1e-10), within 1e-6 on the dofs.
  IrbcCalibration cal;
  cal.countries = 3;
  cal.max_shock_bits = 2;
  const IrbcModel m(cal);
  const auto policy = two_step_policy(m);
  solver::NewtonOptions opts = m.newton_options();
  opts.fd_epsilon = 1e-7;

  std::vector<double> warm(3);
  for (const double center : {0.4, 0.5, 0.6}) {
    const std::vector<double> x_unit(3, center);
    policy->evaluate(1, x_unit, warm);
    IrbcModel::PointScratch scratch;
    (void)m.prepare(1, x_unit, scratch);
    core::EvalCounters fd_counters, an_counters;
    core::EvalCounters* counters = &fd_counters;
    const auto residual = [&](std::span<const double> u, std::span<double> out) {
      m.euler_residuals(scratch, u, *policy, out, counters);
    };
    const auto analytic = [&](std::span<const double> u, util::Matrix& jac) {
      m.euler_jacobian(scratch, u, *policy, jac, counters);
    };
    solver::NewtonWorkspace fd_ws, an_ws;
    const solver::NewtonResult fd = solver::solve_newton(residual, warm, opts, fd_ws);
    counters = &an_counters;
    const solver::NewtonResult an = solver::solve_newton(residual, warm, opts, an_ws, analytic);
    ASSERT_TRUE(fd.converged());
    ASSERT_TRUE(an.converged());
    for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(an.solution[j], fd.solution[j], 1e-6);
    // Analytic refreshes skip the FD sweep's N residual columns, so the
    // analytic solve consumes strictly fewer policy interpolations.
    EXPECT_LT(an_counters.interpolations, fd_counters.interpolations);

    // solve_point is the analytic run, bit for bit.
    const core::PointSolveResult point = m.solve_point(1, x_unit, *policy, warm);
    EXPECT_TRUE(std::ranges::equal(point.dofs, an.solution));
    EXPECT_EQ(point.status, an.status);
    EXPECT_EQ(point.jacobian_refreshes, an.jacobian_factorizations);
    EXPECT_EQ(point.interpolations, an_counters.interpolations);
  }
}

TEST(IrbcModel, FdCheckModeAuditsCleanlyOnRealSolves) {
  // Every refresh of a real solve is audited against the FD sweep;
  // the audit steps with the analytic columns, so the solve is solve_point's.
  IrbcCalibration cal;
  cal.countries = 2;
  cal.max_shock_bits = 2;
  const IrbcModel m(cal);
  const auto policy = two_step_policy(m);

  std::vector<double> warm(2);
  const std::vector<double> x_unit(2, 0.5);
  policy->evaluate(0, x_unit, warm);

  IrbcModel::PointScratch scratch;
  const solver::NewtonOptions options = m.prepare(0, x_unit, scratch);
  const auto residual = [&](std::span<const double> u, std::span<double> out) {
    m.euler_residuals(scratch, u, *policy, out);
  };
  int refreshes = 0;
  double worst = 0.0;
  solver::FdBuffers fd;
  const auto audited = [&](std::span<const double> u, util::Matrix& jac) {
    m.euler_jacobian(scratch, u, *policy, jac);
    std::vector<double> fu(u.size());
    residual(u, fu);
    util::Matrix reference(u.size(), u.size());
    solver::finite_difference_jacobian(residual, u, fu, 1e-7, reference, fd);
    worst = std::max(worst, solver::jacobian_deviation(jac, reference));
    ++refreshes;
  };
  solver::NewtonWorkspace ws;
  const solver::NewtonResult res = solver::solve_newton(residual, warm, options, ws, audited);
  ASSERT_TRUE(res.converged());
  EXPECT_GT(refreshes, 0);
  EXPECT_EQ(refreshes, res.jacobian_factorizations);  // every refresh audited
  EXPECT_LE(worst, 1e-3) << "max column-scaled deviation " << worst;
  EXPECT_TRUE(std::ranges::equal(m.solve_point(0, x_unit, *policy, warm).dofs, res.solution));
}

TEST(IrbcModel, RejectsBadCalibrations) {
  IrbcCalibration cal;
  cal.countries = 0;
  EXPECT_THROW(IrbcModel{cal}, std::invalid_argument);
  cal = IrbcCalibration{};
  cal.beta = 1.5;
  EXPECT_THROW(IrbcModel{cal}, std::invalid_argument);
  cal = IrbcCalibration{};
  cal.theta = 0.0;
  EXPECT_THROW(IrbcModel{cal}, std::invalid_argument);
}

}  // namespace
}  // namespace hddm::irbc
