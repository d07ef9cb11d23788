#include "olg/olg_model.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include "core/policy.hpp"
#include "core/time_iteration.hpp"
#include "support/scalar_policy_view.hpp"
#include "util/rng.hpp"

namespace hddm::olg {
namespace {

OlgModel make_model(int ages = 6) {
  return OlgModel(build_economy(reduced_calibration(ages)));
}

TEST(OlgModel, DimensionsMatchTheory) {
  const OlgModel m = make_model(6);
  EXPECT_EQ(m.state_dim(), 5);
  EXPECT_EQ(m.ndofs(), 10);
  EXPECT_EQ(m.num_shocks(), 4);
  EXPECT_EQ(m.domain().dim(), 5);
}

TEST(OlgModel, PaperDimensionsAre59And118) {
  // Only construct (no solve): the headline configuration's arity.
  const OlgModel m(build_economy(paper_calibration()));
  EXPECT_EQ(m.state_dim(), 59);
  EXPECT_EQ(m.ndofs(), 118);
  EXPECT_EQ(m.num_shocks(), 16);
}

TEST(OlgModel, DomainBracketsSteadyState) {
  const OlgModel m = make_model(6);
  const auto& box = m.domain();
  const SteadyState& ss = m.steady_state();
  EXPECT_LT(box.lower()[0], ss.capital);
  EXPECT_GT(box.upper()[0], ss.capital);
  for (int a = 2; a <= 4; ++a) {
    EXPECT_LT(box.lower()[a - 1], ss.assets[a - 1]);
    EXPECT_GT(box.upper()[a - 1], ss.assets[a - 1]);
  }
}

TEST(OlgModel, DecodeStateResidualWealth) {
  const OlgModel m = make_model(6);
  const std::vector<double> x{2.0, 0.3, 0.5, 0.7, 0.4};
  const auto s = m.decode_state(x);
  EXPECT_DOUBLE_EQ(s.capital, 2.0);
  EXPECT_DOUBLE_EQ(s.wealth[0], 0.0);                      // newborn
  EXPECT_DOUBLE_EQ(s.wealth[1], 0.3);
  EXPECT_DOUBLE_EQ(s.wealth[4], 0.4);
  EXPECT_DOUBLE_EQ(s.wealth[5], 2.0 - (0.3 + 0.5 + 0.7 + 0.4));  // oldest
}

TEST(OlgModel, ConsumptionRespondsToSavings) {
  const OlgModel m = make_model(6);
  const SteadyState& ss = m.steady_state();
  std::vector<double> x(5);
  x[0] = ss.capital;
  for (int a = 2; a <= 5; ++a) x[a - 1] = ss.assets[a - 1];
  const auto s = m.decode_state(x);

  std::vector<double> savings(ss.savings.begin(), ss.savings.end() - 1);
  const auto c0 = m.consumption(0, s, savings);
  savings[1] += 0.1;  // age 2 saves more
  const auto c1 = m.consumption(0, s, savings);
  EXPECT_NEAR(c1[1], c0[1] - 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(c1[0], c0[0]);
}

// A PolicyEvaluator that always returns the steady-state policy — the
// simplest stationary p_next for solvability tests.
class SteadyPolicy final : public core::PolicyEvaluator {
 public:
  explicit SteadyPolicy(const OlgModel& model) : model_(model) {}
  [[nodiscard]] int num_shocks() const override { return model_.num_shocks(); }
  [[nodiscard]] int ndofs() const override { return model_.ndofs(); }
  void evaluate(int z, std::span<const double> x, std::span<double> out) const override {
    const auto v = model_.initial_policy(z, x);
    std::copy(v.begin(), v.end(), out.begin());
  }

 private:
  const OlgModel& model_;
};

TEST(OlgModel, SolvePointConvergesAtSteadyState) {
  const OlgModel m = make_model(6);
  const SteadyPolicy pnext(m);
  const SteadyState& ss = m.steady_state();

  std::vector<double> x(5);
  x[0] = ss.capital;
  for (int a = 2; a <= 5; ++a) x[a - 1] = ss.assets[a - 1];
  const std::vector<double> x_unit = m.domain().to_unit(x);

  std::vector<double> warm(static_cast<std::size_t>(m.ndofs()));
  pnext.evaluate(0, x_unit, warm);
  const auto res = m.solve_point(0, x_unit, pnext, warm);
  EXPECT_TRUE(res.converged);
  EXPECT_LE(res.residual_norm, 1e-8);
  EXPECT_EQ(static_cast<int>(res.dofs.size()), m.ndofs());
  // Interpolation counting: every residual evaluation touches all shocks.
  EXPECT_GT(res.interpolations, m.num_shocks());
  // At (near) the deterministic steady state with a stationary policy, the
  // solved savings stay in the neighbourhood of the steady-state profile.
  for (int a = 1; a <= 4; ++a)
    EXPECT_NEAR(res.dofs[a - 1], ss.savings[a - 1], 0.6 * std::max(0.2, ss.savings[a - 1]))
        << "age " << a;
}

TEST(OlgModel, SolvePointConvergesAcrossStateSpace) {
  const OlgModel m = make_model(6);
  const SteadyPolicy pnext(m);
  util::Rng rng(77);
  std::vector<double> warm(static_cast<std::size_t>(m.ndofs()));
  int converged = 0;
  const int trials = 25;
  for (int t = 0; t < trials; ++t) {
    // Stay in the middle of the box where consumption is surely positive.
    std::vector<double> x_unit(5);
    for (auto& u : x_unit) u = 0.3 + 0.4 * rng.uniform();
    const int z = static_cast<int>(rng.uniform_index(4));
    pnext.evaluate(z, x_unit, warm);
    converged += m.solve_point(z, x_unit, pnext, warm).converged;
  }
  EXPECT_GE(converged, trials - 1);
}

TEST(OlgModel, SolvePointGatheredMatchesScalarBitIdentical) {
  // Same contract as the IRBC parity test, on the OLG Euler system: routing
  // the Newton-internal interpolations through AsgPolicy::evaluate_gather
  // must not change one bit of the solved point.
  const OlgModel m = make_model(5);

  core::TimeIterationOptions topts;
  topts.base_level = 2;
  topts.max_iterations = 2;
  topts.tolerance = 0.0;
  const auto ti = core::solve_time_iteration(m, topts);
  const core::AsgPolicy& policy = *ti.policy;

  const core::ScalarPolicyView scalar_view(policy);

  std::vector<double> warm(static_cast<std::size_t>(m.ndofs()));
  for (const double center : {0.45, 0.55}) {
    const std::vector<double> x_unit(static_cast<std::size_t>(m.state_dim()), center);
    policy.evaluate(0, x_unit, warm);
    const auto gathered = m.solve_point(1, x_unit, policy, warm);
    const auto scalar = m.solve_point(1, x_unit, scalar_view, warm);
    EXPECT_EQ(gathered.converged, scalar.converged);
    EXPECT_EQ(gathered.solver_iterations, scalar.solver_iterations);
    EXPECT_EQ(gathered.interpolations, scalar.interpolations);
    EXPECT_GT(gathered.gathers, 0);
    ASSERT_EQ(gathered.dofs.size(), scalar.dofs.size());
    for (std::size_t j = 0; j < gathered.dofs.size(); ++j)
      EXPECT_EQ(gathered.dofs[j], scalar.dofs[j]) << "dof " << j;
  }
}

TEST(OlgModel, AnalyticJacobianMatchesFdColumns) {
  // Column parity of the per-cohort closed-form Jacobian against the
  // FD sweep at generic savings points (cf. the IRBC twin test).
  const OlgModel m = make_model(6);
  core::TimeIterationOptions topts;
  topts.base_level = 2;
  topts.max_iterations = 2;
  topts.tolerance = 0.0;
  const auto policy = core::solve_time_iteration(m, topts).policy;
  const int d = m.state_dim();

  util::Rng rng(13);
  double worst = 0.0;
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> x_unit = rng.uniform_point(d);
    for (double& v : x_unit) v = 0.15 + 0.7 * v;  // interior: avoid clamp faces
    const int z = trial % m.num_shocks();
    OlgModel::PointScratch scratch;
    (void)m.prepare(z, x_unit, scratch);
    std::vector<double> warm(static_cast<std::size_t>(m.ndofs()));
    policy->evaluate(z, x_unit, warm);
    std::vector<double> u(warm.begin(), warm.begin() + d);
    for (double& v : u) v *= (1.0 + 0.02 * rng.uniform(-1.0, 1.0));

    util::Matrix ja(static_cast<std::size_t>(d), static_cast<std::size_t>(d));
    util::Matrix jf(static_cast<std::size_t>(d), static_cast<std::size_t>(d));
    m.euler_jacobian(scratch, u, *policy, ja);

    const auto residual = [&](std::span<const double> v, std::span<double> out) {
      m.euler_residuals(scratch, v, *policy, out);
    };
    std::vector<double> f0(static_cast<std::size_t>(d));
    residual(u, f0);
    solver::FdBuffers fd;
    solver::finite_difference_jacobian(residual, u, f0, 1e-6, jf, fd);

    worst = std::max(worst, solver::jacobian_deviation(ja, jf));
  }
  EXPECT_LT(worst, 1e-4) << "analytic columns diverge from the FD reference";
}

TEST(OlgModel, JacobianModesConvergeToTheSameSolution) {
  // FD-refreshed and analytic Newton runs on the model's residual must land
  // on the same per-cohort equilibrium (documented 1e-6 trajectory
  // tolerance); a third run audits every analytic refresh against the
  // FD sweep without flagging.
  const OlgModel m(build_economy(reduced_calibration(6)));
  core::TimeIterationOptions topts;
  topts.base_level = 2;
  topts.max_iterations = 2;
  topts.tolerance = 0.0;
  const auto policy = core::solve_time_iteration(m, topts).policy;
  const int d = m.state_dim();
  const auto sd = static_cast<std::size_t>(d);
  solver::NewtonOptions opts = OlgModelOptions{}.newton;
  opts.fd_epsilon = 1e-6;

  std::vector<double> warm(static_cast<std::size_t>(m.ndofs()));
  for (const double center : {0.45, 0.55}) {
    const std::vector<double> x_unit(sd, center);
    policy->evaluate(0, x_unit, warm);
    const std::vector<double> guess(warm.begin(), warm.begin() + d);
    OlgModel::PointScratch scratch;
    const solver::NewtonOptions box = m.prepare(1, x_unit, scratch);
    opts.lower = box.lower;
    opts.upper = box.upper;

    core::EvalCounters fd_counters, an_counters;
    core::EvalCounters* counters = &fd_counters;
    const auto residual = [&](std::span<const double> u, std::span<double> out) {
      m.euler_residuals(scratch, u, *policy, out, counters);
    };
    const auto analytic = [&](std::span<const double> u, util::Matrix& jac) {
      m.euler_jacobian(scratch, u, *policy, jac, counters);
    };
    solver::NewtonWorkspace fd_ws, an_ws, ck_ws;
    const solver::NewtonResult fd = solver::solve_newton(residual, guess, opts, fd_ws);
    counters = &an_counters;
    const solver::NewtonResult an = solver::solve_newton(residual, guess, opts, an_ws, analytic);
    ASSERT_TRUE(fd.converged());
    ASSERT_TRUE(an.converged());
    for (std::size_t j = 0; j < sd; ++j) EXPECT_NEAR(an.solution[j], fd.solution[j], 1e-6);
    EXPECT_LT(an_counters.interpolations, fd_counters.interpolations);  // no FD sweeps

    // solve_point's savings are the analytic run, bit for bit.
    const core::PointSolveResult point = m.solve_point(1, x_unit, *policy, warm);
    EXPECT_TRUE(std::equal(an.solution.begin(), an.solution.end(), point.dofs.begin()));
    EXPECT_EQ(point.status, an.status);
    EXPECT_EQ(point.jacobian_refreshes, an.jacobian_factorizations);

    counters = nullptr;
    int refreshes = 0;
    double worst = 0.0;
    solver::FdBuffers fd_buffers;
    const auto audited = [&](std::span<const double> u, util::Matrix& jac) {
      analytic(u, jac);
      std::vector<double> fu(sd);
      residual(u, fu);
      util::Matrix reference(sd, sd);
      solver::finite_difference_jacobian(residual, u, fu, 1e-6, reference, fd_buffers);
      worst = std::max(worst, solver::jacobian_deviation(jac, reference));
      ++refreshes;
    };
    const solver::NewtonResult ck = solver::solve_newton(residual, guess, opts, ck_ws, audited);
    // The audit does not perturb the solve.
    EXPECT_TRUE(std::ranges::equal(ck.solution, an.solution));
    EXPECT_EQ(refreshes, ck.jacobian_factorizations);
    EXPECT_GT(refreshes, 0);
    EXPECT_LE(worst, 1e-3) << "max column-scaled deviation " << worst;
  }
}

TEST(OlgModel, EulerResidualZeroAfterSolve) {
  const OlgModel m = make_model(6);
  const SteadyPolicy pnext(m);
  const std::vector<double> x_unit(5, 0.5);
  std::vector<double> warm(static_cast<std::size_t>(m.ndofs()));
  pnext.evaluate(0, x_unit, warm);
  const auto res = m.solve_point(0, x_unit, pnext, warm);
  ASSERT_TRUE(res.converged);

  OlgModel::PointScratch point;
  (void)m.prepare(0, x_unit, point);
  std::vector<double> savings(res.dofs.begin(), res.dofs.begin() + 5);
  std::vector<double> r(5);
  core::EvalCounters counters;
  m.euler_residuals(point, savings, pnext, r, &counters);
  for (const double v : r) EXPECT_NEAR(v, 0.0, 1e-7);
  // One residual call issues exactly one gather, carrying one request per
  // successor shock with mass.
  int nonzero_successors = 0;
  for (const double prob : m.economy().chain.row(0))
    if (prob > 0.0) ++nonzero_successors;
  EXPECT_EQ(counters.gathers, 1);
  EXPECT_EQ(counters.interpolations, nonzero_successors);
}

TEST(OlgModel, AcceptProjectsNewtonsFinalResidual) {
  // accept() projects the F(savings) Newton returns instead of gathering it
  // again: the same bits as a fresh projected_residual_norm, and the point
  // solve issues one gather per residual evaluation and per Jacobian
  // refresh, none for accepting.
  const OlgModel m = make_model(6);
  core::TimeIterationOptions topts;
  topts.base_level = 2;
  topts.max_iterations = 2;
  topts.tolerance = 0.0;
  const auto policy = core::solve_time_iteration(m, topts).policy;
  const auto sd = static_cast<std::size_t>(m.state_dim());

  std::vector<double> warm(static_cast<std::size_t>(m.ndofs()));
  for (const double corner : {0.02, 0.5, 0.98}) {
    std::vector<double> x_unit(sd, 0.5);
    x_unit[0] = corner;
    for (int z = 0; z < m.num_shocks(); ++z) {
      policy->evaluate(z, x_unit, warm);
      OlgModel::PointScratch scratch;
      const solver::NewtonOptions options = m.prepare(z, x_unit, scratch);
      core::EvalCounters residual_counters;
      int refreshes = 0;
      const auto residual = [&](std::span<const double> u, std::span<double> out) {
        m.euler_residuals(scratch, u, *policy, out, &residual_counters);
      };
      const auto jacobian = [&](std::span<const double> u, util::Matrix& jac) {
        m.euler_jacobian(scratch, u, *policy, jac);
        ++refreshes;
      };
      solver::NewtonWorkspace ws;
      const solver::NewtonResult nres = solver::solve_newton(
          residual, std::span<const double>(warm).first(sd), options, ws, jacobian);
      EXPECT_EQ(residual_counters.gathers, nres.residual_evaluations);

      core::PointSolveResult accepted;
      accepted.residual_norm = std::numeric_limits<double>::infinity();
      m.accept(scratch, nres.solution, nres.residual, accepted);
      OlgModel::PointScratch fresh;
      (void)m.prepare(z, x_unit, fresh);
      core::EvalCounters fresh_counters;
      const double projected =
          m.projected_residual_norm(fresh, nres.solution, *policy, &fresh_counters);
      EXPECT_EQ(fresh_counters.gathers, 1);
      EXPECT_EQ(std::memcmp(&accepted.residual_norm, &projected, sizeof(double)), 0)
          << "x0 " << corner << " shock " << z << ": " << accepted.residual_norm << " vs "
          << projected;
      EXPECT_EQ(accepted.converged, projected < 1e-6);

      const core::PointSolveResult point = m.solve_point(z, x_unit, *policy, warm);
      EXPECT_EQ(point.solver_iterations, nres.iterations);
      EXPECT_EQ(point.jacobian_refreshes, refreshes);
      EXPECT_EQ(point.gathers, nres.residual_evaluations + refreshes)
          << "x0 " << corner << " shock " << z;
    }
  }
}

TEST(OlgModel, ValueCoefficientsAreDiscountedUtilities) {
  const OlgModel m = make_model(6);
  const SteadyPolicy pnext(m);
  const std::vector<double> x_unit(5, 0.5);
  std::vector<double> warm(static_cast<std::size_t>(m.ndofs()));
  pnext.evaluate(0, x_unit, warm);
  const auto res = m.solve_point(0, x_unit, pnext, warm);
  ASSERT_TRUE(res.converged);
  // Values must be finite and ordered sensibly: the youngest agent's value
  // aggregates more discounted utility terms than the oldest worker's.
  for (int a = 1; a <= 5; ++a) EXPECT_TRUE(std::isfinite(res.dofs[5 + a - 1])) << a;
}

TEST(OlgModel, InitialPolicyScalesWithCapital) {
  const OlgModel m = make_model(6);
  std::vector<double> lo(5, 0.5), hi(5, 0.5);
  lo[0] = 0.2;  // poor economy
  hi[0] = 0.8;  // rich economy
  const auto p_lo = m.initial_policy(0, lo);
  const auto p_hi = m.initial_policy(0, hi);
  double s_lo = 0.0, s_hi = 0.0;
  for (int a = 0; a < 5; ++a) {
    s_lo += p_lo[a];
    s_hi += p_hi[a];
  }
  EXPECT_GT(s_hi, s_lo);
}

/// initial_policy's formula as evaluated per call before its value half
/// moved into the constructor: to_physical, decode_state, then the
/// steady-state annuity loop of every age.
std::vector<double> initial_policy_oracle(const OlgModel& m, std::span<const double> x_unit) {
  const int A = m.economy().ages();
  const int d = A - 1;
  const SteadyState& ss = m.steady_state();
  const std::vector<double> x_phys = m.domain().to_physical(x_unit);
  const OlgModel::DecodedState s = m.decode_state(x_phys);
  std::vector<double> dofs(static_cast<std::size_t>(2 * d));
  const double k_ratio = std::clamp(s.capital / ss.capital, 0.25, 4.0);
  for (int a = 1; a <= A - 1; ++a) dofs[a - 1] = std::max(ss.savings[a - 1] * k_ratio, 0.0);
  for (int a = 1; a <= A - 1; ++a) {
    const double u = m.preferences().utility_unnormalized(ss.consumption[a - 1]);
    const int remaining = A - a + 1;
    double annuity = 0.0, b = 1.0;
    for (int k = 0; k < remaining; ++k) {
      annuity += b * u;
      b *= m.economy().beta;
    }
    dofs[d + a - 1] = m.preferences().value_transform(annuity);
  }
  return dofs;
}

void expect_initial_policy_matches_oracle(const OlgModel& m, std::span<const double> x_unit) {
  const std::vector<double> got = m.initial_policy(1, x_unit);
  const std::vector<double> want = initial_policy_oracle(m, x_unit);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < got.size(); ++k)
    EXPECT_EQ(std::memcmp(&got[k], &want[k], sizeof(double)), 0)
        << "dof " << k << ": " << got[k] << " vs " << want[k] << " at x0 = " << x_unit[0];
}

TEST(OlgModel, InitialPolicyEqualsThePerCallFormulaBitForBit) {
  const OlgModel m = make_model(6);
  const auto d = static_cast<std::size_t>(m.state_dim());
  util::Rng rng(61);
  for (int k = 0; k < 32; ++k) expect_initial_policy_matches_oracle(m, rng.uniform_point(5));
  // Box corners: all-low, all-high and alternating.
  for (const double c : {0.0, 1.0}) {
    std::vector<double> corner(d, c);
    expect_initial_policy_matches_oracle(m, corner);
    for (std::size_t t = 0; t < d; t += 2) corner[t] = 1.0 - c;
    expect_initial_policy_matches_oracle(m, corner);
  }

  // A capital range reaching below the capital floor (1e-3 of steady-state
  // capital): at its low face decode_state floors the capital.
  OlgModelOptions wide;
  wide.width_capital = 5000.0;
  const OlgModel floored(build_economy(reduced_calibration(6)), wide);
  for (const double x0 : {0.0, 1e-7, 0.5}) {
    std::vector<double> x(d, 0.5);
    x[0] = x0;
    if (x0 == 0.0) {
      const std::vector<double> x_phys = floored.domain().to_physical(x);
      ASSERT_GT(floored.decode_state(x_phys).capital, x_phys[0]) << "the floor does not bind";
    }
    expect_initial_policy_matches_oracle(floored, x);
  }
}

TEST(OlgModel, InitialPolicyRejectsADimensionMismatch) {
  const OlgModel m = make_model(6);
  EXPECT_THROW((void)m.initial_policy(0, std::vector<double>(4, 0.5)), std::invalid_argument);
  EXPECT_THROW((void)m.initial_policy(0, std::vector<double>(6, 0.5)), std::invalid_argument);
}

TEST(OlgModel, EquilibriumResidualDetectsBadPolicy) {
  const OlgModel m = make_model(6);
  const SteadyPolicy good(m);

  // A deliberately broken policy: zero savings everywhere.
  class ZeroPolicy final : public core::PolicyEvaluator {
   public:
    explicit ZeroPolicy(const OlgModel& model) : model_(model) {}
    [[nodiscard]] int num_shocks() const override { return model_.num_shocks(); }
    [[nodiscard]] int ndofs() const override { return model_.ndofs(); }
    void evaluate(int, std::span<const double>, std::span<double> out) const override {
      std::fill(out.begin(), out.end(), 0.01);
    }
    const OlgModel& model_;
  } bad(m);

  const std::vector<double> x_unit(5, 0.5);
  EXPECT_GT(m.equilibrium_residual(0, x_unit, bad),
            m.equilibrium_residual(0, x_unit, good) * 0.999);
}

}  // namespace
}  // namespace hddm::olg
