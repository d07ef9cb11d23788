#include "solver/newton.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace hddm::solver {
namespace {

TEST(Newton, SolvesScalarQuadratic) {
  // x^2 - 4 = 0, start at 3 -> root 2.
  const auto f = [](std::span<const double> u, std::span<double> out) {
    out[0] = u[0] * u[0] - 4.0;
  };
  NewtonWorkspace ws;
  const NewtonResult r = solve_newton(f, std::vector<double>{3.0}, {}, ws);
  ASSERT_TRUE(r.converged());
  EXPECT_NEAR(r.solution[0], 2.0, 1e-8);
  EXPECT_LE(r.residual_norm, 1e-9);
}

TEST(Newton, SolvesLinearSystemInOneStep) {
  const auto f = [](std::span<const double> u, std::span<double> out) {
    out[0] = 2.0 * u[0] + u[1] - 5.0;
    out[1] = u[0] - 3.0 * u[1] + 2.0;
  };
  NewtonWorkspace ws;
  const NewtonResult r = solve_newton(f, std::vector<double>{0.0, 0.0}, {}, ws);
  ASSERT_TRUE(r.converged());
  EXPECT_NEAR(r.solution[0], 13.0 / 7.0, 1e-8);
  EXPECT_NEAR(r.solution[1], 9.0 / 7.0, 1e-8);
  EXPECT_LE(r.iterations, 3);  // linear: one Newton step (+ convergence check)
}

TEST(Newton, RosenbrockStationarySystem) {
  // Gradient of Rosenbrock = 0 at (1, 1) — a classic stiff test.
  const auto f = [](std::span<const double> u, std::span<double> out) {
    const double x = u[0], y = u[1];
    out[0] = -2.0 * (1.0 - x) - 400.0 * x * (y - x * x);
    out[1] = 200.0 * (y - x * x);
  };
  NewtonOptions opts;
  opts.max_iterations = 200;
  NewtonWorkspace ws;
  const NewtonResult r = solve_newton(f, std::vector<double>{-1.2, 1.0}, opts, ws);
  ASSERT_TRUE(r.converged());
  EXPECT_NEAR(r.solution[0], 1.0, 1e-6);
  EXPECT_NEAR(r.solution[1], 1.0, 1e-6);
}

TEST(Newton, TrigSystemNeedsDamping) {
  // Full steps overshoot; the Armijo backtracking must still converge.
  const auto f = [](std::span<const double> u, std::span<double> out) {
    out[0] = std::tanh(3.0 * u[0]) - 0.5;
  };
  NewtonWorkspace ws;
  const NewtonResult r = solve_newton(f, std::vector<double>{2.0}, {}, ws);
  ASSERT_TRUE(r.converged());
  EXPECT_NEAR(std::tanh(3.0 * r.solution[0]), 0.5, 1e-8);
}

TEST(Newton, AnalyticJacobianPath) {
  const auto f = [](std::span<const double> u, std::span<double> out) {
    out[0] = u[0] * u[0] - u[1];
    out[1] = u[1] - 3.0;
  };
  const auto jac = [](std::span<const double> u, util::Matrix& m) {
    m(0, 0) = 2.0 * u[0];
    m(0, 1) = -1.0;
    m(1, 0) = 0.0;
    m(1, 1) = 1.0;
  };
  NewtonWorkspace ws;
  const NewtonResult r = solve_newton(f, std::vector<double>{1.0, 1.0}, {}, ws, jac);
  ASSERT_TRUE(r.converged());
  EXPECT_NEAR(r.solution[0], std::sqrt(3.0), 1e-8);
  EXPECT_NEAR(r.solution[1], 3.0, 1e-8);
}

TEST(Newton, BoxKeepsIterateInside) {
  // Root of log(x) - 1 = 0 is e; an unconstrained step from a small x could
  // go negative and NaN out. The box keeps x positive.
  const auto f = [](std::span<const double> u, std::span<double> out) {
    out[0] = std::log(u[0]) - 1.0;
  };
  NewtonOptions opts;
  const double lower[] = {1e-6}, upper[] = {100.0};
  opts.lower = lower;
  opts.upper = upper;
  opts.max_iterations = 100;
  NewtonWorkspace ws;
  const NewtonResult r = solve_newton(f, std::vector<double>{0.05}, opts, ws);
  ASSERT_TRUE(r.converged());
  EXPECT_NEAR(r.solution[0], std::exp(1.0), 1e-7);
}

TEST(Newton, ReportsSingularJacobian) {
  // Residual independent of u -> zero Jacobian.
  const auto f = [](std::span<const double>, std::span<double> out) { out[0] = 1.0; };
  NewtonWorkspace ws;
  const NewtonResult r = solve_newton(f, std::vector<double>{0.0}, {}, ws);
  EXPECT_EQ(r.status, NewtonStatus::SingularJacobian);
  EXPECT_FALSE(r.converged());
}

TEST(Newton, ReportsLineSearchFailure) {
  // |u| has a kink at the "root"; Newton directions keep overshooting and
  // the merit cannot decrease enough far from 0 -> line search or max-iters.
  const auto f = [](std::span<const double> u, std::span<double> out) {
    out[0] = (u[0] > 0 ? 1.0 : -1.0) * std::sqrt(std::fabs(u[0])) + 1e-3;
  };
  NewtonOptions opts;
  opts.max_iterations = 8;
  NewtonWorkspace ws;
  const NewtonResult r = solve_newton(f, std::vector<double>{10.0}, opts, ws);
  EXPECT_FALSE(r.status == NewtonStatus::SingularJacobian && r.converged());
}

TEST(Newton, RandomizedPolynomialSystems) {
  // Property sweep: diagonally-dominant cubic systems across sizes/seeds.
  util::Rng rng(2024);
  for (int trial = 0; trial < 15; ++trial) {
    const std::size_t n = 1 + rng.uniform_index(10);
    std::vector<double> target(n);
    for (auto& t : target) t = rng.uniform(-1.0, 1.0);

    const auto f = [&target](std::span<const double> u, std::span<double> out) {
      for (std::size_t i = 0; i < u.size(); ++i) {
        const double d = u[i] - target[i];
        out[i] = d + 0.2 * d * d * d;
      }
    };
    NewtonWorkspace ws;
    const NewtonResult r = solve_newton(f, std::vector<double>(n, 0.0), {}, ws);
    ASSERT_TRUE(r.converged()) << "trial " << trial;
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(r.solution[i], target[i], 1e-7);
  }
}

TEST(Newton, EmptySystemThrows) {
  const auto f = [](std::span<const double>, std::span<double>) {};
  NewtonWorkspace ws;
  EXPECT_THROW((void)solve_newton(f, std::vector<double>{}, {}, ws), std::invalid_argument);
}

TEST(Newton, BoundSizeMismatchThrows) {
  const auto f = [](std::span<const double> u, std::span<double> out) { out[0] = u[0]; };
  NewtonOptions opts;
  const double lower[] = {0.0, 0.0};
  opts.lower = lower;
  NewtonWorkspace ws;
  EXPECT_THROW((void)solve_newton(f, std::vector<double>{1.0}, opts, ws), std::invalid_argument);
}

TEST(FiniteDifference, MatchesAnalyticJacobian) {
  const auto f = [](std::span<const double> u, std::span<double> out) {
    out[0] = u[0] * u[0] + u[1];
    out[1] = std::sin(u[0]) * u[1];
  };
  const std::vector<double> u{0.7, -1.3};
  std::vector<double> fu(2);
  f(u, fu);
  util::Matrix jac(2, 2);
  FdBuffers fd;
  int evals = 0;
  finite_difference_jacobian(f, u, fu, 1e-7, jac, fd, &evals);
  EXPECT_EQ(evals, 2);  // one residual evaluation per column
  EXPECT_NEAR(jac(0, 0), 2.0 * u[0], 1e-5);
  EXPECT_NEAR(jac(0, 1), 1.0, 1e-6);
  EXPECT_NEAR(jac(1, 0), std::cos(u[0]) * u[1], 1e-5);
  EXPECT_NEAR(jac(1, 1), std::sin(u[0]), 1e-6);
}

// --- Active-set behavior with bounds ---------------------------------------

TEST(NewtonActiveSet, InteriorSolutionUnaffectedByLooseBounds) {
  const auto f = [](std::span<const double> u, std::span<double> out) {
    out[0] = u[0] - 1.0;
    out[1] = u[1] + 2.0;
  };
  NewtonOptions opts;
  const double lower[] = {-10.0, -10.0}, upper[] = {10.0, 10.0};
  opts.lower = lower;
  opts.upper = upper;
  NewtonWorkspace ws;
  const NewtonResult r = solve_newton(f, std::vector<double>{0.0, 0.0}, opts, ws);
  ASSERT_TRUE(r.converged());
  EXPECT_NEAR(r.solution[0], 1.0, 1e-10);
  EXPECT_NEAR(r.solution[1], -2.0, 1e-10);
}

TEST(NewtonActiveSet, PinnedVariableDoesNotBlockOthers) {
  // Root of (u0 - 5, u1 - 1) with u0 capped at 2: u0 pins at the bound and
  // u1 must still converge exactly — the regression the OLG model hit when a
  // generation's consumption floor bound poisoned every other Euler
  // equation's line search.
  const auto f = [](std::span<const double> u, std::span<double> out) {
    out[0] = u[0] - 5.0;
    out[1] = u[1] - 1.0;
  };
  NewtonOptions opts;
  const double lower[] = {-10.0, -10.0}, upper[] = {2.0, 10.0};
  opts.lower = lower;
  opts.upper = upper;
  NewtonWorkspace ws;
  const NewtonResult r = solve_newton(f, std::vector<double>{0.0, 0.0}, opts, ws);
  ASSERT_TRUE(r.converged());
  EXPECT_DOUBLE_EQ(r.solution[0], 2.0);       // at the bound
  EXPECT_NEAR(r.solution[1], 1.0, 1e-8);      // free component solved
  EXPECT_LE(r.residual_norm, 1e-8);           // free residual norm
}

TEST(NewtonActiveSet, CoupledSystemWithBindingBound) {
  // u0 wants to be 4 but is capped at 1; u1 depends on u0.
  const auto f = [](std::span<const double> u, std::span<double> out) {
    out[0] = u[0] - 4.0;
    out[1] = u[1] - 0.5 * u[0];
  };
  NewtonOptions opts;
  const double lower[] = {0.0, -10.0}, upper[] = {1.0, 10.0};
  opts.lower = lower;
  opts.upper = upper;
  NewtonWorkspace ws;
  const NewtonResult r = solve_newton(f, std::vector<double>{0.5, 0.0}, opts, ws);
  ASSERT_TRUE(r.converged());
  EXPECT_DOUBLE_EQ(r.solution[0], 1.0);
  EXPECT_NEAR(r.solution[1], 0.5, 1e-9);  // consistent with the pinned u0
}

TEST(NewtonActiveSet, AllVariablesPinnedIsAKktCorner) {
  const auto f = [](std::span<const double> u, std::span<double> out) {
    out[0] = u[0] - 5.0;  // wants to exceed the cap
  };
  NewtonOptions opts;
  const double lower[] = {0.0}, upper[] = {1.0};
  opts.lower = lower;
  opts.upper = upper;
  NewtonWorkspace ws;
  const NewtonResult r = solve_newton(f, std::vector<double>{0.5}, opts, ws);
  ASSERT_TRUE(r.converged());
  EXPECT_DOUBLE_EQ(r.solution[0], 1.0);
}

TEST(NewtonActiveSet, BoundReleasedWhenDirectionTurnsInward) {
  // Start ON the bound but with the solution inside: the variable must not
  // stay pinned.
  const auto f = [](std::span<const double> u, std::span<double> out) {
    out[0] = u[0] - 0.3;
  };
  NewtonOptions opts;
  const double lower[] = {0.0}, upper[] = {1.0};
  opts.lower = lower;
  opts.upper = upper;
  NewtonWorkspace ws;
  const NewtonResult r = solve_newton(f, std::vector<double>{1.0}, opts, ws);
  ASSERT_TRUE(r.converged());
  EXPECT_NEAR(r.solution[0], 0.3, 1e-10);
}

TEST(NewtonActiveSet, NonlinearBoundCase) {
  // Nonlinear 3-var system; middle variable binds below.
  const auto f = [](std::span<const double> u, std::span<double> out) {
    out[0] = u[0] * u[0] - 4.0;          // root 2
    out[1] = u[1] + 3.0;                 // wants -3, capped at -1
    out[2] = u[2] - u[0] - u[1];         // follows the others
  };
  NewtonOptions opts;
  const double lower[] = {0.1, -1.0, -100.0}, upper[] = {100.0, 100.0, 100.0};
  opts.lower = lower;
  opts.upper = upper;
  NewtonWorkspace ws;
  const NewtonResult r = solve_newton(f, std::vector<double>{1.0, 0.0, 0.0}, opts, ws);
  ASSERT_TRUE(r.converged());
  EXPECT_NEAR(r.solution[0], 2.0, 1e-8);
  EXPECT_DOUBLE_EQ(r.solution[1], -1.0);
  EXPECT_NEAR(r.solution[2], 1.0, 1e-8);
}

TEST(NewtonStatus, ToStringCoversAllValues) {
  EXPECT_EQ(to_string(NewtonStatus::Converged), "converged");
  EXPECT_EQ(to_string(NewtonStatus::MaxIterations), "max-iterations");
  EXPECT_EQ(to_string(NewtonStatus::LineSearchFailed), "line-search-failed");
  EXPECT_EQ(to_string(NewtonStatus::SingularJacobian), "singular-jacobian");
}

namespace {

// The shared fixture system of the Jacobian-refresh and audit tests: a mildly
// nonlinear 2x2 system with a closed-form Jacobian.
const auto kSystem = [](std::span<const double> u, std::span<double> out) {
  out[0] = u[0] * u[0] - u[1];
  out[1] = u[1] - 3.0;
};
const auto kSystemJacobian = [](std::span<const double> u, util::Matrix& m) {
  m(0, 0) = 2.0 * u[0];
  m(0, 1) = -1.0;
  m(1, 0) = 0.0;
  m(1, 1) = 1.0;
};

/// A Jacobian callback that steps with `analytic` and audits every refresh
/// against the forward-difference reference: `worst` collects the largest
/// jacobian_deviation seen, `flagged` the refreshes beyond 1e-3.
struct AuditedJacobian {
  JacobianFn analytic;
  double worst = 0.0;
  int refreshes = 0;
  int flagged = 0;

  void operator()(std::span<const double> u, util::Matrix& jac) {
    analytic(u, jac);
    std::vector<double> fu(u.size());
    kSystem(u, fu);
    util::Matrix reference(u.size(), u.size());
    FdBuffers fd;
    finite_difference_jacobian(kSystem, u, fu, 1e-7, reference, fd);
    const double dev = jacobian_deviation(jac, reference);
    worst = std::max(worst, dev);
    ++refreshes;
    if (dev > 1e-3) ++flagged;
  }
};

}  // namespace

TEST(Newton, AnalyticJacobianUsesNoResidualEvaluationsForRefreshes) {
  const std::vector<double> guess{1.0, 1.0};
  NewtonWorkspace ws;
  const NewtonResult r = solve_newton(kSystem, guess, {}, ws, kSystemJacobian);
  ASSERT_TRUE(r.converged());
  EXPECT_NEAR(r.solution[0], std::sqrt(3.0), 1e-8);
  EXPECT_GT(r.jacobian_factorizations, 0);
  // Residual evaluations = initial + line-search trials only: one per
  // accepted iteration here, none for the refreshes themselves.
  EXPECT_EQ(r.residual_evaluations, 1 + r.iterations);

  // Without a JacobianFn every refresh is an n-column forward-difference
  // sweep of the residual on top of the same initial + trial evaluations.
  const NewtonResult fd = solve_newton(kSystem, guess, {}, ws);
  ASSERT_TRUE(fd.converged());
  EXPECT_EQ(fd.residual_evaluations, 1 + fd.iterations + 2 * fd.jacobian_factorizations);
}

TEST(JacobianDeviation, PassesCorrectDerivativeAndKeepsTheAnalyticTrajectory) {
  AuditedJacobian audit{kSystemJacobian};
  NewtonWorkspace checked_ws, plain_ws;
  const NewtonResult checked =
      solve_newton(kSystem, std::vector<double>{1.0, 1.0}, {}, checked_ws, audit);
  const NewtonResult plain =
      solve_newton(kSystem, std::vector<double>{1.0, 1.0}, {}, plain_ws, kSystemJacobian);

  ASSERT_TRUE(checked.converged());
  // The audit steps with the analytic matrix: trajectories are identical.
  EXPECT_TRUE(std::ranges::equal(checked.solution, plain.solution));
  EXPECT_EQ(checked.iterations, plain.iterations);
  EXPECT_EQ(audit.refreshes, checked.jacobian_factorizations);  // every refresh audited
  EXPECT_GT(audit.refreshes, 0);
  EXPECT_EQ(audit.flagged, 0);
  EXPECT_LT(audit.worst, 1e-3);
}

TEST(JacobianDeviation, FlagsSignFlippedDerivative) {
  // Sign-flipped (0,0) entry: the audit must flag the refreshes.
  const auto wrong = [](std::span<const double> u, util::Matrix& m) {
    m(0, 0) = -2.0 * u[0];  // should be +2 u[0]
    m(0, 1) = -1.0;
    m(1, 0) = 0.0;
    m(1, 1) = 1.0;
  };
  AuditedJacobian audit{wrong};
  NewtonWorkspace ws;
  (void)solve_newton(kSystem, std::vector<double>{1.0, 1.0}, {}, ws, audit);
  EXPECT_GT(audit.flagged, 0) << "the audit failed to flag a sign-flipped derivative";
  EXPECT_GT(audit.worst, 1e-3);

  // At u = (1, 1) column 0 is off by 4 against a reference of scale 2.
  util::Matrix jac(2, 2), exact(2, 2);
  wrong(std::vector<double>{1.0, 1.0}, jac);
  kSystemJacobian(std::vector<double>{1.0, 1.0}, exact);
  EXPECT_DOUBLE_EQ(jacobian_deviation(jac, exact), 4.0 / 3.0);
  EXPECT_EQ(jacobian_deviation(exact, exact), 0.0);
  EXPECT_THROW((void)jacobian_deviation(jac, util::Matrix(2, 3)), std::invalid_argument);
}

/// A piecewise-linear system with a kink along u0 = 0: F(u) = (1, 1) + J u
/// with J = [[1, 0], [4, 1]] for u0 >= 0 and the identity below, continuous
/// across the kink. Its only root, (-1, -1), lies below. The Jacobian
/// callback reports the derivative from above at the kink.
const auto kKinked = [](std::span<const double> u, std::span<double> out) {
  out[0] = 1.0 + u[0];
  out[1] = 1.0 + (u[0] >= 0.0 ? 4.0 : 0.0) * u[0] + u[1];
};
const auto kKinkedJacobian = [](std::span<const double> u, util::Matrix& jac) {
  jac(0, 0) = 1.0;
  jac(0, 1) = 0.0;
  jac(1, 0) = u[0] >= 0.0 ? 4.0 : 0.0;
  jac(1, 1) = 1.0;
};

TEST(NewtonKinkRetry, RelinearizesAcrossAKinkAndConverges) {
  // From the kink, the derivative from above gives du = (-1, 3): it points
  // below, where the merit 0.5 ((1 - l)^2 + (1 + 3 l)^2) exceeds the start's
  // at every step fraction l, so Armijo fails all the way down to
  // min_damping (without the retry the solve stops there with
  // LineSearchFailed at iteration 0). Re-linearized at u + min_damping du,
  // below the kink, the full Newton step lands on the root. A forward
  // difference at the kink also sees the slope from above, so both refresh
  // kinds take the retry.
  for (const bool analytic : {true, false}) {
    NewtonWorkspace ws;
    const std::vector<double> start{0.0, 0.0};
    const NewtonResult r = analytic ? solve_newton(kKinked, start, {}, ws, kKinkedJacobian)
                                    : solve_newton(kKinked, start, {}, ws);
    ASSERT_TRUE(r.converged()) << (analytic ? "analytic" : "fd") << ": " << to_string(r.status);
    EXPECT_NEAR(r.solution[0], -1.0, 1e-9);
    EXPECT_NEAR(r.solution[1], -1.0, 1e-9);
    EXPECT_EQ(r.iterations, 1);
    EXPECT_EQ(r.jacobian_factorizations, 2);  // the failed linearization and the retry's
  }
}

TEST(NewtonKinkRetry, RetryThatAlsoFailsReportsLineSearchFailed) {
  // A kink that is a maximum of |F|: no side descends, so the retry fails
  // as well and the solve reports it.
  const auto peak = [](std::span<const double> u, std::span<double> out) {
    out[0] = -1.0 - std::fabs(u[0]);
  };
  const auto slope = [](std::span<const double> u, util::Matrix& jac) {
    jac(0, 0) = u[0] >= 0.0 ? -1.0 : 1.0;
  };
  NewtonWorkspace ws;
  const NewtonResult r = solve_newton(peak, std::vector<double>{0.0}, {}, ws, slope);
  EXPECT_EQ(r.status, NewtonStatus::LineSearchFailed);
  EXPECT_EQ(r.iterations, 0);
  EXPECT_EQ(r.jacobian_factorizations, 2);
}

/// The refresh rule's contraction factor, as solve_newton applies it.
constexpr double kChordContraction = 0.1;

double inf_norm(std::span<const double> v) {
  double m = 0.0;
  for (const double x : v) m = std::max(m, std::fabs(x));
  return m;
}

TEST(NewtonKinkRetry, SmoothSolveKeepsThePlainNewtonIteratesBitForBit) {
  // A smooth system whose full Newton steps are all accepted: every
  // residual evaluation is an iterate u_{k+1} = u_k - J_k^{-1} F(u_k), bit
  // for bit the chord-Newton recursion computed here with the same LU: J_k
  // is refreshed at u_k unless the previous step cut ||F||_inf at least
  // tenfold, in which case J_k = J_{k-1}.
  const auto f = [](std::span<const double> u, std::span<double> out) {
    out[0] = u[0] + 0.1 * u[1] * u[1] - 1.2;
    out[1] = 0.2 * u[0] * u[0] + u[1] - 0.9;
  };
  const auto jac = [](std::span<const double> u, util::Matrix& m) {
    m(0, 0) = 1.0;
    m(0, 1) = 0.2 * u[1];
    m(1, 0) = 0.4 * u[0];
    m(1, 1) = 1.0;
  };
  std::vector<std::vector<double>> evaluated;
  const auto recording = [&](std::span<const double> u, std::span<double> out) {
    evaluated.emplace_back(u.begin(), u.end());
    f(u, out);
  };
  NewtonWorkspace ws;
  const NewtonResult r = solve_newton(recording, std::vector<double>{1.0, 1.0}, {}, ws, jac);
  ASSERT_TRUE(r.converged());
  EXPECT_EQ(r.residual_evaluations, r.iterations + 1);  // no backtracking, no retry

  std::vector<double> u{1.0, 1.0}, fu(2), du(2);
  util::Matrix m(2, 2);
  util::LuFactorization lu;
  int refreshes = 0;
  double previous_norm = 0.0;
  ASSERT_EQ(evaluated.size(), static_cast<std::size_t>(r.iterations) + 1);
  for (std::size_t k = 0; k < evaluated.size(); ++k) {
    EXPECT_EQ(evaluated[k], u) << "iterate " << k;  // bitwise
    f(u, fu);
    const double norm = inf_norm(fu);
    if (k == static_cast<std::size_t>(r.iterations)) break;
    if (k == 0 || norm > kChordContraction * previous_norm) {
      jac(u, m);
      ASSERT_TRUE(lu.factor(m));
      ++refreshes;
    }
    lu.solve(fu, du);
    for (std::size_t t = 0; t < 2; ++t) u[t] = u[t] + 1.0 * -du[t];
    previous_norm = norm;
  }
  EXPECT_EQ(r.jacobian_factorizations, refreshes);
  EXPECT_LT(refreshes, r.iterations);  // some iteration kept its factors
  EXPECT_TRUE(std::ranges::equal(r.residual, fu));  // F at the solution, as evaluated
}

TEST(NewtonChord, LinearConvergenceRefreshesEveryIteration) {
  // A double root: Newton halves the distance to it, so ||F|| = (u - 1)^2
  // only falls to a quarter per step, short of the tenfold cut a chord step
  // needs. Every iteration refreshes.
  const auto f = [](std::span<const double> u, std::span<double> out) {
    out[0] = (u[0] - 1.0) * (u[0] - 1.0);
  };
  const auto jac = [](std::span<const double> u, util::Matrix& m) { m(0, 0) = 2.0 * (u[0] - 1.0); };
  NewtonWorkspace ws;
  const NewtonResult r = solve_newton(f, std::vector<double>{2.0}, {}, ws, jac);
  ASSERT_TRUE(r.converged());
  EXPECT_GT(r.iterations, 10);
  EXPECT_EQ(r.jacobian_factorizations, r.iterations);
  EXPECT_EQ(r.residual_evaluations, r.iterations + 1);
}

TEST(NewtonChord, DampedStepRefreshesEvenWhenItContracts) {
  // F = atan(u) from u = 1.45: the full Newton step overshoots to -1.55,
  // where |F| is larger, and the halved step lands at u1 ~ -0.05, a 19-fold
  // cut of |F|. A damped step keeps no factors, so the next iteration
  // refreshes at u1; the fast steps after it are chord steps.
  const auto f = [](std::span<const double> u, std::span<double> out) { out[0] = std::atan(u[0]); };
  std::vector<double> linearized_at;
  const auto jac = [&](std::span<const double> u, util::Matrix& m) {
    linearized_at.push_back(u[0]);
    m(0, 0) = 1.0 / (1.0 + u[0] * u[0]);
  };
  std::vector<double> evaluated;
  const auto recording = [&](std::span<const double> u, std::span<double> out) {
    evaluated.push_back(u[0]);
    f(u, out);
  };
  NewtonWorkspace ws;
  const NewtonResult r = solve_newton(recording, std::vector<double>{1.45}, {}, ws, jac);
  ASSERT_TRUE(r.converged()) << to_string(r.status);
  EXPECT_GT(r.iterations, 2);
  ASSERT_GE(evaluated.size(), 3u);
  EXPECT_LT(evaluated[1], -1.0);  // the rejected full step
  ASSERT_EQ(linearized_at.size(), 2u);
  EXPECT_EQ(r.jacobian_factorizations, 2);
  EXPECT_EQ(linearized_at[1], evaluated[2]);  // at the accepted half step
}

TEST(NewtonChord, FailedChordStepRefreshesAtTheIterateBeforeTheKinkRetry) {
  // F = -u (u - 2)(u - 4). From u = 2.999 the concave cubic's tangent lands
  // at u1 ~ 0.018, past the trough's far side: ||F|| falls 21-fold, so the
  // next iteration keeps the slope from u = 2.999 (positive). At u1 the
  // slope is negative, so that chord direction climbs out of the root at 0
  // and its line search fails at every step fraction. The iteration is then
  // retried with the Jacobian refreshed at u1 itself, not at the kink
  // retry's u1 + min_damping du, and converges with chord steps from there.
  const auto f = [](std::span<const double> u, std::span<double> out) {
    out[0] = -u[0] * (u[0] - 2.0) * (u[0] - 4.0);
  };
  std::vector<double> linearized_at;
  const auto jac = [&](std::span<const double> u, util::Matrix& m) {
    linearized_at.push_back(u[0]);
    m(0, 0) = -3.0 * u[0] * u[0] + 12.0 * u[0] - 8.0;
  };
  std::vector<double> evaluated;
  const auto recording = [&](std::span<const double> u, std::span<double> out) {
    evaluated.push_back(u[0]);
    f(u, out);
  };
  NewtonWorkspace ws;
  const NewtonResult r = solve_newton(recording, std::vector<double>{2.999}, {}, ws, jac);
  ASSERT_TRUE(r.converged()) << to_string(r.status);
  EXPECT_NEAR(r.solution[0], 0.0, 1e-9);
  ASSERT_GE(evaluated.size(), 2u);
  const double u1 = evaluated[1];  // the first iteration's full step
  EXPECT_LT(u1, 0.1);
  // One refresh at the start, one at u1 after the failed chord line search;
  // every later iteration keeps the factors.
  EXPECT_EQ(r.jacobian_factorizations, 2);
  ASSERT_EQ(linearized_at.size(), 2u);
  EXPECT_EQ(linearized_at[0], 2.999);
  EXPECT_EQ(linearized_at[1], u1);  // bitwise: at the iterate, not the kink retry's point
  // The failed chord line search tried points beyond u1, away from the root.
  EXPECT_GT(evaluated[2], u1);
}

TEST(NewtonChord, ActiveSetIterationIsFollowedByARefresh) {
  // u0 starts on its lower bound 0 and its Newton step points outward, so
  // the first iteration pins it and solves the reduced system for u1. That
  // step is full and cuts ||F||_inf from 2 to 0.01, but ws.lu then holds
  // the reduced block's factors, so the next iteration must refresh.
  const auto f = [](std::span<const double> u, std::span<double> out) {
    out[0] = u[0] + 0.01 - 0.5 * (u[1] - 1.0) * (u[1] - 1.0);
    out[1] = u[1] - 1.0;
  };
  std::vector<std::vector<double>> linearized_at;
  const auto jac = [&](std::span<const double> u, util::Matrix& m) {
    linearized_at.emplace_back(u.begin(), u.end());
    m(0, 0) = 1.0;
    m(0, 1) = -(u[1] - 1.0);
    m(1, 0) = 0.0;
    m(1, 1) = 1.0;
  };
  NewtonOptions options;
  const double lower[] = {0.0, -10.0};
  options.lower = lower;
  NewtonWorkspace ws;
  const NewtonResult r = solve_newton(f, std::vector<double>{0.0, 3.0}, options, ws, jac);
  ASSERT_TRUE(r.converged()) << to_string(r.status);
  EXPECT_EQ(r.iterations, 1);
  EXPECT_EQ(r.solution[0], 0.0);
  EXPECT_EQ(r.solution[1], 1.0);
  EXPECT_EQ(r.jacobian_factorizations, 2);
  ASSERT_EQ(linearized_at.size(), 2u);
  EXPECT_EQ(linearized_at[1], (std::vector<double>{0.0, 1.0}));
  // The pinned component keeps its KKT residual; the free one vanished.
  EXPECT_NEAR(r.residual[0], 0.01, 1e-15);
  EXPECT_EQ(r.residual[1], 0.0);
}

TEST(NewtonWorkspaceReuse, ReusedWorkspaceReproducesAFreshSolveBitForBit) {
  // A workspace carries buffers, never state: a solve in a workspace warmed
  // by a differently sized, bounded system matches a fresh workspace's.
  NewtonWorkspace warmed, fresh;
  const auto cubic = [](std::span<const double> u, std::span<double> out) {
    for (std::size_t i = 0; i < u.size(); ++i) out[i] = u[i] + 0.2 * u[i] * u[i] * u[i] - 1.0;
  };
  NewtonOptions boxed;
  const double lower[] = {-1.0, -1.0, -1.0, -1.0}, upper[] = {0.5, 2.0, 2.0, 2.0};
  boxed.lower = lower;
  boxed.upper = upper;
  (void)solve_newton(cubic, std::vector<double>(4, 0.0), boxed, warmed);

  const NewtonResult again = solve_newton(kSystem, std::vector<double>{1.0, 1.0}, {}, warmed);
  const NewtonResult first = solve_newton(kSystem, std::vector<double>{1.0, 1.0}, {}, fresh);
  ASSERT_TRUE(first.converged());
  EXPECT_TRUE(std::ranges::equal(again.solution, first.solution));
  EXPECT_EQ(again.iterations, first.iterations);
  EXPECT_EQ(again.residual_evaluations, first.residual_evaluations);
}

}  // namespace
}  // namespace hddm::solver
