#include "solver/newton.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hddm::solver {

std::string to_string(NewtonStatus status) {
  switch (status) {
    case NewtonStatus::Converged: return "converged";
    case NewtonStatus::MaxIterations: return "max-iterations";
    case NewtonStatus::LineSearchFailed: return "line-search-failed";
    case NewtonStatus::SingularJacobian: return "singular-jacobian";
  }
  return "unknown";
}

void finite_difference_jacobian(ResidualFn residual, std::span<const double> u,
                                std::span<const double> f_of_u, double epsilon,
                                util::Matrix& jac, FdBuffers& buffers, int* eval_count) {
  const std::size_t n = u.size();
  std::vector<double>& up = buffers.points;
  std::vector<double>& fp = buffers.values;
  up.assign(u.begin(), u.end());
  fp.resize(n);
  for (std::size_t c = 0; c < n; ++c) {
    // Scale the step with the variable's magnitude for well-conditioned
    // differences over wide state ranges (wealth can be O(10), taxes O(0.1)).
    const double h = epsilon * std::max(1.0, std::fabs(u[c]));
    const double saved = up[c];
    up[c] = saved + h;
    const double actual_h = up[c] - saved;  // exact representable step
    residual(up, fp);
    if (eval_count != nullptr) ++(*eval_count);
    for (std::size_t r = 0; r < n; ++r) jac(r, c) = (fp[r] - f_of_u[r]) / actual_h;
    up[c] = saved;
  }
}

double jacobian_deviation(const util::Matrix& analytic, const util::Matrix& reference) {
  if (analytic.rows() != reference.rows() || analytic.cols() != reference.cols())
    throw std::invalid_argument("jacobian_deviation: shape mismatch");
  double worst = 0.0;
  for (std::size_t c = 0; c < reference.cols(); ++c) {
    double dev = 0.0, scale = 0.0;
    for (std::size_t r = 0; r < reference.rows(); ++r) {
      dev = std::max(dev, std::fabs(analytic(r, c) - reference(r, c)));
      scale = std::max(scale, std::fabs(reference(r, c)));
    }
    worst = std::max(worst, dev / (1.0 + scale));
  }
  return worst;
}

namespace {

// A full Newton step on the full system that shrinks ||F||_inf to at most
// this fraction keeps its LU factors for the next iteration (a chord step);
// any slower contraction refreshes the Jacobian (Kelley's Shamanskii rule).
constexpr double kChordContraction = 0.1;

void clip_to_box(std::vector<double>& u, const NewtonOptions& options) {
  if (!options.lower.empty())
    for (std::size_t t = 0; t < u.size(); ++t) u[t] = std::max(u[t], options.lower[t]);
  if (!options.upper.empty())
    for (std::size_t t = 0; t < u.size(); ++t) u[t] = std::min(u[t], options.upper[t]);
}

double merit(std::span<const double> f) {
  double s = 0.0;
  for (const double v : f) s += v * v;
  return 0.5 * s;
}

double inf_norm(std::span<const double> v) {
  double m = 0.0;
  for (const double x : v) m = std::max(m, std::fabs(x));
  return m;
}

/// Merit over free residual components only: pinned (active-set) components
/// cannot be driven to zero and must not poison the line search.
double merit_free(std::span<const double> f, const std::vector<bool>& active) {
  double s = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i)
    if (!active[i]) s += f[i] * f[i];
  return 0.5 * s;
}

double inf_norm_free(std::span<const double> f, const std::vector<bool>& active) {
  double m = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i)
    if (!active[i]) m = std::max(m, std::fabs(f[i]));
  return m;
}

}  // namespace

NewtonResult solve_newton(ResidualFn residual, std::span<const double> initial,
                          const NewtonOptions& options, NewtonWorkspace& ws,
                          JacobianFn jacobian) {
  const std::size_t n = initial.size();
  if (n == 0) throw std::invalid_argument("solve_newton: empty system");
  if (!options.lower.empty() && options.lower.size() != n)
    throw std::invalid_argument("solve_newton: lower bound size mismatch");
  if (!options.upper.empty() && options.upper.size() != n)
    throw std::invalid_argument("solve_newton: upper bound size mismatch");
  const bool bounded = !options.lower.empty() || !options.upper.empty();

  NewtonResult result;
  std::vector<double>& u = ws.u;
  std::vector<double>& f = ws.f;
  std::vector<double>& u_trial = ws.u_trial;
  std::vector<double>& f_trial = ws.f_trial;
  std::vector<double>& du = ws.du;
  std::vector<bool>& active = ws.active;
  util::Matrix& jac = ws.jac;
  u.assign(initial.begin(), initial.end());
  clip_to_box(u, options);
  f.resize(n);
  f_trial.resize(n);
  u_trial.resize(n);
  du.resize(n);
  ws.u_kink.resize(n);
  active.assign(n, false);
  jac.resize(n, n);
  std::fill(jac.data(), jac.data() + n * n, 0.0);

  auto at_lower = [&](std::size_t i) {
    return !options.lower.empty() && u[i] <= options.lower[i] + 1e-14 * (1.0 + std::fabs(options.lower[i]));
  };
  auto at_upper = [&](std::size_t i) {
    return !options.upper.empty() && u[i] >= options.upper[i] - 1e-14 * (1.0 + std::fabs(options.upper[i]));
  };

  residual(u, f);
  ++result.residual_evaluations;
  double fnorm = inf_norm(f);
  double m0 = merit(f);

  // One Newton iteration: take the Newton direction for F(u) from the
  // Jacobian's LU factors, run the active-set pass and the Armijo line
  // search from u. The factors are refreshed at u (Fresh), refreshed at
  // ws.u_kink (Kink), or kept from the last iteration (Chord). Stopped means
  // result.status is final. An accepted attempt sets full_step when it took
  // lambda = 1 with no variable pinned, so ws.lu still holds the full
  // Jacobian's factors.
  enum class Linearize { Fresh, Kink, Chord };
  enum class Attempt { Accepted, LineSearchFailed, Stopped };
  bool full_step = false;
  const auto attempt = [&](Linearize linearize) {
    // Rebuild and factorize the Jacobian: closed-form columns when the
    // caller supplies them, a forward-difference sweep (n residual
    // evaluations, plus F at the retry's point) otherwise.
    if (linearize != Linearize::Chord) {
      const bool kink_retry = linearize == Linearize::Kink;
      const std::span<const double> lin = kink_retry ? ws.u_kink : u;
      if (jacobian) {
        jacobian(lin, jac);
      } else {
        if (kink_retry) {
          residual(lin, f_trial);
          ++result.residual_evaluations;
        }
        finite_difference_jacobian(residual, lin, kink_retry ? f_trial : f, options.fd_epsilon,
                                   jac, ws.fd, &result.residual_evaluations);
      }
      if (!ws.lu.factor(jac)) {
        result.status = NewtonStatus::SingularJacobian;
        return Attempt::Stopped;
      }
      ++result.jacobian_factorizations;
    }

    // Newton direction du = -J^{-1} F on the full system.
    ws.lu.solve(f, du);
    for (double& v : du) v = -v;

    // Active-set pass (bounded problems): variables sitting on a bound with
    // an outward-pointing step are pinned; the reduced system over the free
    // variables is re-solved with the pinned columns/rows removed.
    std::fill(active.begin(), active.end(), false);
    bool any_active = false;
    if (bounded) {
      for (std::size_t i = 0; i < n; ++i) {
        if ((at_lower(i) && du[i] < 0.0) || (at_upper(i) && du[i] > 0.0)) {
          active[i] = true;
          any_active = true;
        }
      }
      if (any_active) {
        std::vector<std::size_t>& free_idx = ws.free_idx;
        free_idx.clear();
        for (std::size_t i = 0; i < n; ++i)
          if (!active[i]) free_idx.push_back(i);
        std::fill(du.begin(), du.end(), 0.0);
        if (!free_idx.empty()) {
          const std::size_t m = free_idx.size();
          ws.reduced.resize(m, m);
          ws.f_red.resize(m);
          ws.du_red.resize(m);
          for (std::size_t r = 0; r < m; ++r) {
            ws.f_red[r] = f[free_idx[r]];
            for (std::size_t c = 0; c < m; ++c) ws.reduced(r, c) = jac(free_idx[r], free_idx[c]);
          }
          if (!ws.lu.factor(ws.reduced)) {
            result.status = NewtonStatus::SingularJacobian;
            return Attempt::Stopped;
          }
          ws.lu.solve(ws.f_red, ws.du_red);
          for (std::size_t r = 0; r < m; ++r) du[free_idx[r]] = -ws.du_red[r];
        } else {
          // Every variable pinned: the KKT point is the current corner.
          result.status = NewtonStatus::Converged;
          return Attempt::Stopped;
        }
        m0 = merit_free(f, active);
        fnorm = inf_norm_free(f, active);
        if (fnorm <= options.tolerance) {
          result.status = NewtonStatus::Converged;
          return Attempt::Stopped;
        }
      }
    }

    if (inf_norm(du) <= options.step_tolerance) {
      // No representable progress left; accept if the residual is small-ish.
      result.status = fnorm <= std::sqrt(options.tolerance) ? NewtonStatus::Converged
                                                            : NewtonStatus::LineSearchFailed;
      return Attempt::Stopped;
    }

    // Armijo backtracking on the (free-component) merit 0.5||F||^2. For
    // Newton directions the expected decrease is the full merit, so the
    // acceptance test uses m0 itself.
    double lambda = 1.0;
    for (int bt = 0; bt < options.max_backtracks; ++bt) {
      for (std::size_t t = 0; t < n; ++t) u_trial[t] = u[t] + lambda * du[t];
      clip_to_box(u_trial, options);
      residual(u_trial, f_trial);
      ++result.residual_evaluations;
      const double m_trial = merit_free(f_trial, active);
      if (m_trial <= (1.0 - 2.0 * options.armijo_c * lambda) * m0 || m_trial < m0 * 1e-8) {
        full_step = bt == 0 && !any_active;
        return Attempt::Accepted;
      }
      lambda *= 0.5;
      if (lambda < options.min_damping) break;
    }
    return Attempt::LineSearchFailed;
  };

  bool chord = false;  // this iteration keeps the last iteration's factors
  for (int it = 0; it < options.max_iterations; ++it) {
    result.iterations = it;
    if (fnorm <= options.tolerance) {
      result.status = NewtonStatus::Converged;
      break;
    }

    const double fnorm_at_u = fnorm;
    Attempt outcome = attempt(chord ? Linearize::Chord : Linearize::Fresh);
    if (chord && outcome == Attempt::LineSearchFailed) {
      // The kept factors no longer give a descent direction: refresh at u
      // and retry the iteration before anything else.
      fnorm = inf_norm(f);
      m0 = merit(f);
      outcome = attempt(Linearize::Fresh);
    }
    if (outcome == Attempt::LineSearchFailed) {
      // Kink retry: at a kink of F (a policy clamped at its domain face)
      // the Jacobian at u is one side's derivative, and the direction it
      // gives may not descend on the side it points into. Re-linearize once
      // at u + min_damping * du, on that side, and retry the iteration.
      for (std::size_t t = 0; t < n; ++t) ws.u_kink[t] = u[t] + options.min_damping * du[t];
      clip_to_box(ws.u_kink, options);
      fnorm = inf_norm(f);
      m0 = merit(f);
      outcome = attempt(Linearize::Kink);
    }
    if (outcome == Attempt::Stopped) break;
    if (outcome == Attempt::LineSearchFailed) {
      result.status = NewtonStatus::LineSearchFailed;
      break;
    }

    u.swap(u_trial);
    f.swap(f_trial);
    fnorm = inf_norm(f);
    m0 = merit(f);
    chord = full_step && fnorm <= kChordContraction * fnorm_at_u;
    result.iterations = it + 1;
  }

  if (result.status == NewtonStatus::MaxIterations && fnorm <= options.tolerance)
    result.status = NewtonStatus::Converged;
  result.solution = u;
  result.residual = f;
  result.residual_norm = fnorm;
  return result;
}

}  // namespace hddm::solver
