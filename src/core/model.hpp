// Abstract interfaces between the time-iteration driver and an economic
// model — the generic structure of Sec. II-A.
//
// A model exposes: a mixed state space (Ns discrete shocks x a continuous
// box B mapped to [0,1]^d), a per-point equilibrium system solved given the
// previous iteration's policy, and the policy arity ndofs (the OLG model's
// 2d asset-demand + value-function coefficients). The driver owns the ASGs;
// the model only ever sees a PolicyEvaluator, so any interpolation backend
// (reference, compressed kernels, hybrid CPU/device dispatch) can serve as
// p_next.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "solver/newton.hpp"
#include "sparse_grid/domain.hpp"

namespace hddm::core {

/// One element of a gathered policy evaluation: evaluate shock `z`'s policy
/// at row `point` of the request block's coordinate buffer. Several requests
/// may reference the same row (the Newton-internal pattern: every successor
/// shock of a trial point interpolates at the same next-period state).
struct GatherRequest {
  std::int32_t z = 0;      ///< discrete shock whose policy to evaluate
  std::uint32_t point = 0;  ///< row into xs (npoints rows of state_dim)
};

/// The models' gather pattern: one request per successor shock with
/// pi[zp] != 0, in shock order, all at row 0 (the one trial point).
inline void successor_requests(std::span<const double> pi, std::vector<GatherRequest>& requests) {
  requests.clear();
  for (std::size_t zp = 0; zp < pi.size(); ++zp)
    if (pi[zp] != 0.0) requests.push_back({static_cast<std::int32_t>(zp), 0});
}

/// One gathered policy evaluation, values and optionally gradients: request
/// i interpolates shock requests[i].z at row requests[i].point of `xs`
/// (`npoints` rows of the state dimension; requests may repeat rows) and
/// writes dofs [dof_begin, dof_end) of
///   values[i*value_stride + dof]                  and, when grads is non-empty,
///   grads[i*grad_stride + dof*d + t] = d p_dof / d x_t  (dof-major, t < d).
/// Outputs of dofs outside the range are unspecified: an evaluator may leave
/// them or fill whole rows (routes that cannot honor a range do). Strides
/// stay those of the full rows: value_stride >= ndofs, grad_stride >=
/// ndofs * d. Each dof's sum is independent, so a range changes no bit of
/// the dofs it computes.
struct GatherQuery {
  std::span<const GatherRequest> requests;
  std::span<const double> xs;
  std::size_t npoints = 0;
  int dof_begin = 0;
  int dof_end = 0;
  std::span<double> values;
  std::size_t value_stride = 0;
  std::span<double> grads{};  ///< empty: a value gather
  std::size_t grad_stride = 0;
};

/// Counters a model's residual machinery reports out of one point solve.
struct EvalCounters {
  int interpolations = 0;  ///< policy point-evaluations consumed
  int gathers = 0;         ///< PolicyEvaluator::gather calls issued
  /// Records one gather carrying `requests` interpolations.
  void record_gather(std::size_t requests) {
    interpolations += static_cast<int>(requests);
    ++gathers;
  }
};

/// Read-side view of a policy p = (p(z=1,.), ..., p(z=Ns,.)): evaluates all
/// ndofs coefficients of shock z's policy at a unit-cube point. Must be
/// thread-safe; called from many workers at once.
class PolicyEvaluator {
 public:
  virtual ~PolicyEvaluator() = default;
  [[nodiscard]] virtual int num_shocks() const = 0;
  [[nodiscard]] virtual int ndofs() const = 0;
  /// out[0..ndofs) = p(z, x); x has the model's state dimension.
  virtual void evaluate(int z, std::span<const double> x_unit, std::span<double> out) const = 0;

  /// Batched form: xs holds npoints rows of the state dimension, out npoints
  /// rows of ndofs. The time-iteration drivers collect each level's warm
  /// start interpolations and evaluate them through this entry point en
  /// bloc, so backends with per-call launch cost (the device-offload
  /// pipeline behind AsgPolicy) can amortize it. The default loops over
  /// evaluate() and is what analytic evaluators keep.
  virtual void evaluate_batch(int z, std::span<const double> xs, std::span<double> out,
                              std::size_t npoints) const {
    if (npoints == 0) return;
    const std::size_t d = xs.size() / npoints;
    const std::size_t nd = out.size() / npoints;
    for (std::size_t k = 0; k < npoints; ++k)
      evaluate(z, xs.subspan(k * d, d), out.subspan(k * nd, nd));
  }

  /// Gathered evaluation across shocks — the per-solve entry point of the
  /// interpolation amortization: a Newton residual collects every
  /// successor-shock request it needs and issues them in one call. Request
  /// i fills out[i*out_stride .. i*out_stride + ndofs); `xs` holds `npoints` rows of
  /// the state dimension and requests may repeat rows. `out_stride` must be
  /// >= ndofs.
  ///
  /// Contract: results are bit-identical to looping evaluate() over the
  /// requests when both resolve to the same kernel — always true without an
  /// attached device; with one, chunks the saturated device refuses fall
  /// back to the CPU kernel exactly as evaluate_batch does (numerically
  /// equivalent, same caveat as the batch contract). The default loops
  /// evaluate(); AsgPolicy serves it as a full-range gather().
  virtual void evaluate_gather(std::span<const GatherRequest> requests,
                               std::span<const double> xs, std::size_t npoints,
                               std::span<double> out, std::size_t out_stride) const {
    if (requests.empty() || npoints == 0) return;
    const std::size_t d = xs.size() / npoints;
    const auto nd = static_cast<std::size_t>(ndofs());
    for (std::size_t i = 0; i < requests.size(); ++i)
      evaluate(requests[i].z, xs.subspan(requests[i].point * d, d),
               out.subspan(i * out_stride, nd));
  }

  /// Gathered value + policy-gradient evaluation — the entry point of the
  /// analytic Euler Jacobians: one call per Jacobian refresh replaces the
  /// n-column finite-difference sweep's n x Ns interpolation requests.
  /// Request i fills values[i*value_stride .. +ndofs) exactly like
  /// evaluate_gather, plus grads[i*grad_stride .. +ndofs*d) with the
  /// row-major (dof-major) partials d p_dof / d x_t of shock z's policy
  /// w.r.t. the unit-cube coordinates. `value_stride >= ndofs`,
  /// `grad_stride >= ndofs * d`.
  ///
  /// Contract (see DESIGN.md, "Jacobian pipeline"): AsgPolicy's override
  /// computes values on the compressed-format chain walk — bit-identical to
  /// the x86 kernel's evaluate(), ULP-equal (not bit-equal) to the other
  /// kernels — and gradients as the exact a.e. derivative of the piecewise-
  /// multilinear interpolant (subgradient midpoint at basis kinks). This default
  /// serves evaluators without analytic gradients: values loop evaluate()
  /// (bit-identical to evaluate_gather), gradients are one-sided finite
  /// differences of evaluate() with step `kDefaultGradientStep` — an
  /// approximation, adequate for tests and non-ASG backends only.
  virtual void evaluate_gather_with_gradient(std::span<const GatherRequest> requests,
                                             std::span<const double> xs, std::size_t npoints,
                                             std::span<double> values, std::size_t value_stride,
                                             std::span<double> grads,
                                             std::size_t grad_stride) const {
    if (requests.empty() || npoints == 0) return;
    const std::size_t d = xs.size() / npoints;
    const auto nd = static_cast<std::size_t>(ndofs());
    std::vector<double> xp(d), vp(nd);
    for (std::size_t i = 0; i < requests.size(); ++i) {
      const std::span<const double> x = xs.subspan(requests[i].point * d, d);
      const std::span<double> value = values.subspan(i * value_stride, nd);
      evaluate(requests[i].z, x, value);
      double* grad = grads.data() + i * grad_stride;
      for (std::size_t t = 0; t < d; ++t) {
        // One-sided difference kept inside the unit cube (backward at the
        // upper face so the perturbed point stays evaluable).
        std::copy(x.begin(), x.end(), xp.begin());
        const double h = x[t] + kDefaultGradientStep <= 1.0 ? kDefaultGradientStep
                                                            : -kDefaultGradientStep;
        xp[t] = x[t] + h;
        evaluate(requests[i].z, xp, vp);
        for (std::size_t dof = 0; dof < nd; ++dof)
          grad[dof * d + t] = (vp[dof] - value[dof]) / h;
      }
    }
  }

  /// The models' gather entry point (see GatherQuery). The default forwards
  /// to evaluate_gather, or to evaluate_gather_with_gradient when the query
  /// carries gradients, and computes every dof; so a decorator that
  /// overrides only those two still sees every gather a point solve issues.
  /// AsgPolicy overrides it to compute only the range on its chain walks.
  /// The two old entry points stay virtual only until the benchmark's
  /// TracedPolicy decorates this one.
  virtual void gather(const GatherQuery& q) const {
    if (q.grads.empty())
      evaluate_gather(q.requests, q.xs, q.npoints, q.values, q.value_stride);
    else
      evaluate_gather_with_gradient(q.requests, q.xs, q.npoints, q.values, q.value_stride,
                                    q.grads, q.grad_stride);
  }

  /// Finite-difference step of the default evaluate_gather_with_gradient.
  static constexpr double kDefaultGradientStep = 1e-6;
};

/// Result of one grid-point equilibrium solve.
struct PointSolveResult {
  std::vector<double> dofs;  ///< the ndofs policy coefficients at the point
  bool converged = false;
  /// Terminal state of the point's Newton solve. It says why a solve with
  /// converged == false failed; a model may still accept a non-Converged
  /// status as converged (OLG's KKT-projected residual at box corners).
  solver::NewtonStatus status = solver::NewtonStatus::MaxIterations;
  int solver_iterations = 0;
  double residual_norm = 0.0;
  int interpolations = 0;  ///< p_next point-evaluations consumed (the 99% cost)
  int gathers = 0;         ///< gather calls that carried them
  /// Jacobian refreshes of the point's Newton solve
  /// (solver::NewtonResult::jacobian_factorizations).
  int jacobian_refreshes = 0;
};

/// A dynamic stochastic model solvable by time iteration (Algorithm 1).
class DynamicModel {
 public:
  virtual ~DynamicModel() = default;

  [[nodiscard]] virtual int state_dim() const = 0;   ///< d
  [[nodiscard]] virtual int num_shocks() const = 0;  ///< Ns
  [[nodiscard]] virtual int ndofs() const = 0;       ///< policy arity per point
  [[nodiscard]] virtual const sg::BoxDomain& domain() const = 0;

  /// Number of *leading* dofs that drive adaptive refinement indicators and
  /// the convergence metric. Defaults to all dofs; the OLG model restricts
  /// both to the asset-demand coefficients — value functions are derived
  /// objects whose extreme magnitudes at infeasible box corners would
  /// otherwise dominate g(alpha) and the policy-change norms.
  [[nodiscard]] virtual int indicator_dofs() const { return ndofs(); }

  /// Analytic warm-start policy for iteration 0.
  [[nodiscard]] virtual std::vector<double> initial_policy(int z,
                                                           std::span<const double> x_unit) const = 0;

  /// Solves the equilibrium conditions (Eq. 3) at one grid point of shock z,
  /// taking the previous iteration's policy as given. `warm_start` is the
  /// previous policy at this very point (size ndofs) — the natural Newton
  /// initial guess.
  [[nodiscard]] virtual PointSolveResult solve_point(int z, std::span<const double> x_unit,
                                                     const PolicyEvaluator& p_next,
                                                     std::span<const double> warm_start) const = 0;

  /// Sup-norm-normalized equilibrium residual at an arbitrary point under
  /// policy `p` (used for the Fig. 9 error metrics). Returns a scalar norm
  /// over the model's equilibrium equations.
  [[nodiscard]] virtual double equilibrium_residual(int z, std::span<const double> x_unit,
                                                    const PolicyEvaluator& p) const = 0;
};

}  // namespace hddm::core
