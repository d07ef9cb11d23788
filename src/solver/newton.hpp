// Damped Newton solver for square nonlinear systems F(u) = 0.
//
// This is the per-grid-point equilibrium solver — the role Ipopt plays in
// the paper (~60 smooth equations in 60 unknowns per point). A globalized
// Newton iteration with Armijo backtracking on the merit function
// 0.5 ||F||^2 is the standard choice for smooth Euler systems; optional box
// clipping keeps iterates inside economically meaningful ranges.
//
// There is one entry point, solve_newton. It refreshes the Jacobian
// through the caller's JacobianFn when one is given (the models'
// closed-form Euler-system columns) and through a forward finite-difference
// sweep of the residual when not — the inputs decide, not a mode switch.
// After a full step that cut ||F||_inf at least tenfold, the next iteration
// keeps the factored Jacobian (a chord step); every other iteration
// refreshes it. An iteration whose line search fails is retried once with
// the Jacobian taken just across a kink of F (see solve_newton).
// All buffers live in a caller-owned NewtonWorkspace, so a warmed-up solve
// allocates nothing. jacobian_deviation audits an analytic Jacobian against a finite-difference
// reference (see DESIGN.md, "Jacobian pipeline").
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "util/function_ref.hpp"
#include "util/linalg.hpp"

namespace hddm::solver {

// The callbacks are non-owning references (util::function_ref): bind them to
// named callables that outlive the call.

/// Residual callback: writes F(u) into `out` (both of size n).
using ResidualFn = util::function_ref<void(std::span<const double> u, std::span<double> out)>;
/// Optional analytic Jacobian callback: fills `jac` (n x n) with
/// dF_r/du_c at the trial point `u`.
using JacobianFn = util::function_ref<void(std::span<const double> u, util::Matrix& jac)>;

/// Tuning knobs of solve_newton: iteration/tolerance limits, the line
/// search, and the optional variable box.
struct NewtonOptions {
  int max_iterations = 60;            ///< Newton iteration cap
  double tolerance = 1e-9;            ///< on ||F||_inf (free components)
  double step_tolerance = 1e-13;      ///< on ||du||_inf (stagnation)
  double fd_epsilon = 1e-7;           ///< forward-difference step scale (no JacobianFn)
  double armijo_c = 1e-4;             ///< sufficient-decrease constant
  double min_damping = 1e-6;          ///< smallest accepted step fraction
  int max_backtracks = 30;            ///< line-search halvings before giving up
  /// Optional box (empty = unbounded), viewed, not owned: the bounds must
  /// outlive the solve. With bounds, the solver runs an active-set projected
  /// Newton: variables whose Newton step points outside a bound they sit on
  /// are pinned for the iteration, the reduced system is solved for the
  /// remaining variables, and the merit function covers free residual
  /// components only. Convergence means the *free* residuals vanish; pinned
  /// components are the caller's KKT conditions to check.
  std::span<const double> lower;
  std::span<const double> upper;
};

/// Terminal state of one solve_newton run.
enum class NewtonStatus {
  Converged,         ///< free residual components below tolerance
  MaxIterations,     ///< iteration cap reached before convergence
  LineSearchFailed,  ///< no damping factor achieved sufficient decrease
  SingularJacobian,  ///< LU factorization hit a vanishing pivot
};

/// Number of NewtonStatus values (for per-status counters indexed by them).
inline constexpr std::size_t kNewtonStatusCount = 4;

/// Short lower-case name ("converged", "max-iterations", ...).
std::string to_string(NewtonStatus status);

/// Buffers of a finite-difference Jacobian sweep: the perturbed trial point
/// and its residual.
struct FdBuffers {
  std::vector<double> points;
  std::vector<double> values;
};

/// Everything one solve_newton run writes besides its result: iterates,
/// residuals, the Jacobian and its LU factors, the active-set reduced
/// system, and the finite-difference buffers. Reused across solves (one per
/// executor thread in the point-solve harness), it allocates only while
/// growing to the largest system seen, so a warmed-up solve allocates
/// nothing.
struct NewtonWorkspace {
  std::vector<double> u, f, u_trial, f_trial, du;  ///< iterate, residual, trial, step
  std::vector<double> u_kink;                      ///< where the kink retry re-linearizes
  std::vector<bool> active;                        ///< variables pinned this iteration
  std::vector<std::size_t> free_idx;               ///< the others, in order
  std::vector<double> f_red, du_red;               ///< reduced system over free_idx
  util::Matrix jac, reduced;                       ///< Jacobian, its free block
  util::LuFactorization lu;                        ///< factors of jac or reduced
  FdBuffers fd;                                    ///< refreshes without a JacobianFn
};

/// Outcome of one solve_newton run: terminal status, the final iterate, and
/// the work counters the models roll up into their per-point results.
struct NewtonResult {
  NewtonStatus status = NewtonStatus::MaxIterations;  ///< terminal state
  /// Final iterate (the root when converged). A view into the workspace,
  /// valid until the workspace's next solve.
  std::span<const double> solution;
  /// F(solution) as the ResidualFn wrote it, bit for bit. A view into the
  /// workspace like `solution`.
  std::span<const double> residual;
  /// Final ||F||_inf (over the free components when variables are pinned).
  double residual_norm = 0.0;
  int iterations = 0;            ///< Newton iterations performed
  int residual_evaluations = 0;  ///< ResidualFn evaluations consumed
  /// Jacobian refreshes that were LU-factorized. Chord iterations refresh
  /// nothing, so this can be below `iterations`.
  int jacobian_factorizations = 0;
  /// True when status == NewtonStatus::Converged.
  [[nodiscard]] bool converged() const { return status == NewtonStatus::Converged; }
};

/// Solves F(u) = 0 starting from `initial`, in `workspace`. A refresh of
/// the Jacobian goes through `jacobian` when it is set (no residual
/// evaluations spent on it) and through the scalar
/// finite_difference_jacobian of `residual` with step scale
/// options.fd_epsilon otherwise (n residual evaluations per refresh).
///
/// Refresh rule (chord steps): an iteration whose line search accepted the
/// full step, pinned no variable, and cut ||F||_inf to at most 0.1 of its
/// value at the iteration's start leaves the next iteration the same LU
/// factors: no refresh, no factorization. Every other iteration refreshes
/// at u. A chord iteration whose line search fails is retried with a fresh
/// Jacobian at u first.
///
/// Kink retry: when a freshly linearized iteration's line search fails, the
/// iteration is retried once with the Jacobian refreshed at
/// u + min_damping * du (the side of a kink of F the failed direction points
/// into) instead of at u; only if that retry fails too does the solve stop
/// with LineSearchFailed. Solves whose line searches never fail are
/// untouched by it, bit for bit.
NewtonResult solve_newton(ResidualFn residual, std::span<const double> initial,
                          const NewtonOptions& options, NewtonWorkspace& workspace,
                          JacobianFn jacobian = {});

/// Forward finite-difference Jacobian: column c perturbs u_c by
/// epsilon * max(1, |u_c|) and differences against `f_of_u` = F(u).
/// `eval_count` (may be null) advances by n.
void finite_difference_jacobian(ResidualFn residual, std::span<const double> u,
                                std::span<const double> f_of_u, double epsilon,
                                util::Matrix& jac, FdBuffers& buffers,
                                int* eval_count = nullptr);

/// Worst column-scaled deviation of `analytic` from `reference` (both
/// n x n): the maximum over columns c of
///   max_r |analytic(r,c) - reference(r,c)| / (1 + max_r |reference(r,c)|).
/// With a finite-difference reference, values above ~1e-3 mean a wrong
/// derivative rather than FD truncation error on the models' O(1) unit-free
/// residuals (see DESIGN.md, "Jacobian pipeline"). Throws
/// std::invalid_argument when the shapes differ.
double jacobian_deviation(const util::Matrix& analytic, const util::Matrix& reference);

}  // namespace hddm::solver
