// The point-solve harness: the one implementation of "solve the equilibrium
// at one grid point" (the inner loop of Algorithm 1) that every model's
// DynamicModel::solve_point calls. A model describes its Euler system; core
// owns the scratch, the Newton workspace, the solve, the interpolation
// counters and the PointSolveResult (see DESIGN.md, "Point-solve harness").
#pragma once

#include <algorithm>
#include <any>
#include <cstddef>
#include <span>

#include "core/model.hpp"
#include "solver/newton.hpp"
#include "util/linalg.hpp"

namespace hddm::core {

/// The buffers of point solves on one executor thread.
struct PointWorkspace {
  solver::NewtonWorkspace newton;
  /// The current model's PointScratch, replaced only when another model
  /// type solves on the thread.
  std::any scratch;
};

/// The calling thread's workspace: the harness's one thread_local, because
/// the 4-argument DynamicModel::solve_point that decorators override cannot
/// carry one. A point solve must not start another on the same thread.
inline PointWorkspace& executor_workspace() {
  thread_local PointWorkspace workspace;
  return workspace;
}

/// Solves model `system`'s equilibrium at grid point (z, x_unit) from the
/// warm start (size ndofs). The model provides PointScratch, unknowns(),
/// prepare(), euler_residuals() and euler_jacobian(), and optionally
/// accept() and finish() (see DESIGN.md, "Point-solve harness").
template <class S>
PointSolveResult solve_point(const S& system, int z, std::span<const double> x_unit,
                             const PolicyEvaluator& p_next, std::span<const double> warm_start) {
  PointWorkspace& ws = executor_workspace();
  using Scratch = typename S::PointScratch;
  Scratch* cached = std::any_cast<Scratch>(&ws.scratch);
  Scratch& scratch = cached != nullptr ? *cached : ws.scratch.emplace<Scratch>();
  const solver::NewtonOptions options = system.prepare(z, x_unit, scratch);

  EvalCounters counters;
  const auto residual = [&](std::span<const double> u, std::span<double> out) {
    system.euler_residuals(scratch, u, p_next, out, &counters);
  };
  const auto jacobian = [&](std::span<const double> u, util::Matrix& jac) {
    system.euler_jacobian(scratch, u, p_next, jac, &counters);
  };
  const std::size_t n = system.unknowns();
  const solver::NewtonResult nres =
      solver::solve_newton(residual, warm_start.first(n), options, ws.newton, jacobian);

  PointSolveResult result;
  result.converged = nres.converged();
  result.status = nres.status;
  result.solver_iterations = nres.iterations;
  result.residual_norm = nres.residual_norm;
  result.jacobian_refreshes = nres.jacobian_factorizations;
  if constexpr (requires { system.accept(scratch, nres.solution, nres.residual, result); })
    system.accept(scratch, nres.solution, nres.residual, result);

  result.dofs.resize(static_cast<std::size_t>(system.ndofs()));  // the one allocation
  std::copy(nres.solution.begin(), nres.solution.end(), result.dofs.begin());
  if constexpr (requires { system.finish(scratch, nres.solution, p_next, std::span<double>{}); })
    system.finish(scratch, nres.solution, p_next, std::span<double>(result.dofs).subspan(n));
  result.interpolations = counters.interpolations;
  result.gathers = counters.gathers;
  return result;
}

}  // namespace hddm::core
