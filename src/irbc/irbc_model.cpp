#include "irbc/irbc_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hddm::irbc {

namespace {

sg::BoxDomain build_domain(const IrbcCalibration& cal) {
  const int d = cal.countries;
  std::vector<double> lo(static_cast<std::size_t>(d), 1.0 - cal.box_half_width);
  std::vector<double> hi(static_cast<std::size_t>(d), 1.0 + cal.box_half_width);
  return sg::BoxDomain(std::move(lo), std::move(hi));
}

// Floor applied to trial next-period capital before it enters g = k''/k',
// k'^(theta-1) and the adjustment-cost ratio: Armijo trial steps (and
// callers solving without the box) can push a component to or below zero,
// where those terms are Inf/NaN and poison the line search's merit. Far
// below the solve box's lower bound (0.2), so feasible iterates are
// untouched bit-for-bit.
constexpr double kTrialCapitalFloor = 1e-6;

}  // namespace

IrbcModel::IrbcModel(IrbcCalibration cal)
    : cal_(cal), prefs_(cal.gamma, 1e-4), domain_(build_domain(cal)) {
  if (cal_.countries < 1) throw std::invalid_argument("IrbcModel: need at least one country");
  if (cal_.beta <= 0.0 || cal_.beta >= 1.0)
    throw std::invalid_argument("IrbcModel: beta must be in (0,1)");
  if (cal_.theta <= 0.0 || cal_.theta >= 1.0)
    throw std::invalid_argument("IrbcModel: theta must be in (0,1)");

  // Normalize TFP so the deterministic steady state is k = 1:
  //   theta A k^(theta-1) + 1 - delta = 1/beta  at k = 1.
  tfp_scale_ = (1.0 / cal_.beta - 1.0 + cal_.delta) / cal_.theta;

  // Shock states: sign patterns over min(countries, max_shock_bits) bits;
  // countries beyond the bit budget share the last bit (a "regional" shock).
  const int bits = std::min(cal_.countries, std::max(1, cal_.max_shock_bits));
  const auto nstates = static_cast<std::size_t>(1) << bits;
  state_signs_.resize(nstates);
  for (std::size_t z = 0; z < nstates; ++z) state_signs_[z] = static_cast<int>(z);
  chain_ = olg::MarkovChain::persistent_uniform(nstates, cal_.shock_persistence);
}

double IrbcModel::productivity(int z, int country) const {
  const int bits = std::min(cal_.countries, std::max(1, cal_.max_shock_bits));
  const int bit = std::min(country, bits - 1);
  const bool positive = (state_signs_[static_cast<std::size_t>(z)] >> bit) & 1;
  return 1.0 + (positive ? cal_.sigma : -cal_.sigma);
}

double IrbcModel::consumption(int z, std::span<const double> k,
                              std::span<const double> k_next) const {
  const int N = cal_.countries;
  double resources = 0.0;
  for (int j = 0; j < N; ++j) {
    const double kj = k[static_cast<std::size_t>(j)];
    const double kn = k_next[static_cast<std::size_t>(j)];
    const double ratio = kn / kj - 1.0;
    resources += productivity(z, j) * tfp_scale_ * std::pow(kj, cal_.theta) +
                 (1.0 - cal_.delta) * kj - kn - 0.5 * cal_.phi * kj * ratio * ratio;
  }
  return resources / static_cast<double>(N);
}

void IrbcModel::euler_residuals(int z, std::span<const double> k, std::span<const double> k_next,
                                const core::PolicyEvaluator& p_next, std::span<double> out,
                                int* interp_count) const {
  thread_local ResidualScratch scratch;
  core::EvalCounters counters;
  euler_residuals_batch(z, k, k_next, 1, p_next, out, scratch, &counters);
  if (interp_count != nullptr) *interp_count += counters.interpolations;
}

void IrbcModel::euler_residuals_batch(int z, std::span<const double> k,
                                      std::span<const double> k_next_block, std::size_t ncols,
                                      const core::PolicyEvaluator& p_next,
                                      std::span<double> out_block, ResidualScratch& scratch,
                                      core::EvalCounters* counters) const {
  const int N = cal_.countries;
  const int Ns = num_shocks();
  const auto sN = static_cast<std::size_t>(N);
  if (k_next_block.size() < ncols * sN || out_block.size() < ncols * sN)
    throw std::invalid_argument("euler_residuals_batch: block size mismatch");
  const auto pi = chain_.row(static_cast<std::size_t>(z));

  // Guarded copies of the trial iterates; their unit-cube images feed the
  // gather (to_unit clamps to the box, so flooring changes nothing there
  // either for feasible points).
  scratch.k_next.assign(k_next_block.begin(), k_next_block.begin() + static_cast<std::ptrdiff_t>(ncols * sN));
  for (double& kn : scratch.k_next) kn = std::max(kn, kTrialCapitalFloor);
  scratch.x_unit = scratch.k_next;
  for (std::size_t col = 0; col < ncols; ++col)
    domain_.to_unit_inplace(std::span<double>(scratch.x_unit).subspan(col * sN, sN));

  // One gather for every (successor shock with mass) x (trial column) pair:
  // grouped by shock so AsgPolicy's per-shock buckets are already contiguous.
  // Row slot*ncols + col of `gathered` is shock slot's policy at column col.
  scratch.requests.clear();
  for (int zp = 0; zp < Ns; ++zp) {
    if (pi[static_cast<std::size_t>(zp)] == 0.0) continue;
    for (std::size_t col = 0; col < ncols; ++col)
      scratch.requests.push_back({zp, static_cast<std::uint32_t>(col)});
  }
  scratch.gathered.resize(scratch.requests.size() * sN);
  p_next.evaluate_gather(scratch.requests, scratch.x_unit, ncols, scratch.gathered, sN);
  if (counters != nullptr) {
    counters->interpolations += static_cast<int>(scratch.requests.size());
    ++counters->gathers;
  }

  scratch.expected.assign(ncols * sN, 0.0);
  std::size_t slot = 0;
  for (int zp = 0; zp < Ns; ++zp) {
    const double prob = pi[static_cast<std::size_t>(zp)];
    if (prob == 0.0) continue;
    for (std::size_t col = 0; col < ncols; ++col) {
      const std::span<const double> kc(scratch.k_next.data() + col * sN, sN);
      const std::span<const double> dofs(scratch.gathered.data() + (slot * ncols + col) * sN, sN);
      double* expected = scratch.expected.data() + col * sN;

      const double c_tomorrow = consumption(zp, kc, dofs);
      const double mu_tomorrow = prefs_.marginal_utility(std::max(c_tomorrow, 1e-6));
      for (int j = 0; j < N; ++j) {
        const double kn = kc[static_cast<std::size_t>(j)];
        const double g = dofs[static_cast<std::size_t>(j)] / kn;
        const double gross_return = productivity(zp, j) * tfp_scale_ * cal_.theta *
                                        std::pow(kn, cal_.theta - 1.0) +
                                    1.0 - cal_.delta + 0.5 * cal_.phi * (g * g - 1.0);
        expected[j] += prob * mu_tomorrow * gross_return;
      }
    }
    ++slot;
  }

  for (std::size_t col = 0; col < ncols; ++col) {
    const std::span<const double> kc(scratch.k_next.data() + col * sN, sN);
    const double c_today = consumption(z, k, kc);
    const double mu_today = prefs_.marginal_utility(std::max(c_today, 1e-6));
    for (int j = 0; j < N; ++j) {
      const double marginal_cost =
          mu_today *
          (1.0 + cal_.phi * (kc[static_cast<std::size_t>(j)] / k[static_cast<std::size_t>(j)] -
                             1.0));
      // Unit-free: 1 - beta E[...] / marginal cost; identical roots, O(1)
      // scale regardless of the consumption level.
      out_block[col * sN + static_cast<std::size_t>(j)] =
          1.0 - cal_.beta * scratch.expected[col * sN + static_cast<std::size_t>(j)] / marginal_cost;
    }
  }
}

void IrbcModel::euler_jacobian(int z, std::span<const double> k, std::span<const double> k_next,
                               const core::PolicyEvaluator& p_next, util::Matrix& jac,
                               ResidualScratch& scratch, core::EvalCounters* counters) const {
  const int N = cal_.countries;
  const int Ns = num_shocks();
  const auto sN = static_cast<std::size_t>(N);
  if (k_next.size() < sN) throw std::invalid_argument("euler_jacobian: trial point too short");
  const auto pi = chain_.row(static_cast<std::size_t>(z));
  const double theta = cal_.theta;
  const double phi = cal_.phi;

  // Mirror the residual's guards: the floored trial copy, and the floor /
  // unit-cube-clamp gates that zero a component's derivative exactly where a
  // forward difference would see a constant.
  scratch.k_next.assign(k_next.begin(), k_next.begin() + N);
  scratch.gate.resize(sN);
  scratch.chain_w.resize(sN);
  scratch.x_unit.resize(sN);
  scratch.pow_t1.resize(sN);
  scratch.pow_t2.resize(sN);
  const std::vector<double>& lo = domain_.lower();
  const std::vector<double>& hi = domain_.upper();
  for (std::size_t i = 0; i < sN; ++i) {
    scratch.gate[i] = scratch.k_next[i] > kTrialCapitalFloor ? 1.0 : 0.0;
    scratch.k_next[i] = std::max(scratch.k_next[i], kTrialCapitalFloor);
    const double kc = scratch.k_next[i];
    // Same arithmetic as BoxDomain::to_unit, but keeping the pre-clamp value
    // so the clamp gate is exact: a clamped coordinate contributes no policy
    // gradient (right-sided at the lower face, matching forward FD).
    const double v = (kc - lo[i]) / (hi[i] - lo[i]);
    scratch.x_unit[i] = v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v);
    const double inside = (v >= 0.0 && v < 1.0) ? 1.0 : 0.0;
    scratch.chain_w[i] = scratch.gate[i] * inside / (hi[i] - lo[i]);
    scratch.pow_t1[i] = std::pow(kc, theta - 1.0);
    scratch.pow_t2[i] = std::pow(kc, theta - 2.0);
  }

  // One gather-with-gradient for all successor shocks with mass — the
  // analytic replacement for the FD sweep's N-column gather.
  scratch.requests.clear();
  for (int zp = 0; zp < Ns; ++zp)
    if (pi[static_cast<std::size_t>(zp)] != 0.0)
      scratch.requests.push_back({zp, 0});
  scratch.gathered.resize(scratch.requests.size() * sN);
  scratch.gathered_grad.resize(scratch.requests.size() * sN * sN);
  p_next.evaluate_gather_with_gradient(scratch.requests, scratch.x_unit, 1, scratch.gathered,
                                       sN, scratch.gathered_grad, sN * sN);
  if (counters != nullptr) {
    counters->interpolations += static_cast<int>(scratch.requests.size());
    ++counters->gathers;
  }

  // Accumulate E_j = sum_zp pi mu(c') R_j and its partials dE_j/du_i.
  scratch.e_acc.assign(sN, 0.0);
  scratch.de_acc.assign(sN * sN, 0.0);
  scratch.dc_next.resize(sN);
  const std::span<const double> kc(scratch.k_next.data(), sN);
  for (std::size_t slot = 0; slot < scratch.requests.size(); ++slot) {
    const int zp = scratch.requests[slot].z;
    const double prob = pi[static_cast<std::size_t>(zp)];
    const double* dofs = scratch.gathered.data() + slot * sN;
    const double* G = scratch.gathered_grad.data() + slot * sN * sN;  // G[m*N + t]

    const double c_tomorrow = consumption(zp, kc, {dofs, sN});
    const double mu_t = prefs_.marginal_utility(std::max(c_tomorrow, 1e-6));
    const double dmu_t =
        c_tomorrow > 1e-6 ? prefs_.marginal_utility_derivative(c_tomorrow) : 0.0;

    // dc'/du_i: the direct capital terms plus every policy coefficient's
    // chain-rule contribution dp_m/du_i = G[m][i] * chain_w[i].
    for (std::size_t i = 0; i < sN; ++i) {
      const double g_i = dofs[i] / scratch.k_next[i];
      const double direct = productivity(zp, static_cast<int>(i)) * tfp_scale_ * theta *
                                scratch.pow_t1[i] +
                            (1.0 - cal_.delta) - 0.5 * phi * (g_i - 1.0) * (g_i - 1.0) +
                            phi * (g_i - 1.0) * g_i;
      double via_policy = 0.0;
      for (std::size_t m = 0; m < sN; ++m) {
        const double g_m = dofs[m] / scratch.k_next[m];
        via_policy += -(1.0 + phi * (g_m - 1.0)) * G[m * sN + i];
      }
      scratch.dc_next[i] =
          (scratch.gate[i] * direct + via_policy * scratch.chain_w[i]) / static_cast<double>(N);
    }

    for (std::size_t j = 0; j < sN; ++j) {
      const double g_j = dofs[j] / scratch.k_next[j];
      const double R_j = productivity(zp, static_cast<int>(j)) * tfp_scale_ * theta *
                             scratch.pow_t1[j] +
                         1.0 - cal_.delta + 0.5 * phi * (g_j * g_j - 1.0);
      scratch.e_acc[j] += prob * mu_t * R_j;
      for (std::size_t i = 0; i < sN; ++i) {
        double dg = G[j * sN + i] * scratch.chain_w[i] / scratch.k_next[j];
        double dR = phi * g_j * dg;
        if (i == j) {
          dR += scratch.gate[j] * (productivity(zp, static_cast<int>(j)) * tfp_scale_ * theta *
                                       (theta - 1.0) * scratch.pow_t2[j] -
                                   phi * g_j * g_j / scratch.k_next[j]);
        }
        scratch.de_acc[j * sN + i] += prob * (dmu_t * scratch.dc_next[i] * R_j + mu_t * dR);
      }
    }
  }

  // Today's side: marginal cost M_j = mu(c_0) (1 + phi (k'_j/k_j - 1)) and
  // the quotient rule on r_j = 1 - beta E_j / M_j.
  const double c_today = consumption(z, k, kc);
  const double mu_0 = prefs_.marginal_utility(std::max(c_today, 1e-6));
  const double dmu_0 = c_today > 1e-6 ? prefs_.marginal_utility_derivative(c_today) : 0.0;
  scratch.dc_today.resize(sN);
  for (std::size_t i = 0; i < sN; ++i)
    scratch.dc_today[i] = scratch.gate[i] *
                          (-1.0 - phi * (scratch.k_next[i] / k[i] - 1.0)) /
                          static_cast<double>(N);
  for (std::size_t j = 0; j < sN; ++j) {
    const double adj_j = 1.0 + phi * (scratch.k_next[j] / k[j] - 1.0);
    const double M_j = mu_0 * adj_j;
    for (std::size_t i = 0; i < sN; ++i) {
      double dM = dmu_0 * scratch.dc_today[i] * adj_j;
      if (i == j) dM += mu_0 * phi * scratch.gate[j] / k[j];
      jac(j, i) = -cal_.beta * (scratch.de_acc[j * sN + i] * M_j - scratch.e_acc[j] * dM) /
                  (M_j * M_j);
    }
  }
}

std::vector<double> IrbcModel::initial_policy(int z, std::span<const double> x_unit) const {
  (void)z;
  // k' = k: the identity policy is the steady-state fixed point and an
  // excellent warm start anywhere in the +/-20% box.
  return domain_.to_physical(x_unit);
}

solver::NewtonOptions IrbcModel::newton_options() const {
  solver::NewtonOptions newton;
  newton.max_iterations = 80;
  newton.tolerance = 1e-10;
  // Keep iterates in a generous positive region (adjustment costs blow up
  // long before these bind in practice).
  newton.lower.assign(static_cast<std::size_t>(cal_.countries), 0.2);
  newton.upper.assign(static_cast<std::size_t>(cal_.countries), 3.0);
  return newton;
}

core::PointSolveResult IrbcModel::solve_point(int z, std::span<const double> x_unit,
                                              const core::PolicyEvaluator& p_next,
                                              std::span<const double> warm_start) const {
  const int N = cal_.countries;
  const std::vector<double> k = domain_.to_physical(x_unit);

  core::PointSolveResult result;
  core::EvalCounters counters;
  ResidualScratch scratch;  // one per solve, recycled by every evaluation
  const solver::ResidualFn residual = [this, z, &k, &p_next, &counters, &scratch](
                                          std::span<const double> u, std::span<double> out) {
    euler_residuals_batch(z, k, u, 1, p_next, out, scratch, &counters);
  };
  // Closed-form columns via euler_jacobian: one gather-with-gradient per
  // refresh instead of an N-column finite-difference sweep.
  const solver::JacobianFn analytic = [this, z, &k, &p_next, &counters, &scratch](
                                          std::span<const double> u, util::Matrix& jac) {
    euler_jacobian(z, k, u, p_next, jac, scratch, &counters);
  };

  const std::vector<double> guess(warm_start.begin(), warm_start.begin() + N);
  const solver::NewtonResult nres = solve_newton(residual, guess, newton_options(), &analytic);

  result.status = nres.status;
  result.jacobian_refreshes = nres.jacobian_factorizations;
  result.converged = nres.converged();
  result.solver_iterations = nres.iterations;
  result.residual_norm = nres.residual_norm;
  result.dofs = nres.solution;
  result.interpolations = counters.interpolations;
  result.gathers = counters.gathers;
  return result;
}

double IrbcModel::equilibrium_residual(int z, std::span<const double> x_unit,
                                       const core::PolicyEvaluator& p) const {
  const int N = cal_.countries;
  const std::vector<double> k = domain_.to_physical(x_unit);
  std::vector<double> k_next(static_cast<std::size_t>(N));
  p.evaluate(z, x_unit, k_next);
  for (double& v : k_next) v = std::clamp(v, 0.2, 3.0);

  std::vector<double> res(static_cast<std::size_t>(N));
  euler_residuals(z, k, k_next, p, res, nullptr);
  double worst = 0.0;
  for (const double r : res) worst = std::max(worst, std::fabs(r));
  return worst;
}

}  // namespace hddm::irbc
