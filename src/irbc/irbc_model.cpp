#include "irbc/irbc_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/point_solve.hpp"

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

  // Shock states: sign patterns over min(countries, max_shock_bits) bits
  // (state z's pattern is z itself); countries beyond the bit budget share
  // the last bit (a "regional" shock).
  const int bits = std::min(cal_.countries, std::max(1, cal_.max_shock_bits));
  const auto nstates = static_cast<std::size_t>(1) << bits;
  chain_ = olg::MarkovChain::persistent_uniform(nstates, cal_.shock_persistence);

  const auto sN = static_cast<std::size_t>(cal_.countries);
  scaled_tfp_.resize(nstates * sN);
  for (std::size_t z = 0; z < nstates; ++z)
    for (std::size_t j = 0; j < sN; ++j)
      scaled_tfp_[z * sN + j] =
          productivity(static_cast<int>(z), static_cast<int>(j)) * tfp_scale_;
  // Keep iterates in a generous positive region (adjustment costs blow up
  // long before these bind in practice).
  box_lower_.assign(sN, 0.2);
  box_upper_.assign(sN, 3.0);
}

double IrbcModel::productivity(int z, int country) const {
  const int bits = std::min(cal_.countries, std::max(1, cal_.max_shock_bits));
  const int bit = std::min(country, bits - 1);
  const bool positive = (z >> bit) & 1;  // state z's sign pattern is its bits
  return 1.0 + (positive ? cal_.sigma : -cal_.sigma);
}

double IrbcModel::consumption(int z, std::span<const double> k,
                              std::span<const double> k_next) const {
  std::vector<double> k_theta(k.size());
  for (std::size_t j = 0; j < k.size(); ++j) k_theta[j] = std::pow(k[j], cal_.theta);
  return consumption(z, k, k_theta, k_next);
}

double IrbcModel::consumption(int z, std::span<const double> k, std::span<const double> k_theta,
                              std::span<const double> k_next) const {
  const int N = cal_.countries;
  const double* tfp = scaled_tfp_.data() + static_cast<std::size_t>(z * N);
  double resources = 0.0;
  for (int j = 0; j < N; ++j) {
    const auto sj = static_cast<std::size_t>(j);
    const double kj = k[sj];
    const double kn = k_next[sj];
    const double ratio = kn / kj - 1.0;
    resources += tfp[sj] * k_theta[sj] + (1.0 - cal_.delta) * kj - kn -
                 0.5 * cal_.phi * kj * ratio * ratio;
  }
  return resources / static_cast<double>(N);
}

solver::NewtonOptions IrbcModel::newton_options() const {
  solver::NewtonOptions newton;
  newton.max_iterations = 80;
  newton.tolerance = 1e-10;
  newton.lower = box_lower_;
  newton.upper = box_upper_;
  return newton;
}

solver::NewtonOptions IrbcModel::prepare(int z, std::span<const double> x_unit,
                                         PointScratch& scratch) const {
  scratch.z = z;
  scratch.k.resize(unknowns());
  domain_.to_physical(x_unit, scratch.k);
  scratch.k_theta.resize(unknowns());
  for (std::size_t j = 0; j < unknowns(); ++j)
    scratch.k_theta[j] = std::pow(scratch.k[j], cal_.theta);
  return newton_options();
}

void IrbcModel::euler_residuals(PointScratch& scratch, std::span<const double> k_next,
                                const core::PolicyEvaluator& p_next, std::span<double> out,
                                core::EvalCounters* counters) const {
  const int N = cal_.countries;
  const auto sN = static_cast<std::size_t>(N);
  if (k_next.size() < sN || out.size() < sN)
    throw std::invalid_argument("euler_residuals: size mismatch");
  const int z = scratch.z;
  const std::span<const double> k = scratch.k;
  const auto pi = chain_.row(static_cast<std::size_t>(z));
  const double theta = cal_.theta;

  // Guarded copy of the trial iterate and its shock-independent powers; its
  // unit-cube image feeds the gather (to_unit clamps to the box, so
  // flooring changes nothing there either for feasible points).
  scratch.k_next.assign(k_next.begin(), k_next.begin() + N);
  scratch.kn_theta.resize(sN);
  scratch.kn_theta1.resize(sN);
  for (std::size_t i = 0; i < sN; ++i) {
    const double kn = std::max(scratch.k_next[i], kTrialCapitalFloor);
    scratch.k_next[i] = kn;
    scratch.kn_theta[i] = std::pow(kn, theta);
    scratch.kn_theta1[i] = std::pow(kn, theta - 1.0);
  }
  scratch.x_unit = scratch.k_next;
  domain_.to_unit_inplace(scratch.x_unit);

  // One gather for every successor shock with mass.
  core::successor_requests(pi, scratch.requests);
  scratch.gathered.resize(scratch.requests.size() * sN);
  p_next.gather({.requests = scratch.requests,
                 .xs = scratch.x_unit,
                 .npoints = 1,
                 .dof_begin = 0,
                 .dof_end = N,
                 .values = scratch.gathered,
                 .value_stride = sN});
  if (counters != nullptr) counters->record_gather(scratch.requests.size());

  const std::span<const double> kc = scratch.k_next;
  scratch.expected.assign(sN, 0.0);
  for (std::size_t slot = 0; slot < scratch.requests.size(); ++slot) {
    const int zp = scratch.requests[slot].z;
    const double prob = pi[static_cast<std::size_t>(zp)];
    const double* tfp = scaled_tfp_.data() + static_cast<std::size_t>(zp) * sN;
    const std::span<const double> dofs(scratch.gathered.data() + slot * sN, sN);

    const double c_tomorrow = consumption(zp, kc, scratch.kn_theta, dofs);
    const double mu_tomorrow = prefs_.marginal_utility(std::max(c_tomorrow, 1e-6));
    for (std::size_t j = 0; j < sN; ++j) {
      const double g = dofs[j] / kc[j];
      const double gross_return = tfp[j] * theta * scratch.kn_theta1[j] + 1.0 - cal_.delta +
                                  0.5 * cal_.phi * (g * g - 1.0);
      scratch.expected[j] += prob * mu_tomorrow * gross_return;
    }
  }

  const double c_today = consumption(z, k, scratch.k_theta, kc);
  const double mu_today = prefs_.marginal_utility(std::max(c_today, 1e-6));
  for (std::size_t j = 0; j < sN; ++j) {
    const double marginal_cost = mu_today * (1.0 + cal_.phi * (kc[j] / k[j] - 1.0));
    // Unit-free: 1 - beta E[...] / marginal cost; identical roots, O(1)
    // scale regardless of the consumption level.
    out[j] = 1.0 - cal_.beta * scratch.expected[j] / marginal_cost;
  }
}

void IrbcModel::euler_jacobian(PointScratch& scratch, std::span<const double> k_next,
                               const core::PolicyEvaluator& p_next, util::Matrix& jac,
                               core::EvalCounters* counters) const {
  const int N = cal_.countries;
  const auto sN = static_cast<std::size_t>(N);
  if (k_next.size() < sN) throw std::invalid_argument("euler_jacobian: trial point too short");
  const int z = scratch.z;
  const std::span<const double> k = scratch.k;
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
  scratch.kn_theta.resize(sN);
  scratch.kn_theta1.resize(sN);
  scratch.kn_theta2.resize(sN);
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
    scratch.kn_theta[i] = std::pow(kc, theta);
    scratch.kn_theta1[i] = std::pow(kc, theta - 1.0);
    scratch.kn_theta2[i] = std::pow(kc, theta - 2.0);
  }

  // One gather-with-gradient for all successor shocks with mass — the
  // analytic replacement for the FD sweep's N gathers.
  core::successor_requests(pi, scratch.requests);
  scratch.gathered.resize(scratch.requests.size() * sN);
  scratch.gathered_grad.resize(scratch.requests.size() * sN * sN);
  p_next.gather({.requests = scratch.requests,
                 .xs = scratch.x_unit,
                 .npoints = 1,
                 .dof_begin = 0,
                 .dof_end = N,
                 .values = scratch.gathered,
                 .value_stride = sN,
                 .grads = scratch.gathered_grad,
                 .grad_stride = sN * sN});
  if (counters != nullptr) counters->record_gather(scratch.requests.size());

  // Accumulate E_j = sum_zp pi mu(c') R_j and its partials dE_j/du_i.
  scratch.e_acc.assign(sN, 0.0);
  scratch.de_acc.assign(sN * sN, 0.0);
  scratch.dc_next.resize(sN);
  const std::span<const double> kc(scratch.k_next.data(), sN);
  for (std::size_t slot = 0; slot < scratch.requests.size(); ++slot) {
    const int zp = scratch.requests[slot].z;
    const double prob = pi[static_cast<std::size_t>(zp)];
    const double* tfp = scaled_tfp_.data() + static_cast<std::size_t>(zp) * sN;
    const double* dofs = scratch.gathered.data() + slot * sN;
    const double* G = scratch.gathered_grad.data() + slot * sN * sN;  // G[m*N + t]

    const double c_tomorrow = consumption(zp, kc, scratch.kn_theta, {dofs, sN});
    const double mu_t = prefs_.marginal_utility(std::max(c_tomorrow, 1e-6));
    const double dmu_t =
        c_tomorrow > 1e-6 ? prefs_.marginal_utility_derivative(c_tomorrow) : 0.0;

    // dc'/du_i: the direct capital terms plus every policy coefficient's
    // chain-rule contribution dp_m/du_i = G[m][i] * chain_w[i].
    for (std::size_t i = 0; i < sN; ++i) {
      const double g_i = dofs[i] / scratch.k_next[i];
      const double direct = tfp[i] * theta * scratch.kn_theta1[i] + (1.0 - cal_.delta) -
                            0.5 * phi * (g_i - 1.0) * (g_i - 1.0) + phi * (g_i - 1.0) * g_i;
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
      const double R_j =
          tfp[j] * theta * scratch.kn_theta1[j] + 1.0 - cal_.delta + 0.5 * phi * (g_j * g_j - 1.0);
      scratch.e_acc[j] += prob * mu_t * R_j;
      for (std::size_t i = 0; i < sN; ++i) {
        double dg = G[j * sN + i] * scratch.chain_w[i] / scratch.k_next[j];
        double dR = phi * g_j * dg;
        if (i == j) {
          dR += scratch.gate[j] * (tfp[j] * theta * (theta - 1.0) * scratch.kn_theta2[j] -
                                   phi * g_j * g_j / scratch.k_next[j]);
        }
        scratch.de_acc[j * sN + i] += prob * (dmu_t * scratch.dc_next[i] * R_j + mu_t * dR);
      }
    }
  }

  // Today's side: marginal cost M_j = mu(c_0) (1 + phi (k'_j/k_j - 1)) and
  // the quotient rule on r_j = 1 - beta E_j / M_j.
  const double c_today = consumption(z, k, scratch.k_theta, kc);
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

core::PointSolveResult IrbcModel::solve_point(int z, std::span<const double> x_unit,
                                              const core::PolicyEvaluator& p_next,
                                              std::span<const double> warm_start) const {
  return core::solve_point(*this, z, x_unit, p_next, warm_start);
}

double IrbcModel::equilibrium_residual(int z, std::span<const double> x_unit,
                                       const core::PolicyEvaluator& p) const {
  PointScratch scratch;
  (void)prepare(z, x_unit, scratch);
  std::vector<double> k_next(unknowns());
  p.evaluate(z, x_unit, k_next);
  for (double& v : k_next) v = std::clamp(v, 0.2, 3.0);

  std::vector<double> res(unknowns());
  euler_residuals(scratch, k_next, p, res);
  double worst = 0.0;
  for (const double r : res) worst = std::max(worst, std::fabs(r));
  return worst;
}

}  // namespace hddm::irbc
