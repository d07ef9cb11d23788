#include "olg/olg_model.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "core/point_solve.hpp"

namespace hddm::olg {

namespace {

sg::BoxDomain build_domain(const OlgEconomy& econ, const SteadyState& ss,
                           const OlgModelOptions& opts) {
  const int d = econ.ages() - 1;
  std::vector<double> lo(static_cast<std::size_t>(d)), hi(static_cast<std::size_t>(d));

  lo[0] = ss.capital / (1.0 + opts.width_capital);
  hi[0] = ss.capital * (1.0 + opts.width_capital);

  double peak_assets = 0.0;
  for (const double a : ss.assets) peak_assets = std::max(peak_assets, a);
  peak_assets = std::max(peak_assets, 0.1 * ss.capital);
  const double borrow = opts.borrowing_wage_multiple * ss.prices.wage;

  for (int t = 1; t < d; ++t) {
    lo[t] = -borrow;
    hi[t] = opts.wealth_top_multiple * peak_assets;
  }
  return sg::BoxDomain(std::move(lo), std::move(hi));
}

}  // namespace

namespace {

double scale_aware_floor(const SteadyState& ss, double fraction) {
  double c_min = std::numeric_limits<double>::infinity();
  for (const double c : ss.consumption) c_min = std::min(c_min, c);
  return std::max(1e-8, fraction * c_min);
}

}  // namespace

OlgModel::OlgModel(OlgEconomy economy, OlgModelOptions options)
    : econ_(std::move(economy)),
      opts_(std::move(options)),
      tech_(econ_.cal.theta),
      steady_(solve_steady_state(econ_)),
      prefs_(econ_.cal.gamma, scale_aware_floor(steady_, opts_.consumption_floor_fraction)),
      domain_(build_domain(econ_, steady_, opts_)) {
  if (!steady_.converged)
    throw std::runtime_error("OlgModel: steady state did not converge — check calibration");
  capital_floor_ = 1e-3 * steady_.capital;

  // The value half of initial_policy, which no state changes: the
  // steady-state utility annuity of each age, stored in the
  // certainty-equivalent transform like all value coefficients.
  const int A = econ_.ages();
  initial_values_.resize(static_cast<std::size_t>(A - 1));
  for (int a = 1; a <= A - 1; ++a) {
    const double u = prefs_.utility_unnormalized(steady_.consumption[a - 1]);
    const int remaining = A - a + 1;
    double annuity = 0.0, b = 1.0;
    for (int k = 0; k < remaining; ++k) {
      annuity += b * u;
      b *= econ_.beta;
    }
    initial_values_[static_cast<std::size_t>(a - 1)] = prefs_.value_transform(annuity);
  }
}

OlgModel::DecodedState OlgModel::decode_state(std::span<const double> x_phys) const {
  DecodedState s;
  decode_state(x_phys, s);
  return s;
}

void OlgModel::decode_state(std::span<const double> x_phys, DecodedState& s) const {
  const int A = econ_.ages();
  if (static_cast<int>(x_phys.size()) != A - 1)
    throw std::invalid_argument("decode_state: dimension mismatch");
  s.capital = std::max(x_phys[0], capital_floor_);
  s.wealth.assign(static_cast<std::size_t>(A), 0.0);
  double middle = 0.0;
  for (int a = 2; a <= A - 1; ++a) {
    s.wealth[a - 1] = x_phys[a - 1];
    middle += x_phys[a - 1];
  }
  s.wealth[A - 1] = s.capital - middle;  // oldest generation holds the rest
}

void OlgModel::resources(int z, const DecodedState& s, std::span<double> out) const {
  const int A = econ_.ages();
  const ShockState& shock = econ_.shocks[static_cast<std::size_t>(z)];
  const FactorPrices p =
      tech_.prices(tech_.intensity(s.capital, econ_.total_labor), shock.eta, shock.delta);
  const double R = 1.0 + p.rate * (1.0 - shock.tau_capital);
  const double pen = econ_.pension(p.wage, shock.tau_labor);

  for (int a = 1; a <= A; ++a) {
    const double labor_inc = (1.0 - shock.tau_labor) * p.wage * econ_.efficiency[a - 1];
    const double pension_inc = econ_.is_retired(a) ? pen : 0.0;
    out[a - 1] = R * s.wealth[a - 1] + labor_inc + pension_inc;
  }
}

std::vector<double> OlgModel::consumption(int z, const DecodedState& s,
                                          std::span<const double> savings) const {
  std::vector<double> c(static_cast<std::size_t>(econ_.ages()));
  resources(z, s, c);
  for (std::size_t a = 0; a + 1 < c.size(); ++a) c[a] -= savings[a];
  return c;
}

void OlgModel::feasibility_box(std::span<const double> resources, std::span<double> lower,
                               std::span<double> upper) const {
  const double borrow = opts_.borrowing_wage_multiple * steady_.prices.wage;
  for (std::size_t a = 0; a < lower.size(); ++a) {
    lower[a] = -borrow;
    const double cap = resources[a] - prefs_.consumption_floor();
    upper[a] = std::max(cap, -borrow + 1e-12);
  }
}

bool OlgModel::roll_forward(int z, std::span<const double> x, std::span<double> dofs,
                            std::span<double> x_next) const {
  const std::size_t d = unknowns();
  std::vector<double> res(d + 1), lower(d), upper(d);
  resources(z, decode_state(x), res);
  feasibility_box(res, lower, upper);
  double k_next = 0.0;
  for (std::size_t a = 0; a < d; ++a) {
    dofs[a] = std::clamp(dofs[a], lower[a], upper[a]);
    k_next += dofs[a];
  }
  x_next[0] = k_next;
  for (std::size_t t = 1; t < d; ++t) x_next[t] = dofs[t - 1];

  bool clamped = false;
  const std::vector<double>& lo = domain_.lower();
  const std::vector<double>& hi = domain_.upper();
  for (std::size_t t = 0; t < d; ++t) {
    if (x_next[t] < lo[t] || x_next[t] > hi[t]) {
      clamped = true;
      x_next[t] = std::clamp(x_next[t], lo[t], hi[t]);
    }
  }
  return clamped;
}

double OlgModel::next_state(std::span<const double> savings, std::span<double> x_next) const {
  const int A = econ_.ages();
  const int d = A - 1;
  // Tomorrow's aggregate state is shock-independent (savings chosen today):
  // K' = sum_a k'_a; x' = (K', k'_1, ..., k'_{A-2}).
  double k_next = 0.0;
  for (int a = 1; a <= A - 1; ++a) k_next += savings[static_cast<std::size_t>(a - 1)];
  k_next = std::max(k_next, capital_floor_);
  x_next[0] = k_next;
  for (int t = 1; t < d; ++t) x_next[static_cast<std::size_t>(t)] = savings[static_cast<std::size_t>(t - 1)];
  return k_next;
}

OlgModel::SuccessorPrices OlgModel::successor_prices(
    int zp, const CobbDouglasTechnology::Intensity& intensity) const {
  const ShockState& shock = econ_.shocks[static_cast<std::size_t>(zp)];
  SuccessorPrices sp;
  sp.prices = tech_.prices(intensity, shock.eta, shock.delta);
  sp.pension = econ_.pension(sp.prices.wage, shock.tau_labor);
  return sp;
}

solver::NewtonOptions OlgModel::prepare(int z, std::span<const double> x_unit,
                                        PointScratch& scratch) const {
  const std::size_t d = unknowns();
  scratch.z = z;
  scratch.x_phys.resize(d);
  domain_.to_physical(x_unit, scratch.x_phys);
  decode_state(scratch.x_phys, scratch.state);
  scratch.resources.resize(d + 1);
  resources(z, scratch.state, scratch.resources);
  scratch.lower.resize(d);
  scratch.upper.resize(d);
  feasibility_box(scratch.resources, scratch.lower, scratch.upper);

  solver::NewtonOptions newton = opts_.newton;
  newton.lower = scratch.lower;
  newton.upper = scratch.upper;
  return newton;
}

void OlgModel::gather_successors(PointScratch& scratch, std::span<const double> savings,
                                 const core::PolicyEvaluator& p_next, int dof_begin,
                                 int dof_end) const {
  const std::size_t d = unknowns();
  const auto nd = static_cast<std::size_t>(ndofs());
  // Tomorrow's aggregate state K' = sum k'_a (shock-independent), unit-mapped
  // into the gather's coordinate row, and the capital-intensity powers every
  // successor shock's prices share.
  scratch.x_unit.resize(d);
  const double k_next = next_state(savings, scratch.x_unit);
  domain_.to_unit_inplace(scratch.x_unit);
  scratch.intensity = tech_.intensity(k_next, econ_.total_labor);
  // One gather for every successor shock with mass; row si of `gathered` is
  // the si-th such shock's policy, valid in dofs [dof_begin, dof_end).
  core::successor_requests(econ_.chain.row(static_cast<std::size_t>(scratch.z)),
                           scratch.requests);
  scratch.gathered.resize(scratch.requests.size() * nd);
  p_next.gather({.requests = scratch.requests,
                 .xs = scratch.x_unit,
                 .npoints = 1,
                 .dof_begin = dof_begin,
                 .dof_end = dof_end,
                 .values = scratch.gathered,
                 .value_stride = nd});
}

void OlgModel::euler_residuals(PointScratch& scratch, std::span<const double> savings,
                               const core::PolicyEvaluator& p_next, std::span<double> out,
                               core::EvalCounters* counters) const {
  const int A = econ_.ages();
  const int d = A - 1;
  const auto sd = static_cast<std::size_t>(d);
  const auto nd = static_cast<std::size_t>(ndofs());
  if (savings.size() < sd || out.size() < sd)
    throw std::invalid_argument("euler_residuals: size mismatch");

  // The residual reads tomorrow's asset demands of ages 2..d: dofs [1, d).
  gather_successors(scratch, savings, p_next, 1, d);
  if (counters != nullptr) counters->record_gather(scratch.requests.size());

  // Accumulate each age's expected discounted marginal utility tomorrow,
  // emu_a = sum over successors of pi R' u'(c'_{a+1}), shock by shock: a
  // successor's prices and pension depend only on K', so they are computed
  // once per shock.
  const auto pi = econ_.chain.row(static_cast<std::size_t>(scratch.z));
  std::vector<double>& emu = scratch.e_acc;
  emu.assign(sd, 0.0);
  for (std::size_t si = 0; si < scratch.requests.size(); ++si) {
    const int zp = scratch.requests[si].z;
    const double prob = pi[static_cast<std::size_t>(zp)];
    const ShockState& shock = econ_.shocks[static_cast<std::size_t>(zp)];
    const SuccessorPrices sp = successor_prices(zp, scratch.intensity);
    const double Rp = 1.0 + sp.prices.rate * (1.0 - shock.tau_capital);
    // Next-period savings of age a+1 come from the interpolated policy;
    // the oldest generation saves nothing.
    const double* dofs = scratch.gathered.data() + si * nd;
    for (int a = 1; a <= A - 1; ++a) {
      const int ap = a + 1;  // age tomorrow
      const double labor_inc =
          (1.0 - shock.tau_labor) * sp.prices.wage * econ_.efficiency[ap - 1];
      const double pension_inc = econ_.is_retired(ap) ? sp.pension : 0.0;
      const double k_tomorrow = (ap <= A - 1) ? dofs[ap - 1] : 0.0;
      const double c_tomorrow =
          Rp * savings[static_cast<std::size_t>(a - 1)] + labor_inc + pension_inc - k_tomorrow;
      emu[static_cast<std::size_t>(a - 1)] += prob * Rp * prefs_.marginal_utility(c_tomorrow);
    }
  }
  // The Euler equation u'(c_a) = beta E[...] expressed in consumption
  // units, c_a - (u')^{-1}(beta E[...]): a strictly monotone transform
  // with identical roots but uniform O(c) scaling across ages — marginal
  // utilities near the consumption floor are ~1e6 and would otherwise
  // wreck the Newton line search's merit function.
  for (std::size_t age = 0; age < sd; ++age) {
    const double c_today = scratch.resources[age] - savings[age];
    out[age] = c_today - prefs_.inverse_marginal(econ_.beta * emu[age]);
  }
}

void OlgModel::euler_jacobian(PointScratch& scratch, std::span<const double> savings,
                              const core::PolicyEvaluator& p_next, util::Matrix& jac,
                              core::EvalCounters* counters) const {
  const int A = econ_.ages();
  const int d = A - 1;
  const auto sd = static_cast<std::size_t>(d);
  const auto nd = static_cast<std::size_t>(ndofs());
  if (savings.size() < sd) throw std::invalid_argument("euler_jacobian: savings too short");

  // Tomorrow's aggregate state and the guard gates that zero derivatives
  // exactly where the residual is locally constant: the capital floor on
  // K' = sum_a u_a (every u_i moves K' when unfloored) and the unit-cube
  // clamps of the interpolation coordinates.
  double ksum = 0.0;
  for (std::size_t a = 0; a < sd; ++a) ksum += savings[a];
  const double gate_k = ksum > capital_floor_ ? 1.0 : 0.0;
  const double k_next = std::max(ksum, capital_floor_);
  const CobbDouglasTechnology::Intensity intensity = tech_.intensity(k_next, econ_.total_labor);

  scratch.x_unit.resize(sd);
  scratch.chain_w.resize(sd);
  const std::vector<double>& lo = domain_.lower();
  const std::vector<double>& hi = domain_.upper();
  for (std::size_t t = 0; t < sd; ++t) {
    const double xt = t == 0 ? k_next : savings[t - 1];
    const double v = (xt - lo[t]) / (hi[t] - lo[t]);
    scratch.x_unit[t] = v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v);
    const double inside = (v >= 0.0 && v < 1.0) ? 1.0 : 0.0;
    scratch.chain_w[t] = inside / (hi[t] - lo[t]);
  }

  // One gather-with-gradient for all successor shocks with mass, of the
  // asset demands the residual reads: dofs [1, d).
  const auto pi = econ_.chain.row(static_cast<std::size_t>(scratch.z));
  core::successor_requests(pi, scratch.requests);
  scratch.gathered.resize(scratch.requests.size() * nd);
  scratch.gathered_grad.resize(scratch.requests.size() * nd * sd);
  p_next.gather({.requests = scratch.requests,
                 .xs = scratch.x_unit,
                 .npoints = 1,
                 .dof_begin = 1,
                 .dof_end = d,
                 .values = scratch.gathered,
                 .value_stride = nd,
                 .grads = scratch.gathered_grad,
                 .grad_stride = nd * sd});
  if (counters != nullptr) counters->record_gather(scratch.requests.size());

  // Accumulate emu_a = sum_zp pi R' u'(c'_{a+1}) and its partials. All
  // price/pension movement runs through K' (price_gradients), savings enter
  // c' directly (R' u_a) and through the interpolated asset demands.
  scratch.e_acc.assign(sd, 0.0);
  scratch.de_acc.assign(sd * sd, 0.0);
  for (std::size_t slot = 0; slot < scratch.requests.size(); ++slot) {
    const int zp = scratch.requests[slot].z;
    const double prob = pi[static_cast<std::size_t>(zp)];
    const ShockState& shock = econ_.shocks[static_cast<std::size_t>(zp)];
    const SuccessorPrices sp = successor_prices(zp, intensity);
    const CobbDouglasTechnology::FactorPriceGradients pg =
        tech_.price_gradients(sp.prices, k_next, shock.delta);
    const double rp = 1.0 + sp.prices.rate * (1.0 - shock.tau_capital);
    const double drp_dk = (1.0 - shock.tau_capital) * pg.drate_dk;
    const double dpen_dk = econ_.retirees() > 0
                               ? shock.tau_labor * econ_.total_labor * pg.dwage_dk /
                                     static_cast<double>(econ_.retirees())
                               : 0.0;
    const double* dofs = scratch.gathered.data() + slot * nd;
    const double* grad = scratch.gathered_grad.data() + slot * nd * sd;  // grad[m*d + t]

    for (int a = 1; a <= d; ++a) {
      const int ap = a + 1;  // age tomorrow
      const double labor_inc = (1.0 - shock.tau_labor) * sp.prices.wage *
                               econ_.efficiency[static_cast<std::size_t>(ap - 1)];
      const double retired = econ_.is_retired(ap) ? 1.0 : 0.0;
      const double k_tomorrow = (ap <= d) ? dofs[ap - 1] : 0.0;
      const double c_tomorrow = rp * savings[static_cast<std::size_t>(a - 1)] + labor_inc +
                                retired * sp.pension - k_tomorrow;
      const double mu = prefs_.marginal_utility(c_tomorrow);
      const double dmu = prefs_.marginal_utility_derivative(c_tomorrow);
      scratch.e_acc[static_cast<std::size_t>(a - 1)] += prob * rp * mu;

      // Income movement through K' is identical for every u_i (dK'/du_i =
      // gate_k); the policy term adds G[ap-1][0] through K' plus the direct
      // coordinate G[ap-1][i+1] for i <= d-2.
      const double dinc_dk = gate_k * (drp_dk * savings[static_cast<std::size_t>(a - 1)] +
                                       (1.0 - shock.tau_labor) * pg.dwage_dk *
                                           econ_.efficiency[static_cast<std::size_t>(ap - 1)] +
                                       retired * dpen_dk);
      const double* grow = (ap <= d) ? grad + static_cast<std::size_t>(ap - 1) * sd : nullptr;
      const double dkhat_common = grow != nullptr ? grow[0] * scratch.chain_w[0] * gate_k : 0.0;
      double* de_row = scratch.de_acc.data() + static_cast<std::size_t>(a - 1) * sd;
      for (std::size_t i = 0; i < sd; ++i) {
        double dkhat = dkhat_common;
        if (grow != nullptr && i + 1 < sd) dkhat += grow[i + 1] * scratch.chain_w[i + 1];
        const double dc = dinc_dk + (i == static_cast<std::size_t>(a - 1) ? rp : 0.0) - dkhat;
        de_row[i] += prob * (gate_k * drp_dk * mu + rp * dmu * dc);
      }
    }
  }

  // r_a = c_a - (u')^{-1}(beta emu_a): today's consumption contributes the
  // -1 on the diagonal, the inverse-marginal chain rule the rest.
  for (int a = 1; a <= d; ++a) {
    const double dinv =
        econ_.beta *
        prefs_.inverse_marginal_derivative(econ_.beta * scratch.e_acc[static_cast<std::size_t>(a - 1)]);
    for (std::size_t i = 0; i < sd; ++i)
      jac(static_cast<std::size_t>(a - 1), i) =
          (i == static_cast<std::size_t>(a - 1) ? -1.0 : 0.0) -
          dinv * scratch.de_acc[static_cast<std::size_t>(a - 1) * sd + i];
  }
}

std::vector<double> OlgModel::initial_policy(int z, std::span<const double> x_unit) const {
  (void)z;
  const int d = state_dim();
  if (static_cast<int>(x_unit.size()) != d)
    throw std::invalid_argument("OlgModel::initial_policy: dimension mismatch");

  // Scale the steady-state savings profile by the state's wealth position:
  // agents holding more wealth than steady state save proportionally more.
  // Only aggregate capital is read: BoxDomain::to_physical's first
  // coordinate, floored as decode_state floors it.
  const double lo = domain_.lower()[0], hi = domain_.upper()[0];
  const double capital = std::max(lo + (hi - lo) * x_unit[0], capital_floor_);
  const double k_ratio = std::clamp(capital / steady_.capital, 0.25, 4.0);
  std::vector<double> dofs(static_cast<std::size_t>(2 * d));
  for (int a = 1; a <= d; ++a)
    dofs[static_cast<std::size_t>(a - 1)] = std::max(steady_.savings[a - 1] * k_ratio, 0.0);
  std::copy(initial_values_.begin(), initial_values_.end(), dofs.begin() + d);
  return dofs;
}

double OlgModel::projected_residual_norm(PointScratch& scratch, std::span<const double> savings,
                                         const core::PolicyEvaluator& p_next,
                                         core::EvalCounters* counters) const {
  scratch.residual.resize(unknowns());
  euler_residuals(scratch, savings, p_next, scratch.residual, counters);
  return kkt_projected_norm(scratch, savings, scratch.residual);
}

double OlgModel::kkt_projected_norm(const PointScratch& scratch, std::span<const double> savings,
                                    std::span<const double> residual) const {
  double worst = 0.0;
  for (std::size_t a = 0; a < unknowns(); ++a) {
    double r = residual[a];
    const double u = savings[a];
    const double span = std::max(1e-12, scratch.upper[a] - scratch.lower[a]);
    const double edge = std::max(1e-8 * span, 1e-10);
    // KKT signs for the consumption-unit residual r = c - c_implied:
    // r < 0 (consumes less than unconstrained-optimal, i.e. wants to borrow)
    // is admissible at the borrowing limit; r > 0 (wants to save beyond the
    // consumption floor's cap) is admissible at the upper bound.
    if (u <= scratch.lower[a] + edge && r < 0.0) r = 0.0;
    if (u >= scratch.upper[a] - edge && r > 0.0) r = 0.0;
    // Unit-free: error as a fraction of the age's consumption.
    const double c = scratch.resources[a] - savings[a];
    const double scale = std::max(c, prefs_.consumption_floor());
    worst = std::max(worst, std::fabs(r) / scale);
  }
  return worst;
}

void OlgModel::accept(const PointScratch& scratch, std::span<const double> savings,
                      std::span<const double> residual, core::PointSolveResult& result) const {
  const double projected = kkt_projected_norm(scratch, savings, residual);
  result.converged = result.converged || projected < 1e-6;
  result.residual_norm = std::min(result.residual_norm, projected);
}

void OlgModel::finish(PointScratch& scratch, std::span<const double> savings,
                      const core::PolicyEvaluator& p_next, std::span<double> values) const {
  const int A = econ_.ages();
  const int d = A - 1;
  const auto nd = static_cast<std::size_t>(ndofs());

  // Uncounted: the value recursion is not part of the solve. It reads the
  // value coefficients of ages 2..d: dofs [d+1, 2d).
  gather_successors(scratch, savings, p_next, d + 1, 2 * d);
  const CobbDouglasTechnology::Intensity& intensity = scratch.intensity;
  const auto pi = econ_.chain.row(static_cast<std::size_t>(scratch.z));

  // The value recursion runs on unnormalized CRRA utilities with a floored
  // argument, and the *stored* coefficients are the certainty-equivalent
  // transform V = T(v): bounded over the entire (partly infeasible) state
  // box, so value surpluses cannot pollute the interior of the grid — see
  // CrraPreferences::value_transform.
  for (int a = 1; a <= A - 1; ++a) {
    double ev = 0.0;
    for (std::size_t slot = 0; slot < scratch.requests.size(); ++slot) {
      const int zp = scratch.requests[slot].z;
      const double prob = pi[static_cast<std::size_t>(zp)];
      const int ap = a + 1;
      if (ap <= A - 1) {
        // Interpolated continuation value of age a+1 (stored transformed).
        const double* dofs = scratch.gathered.data() + slot * nd;
        ev += prob * prefs_.value_untransform(dofs[static_cast<std::size_t>(d + ap - 1)]);
      } else {
        // The oldest generation tomorrow consumes everything.
        const ShockState& shock = econ_.shocks[static_cast<std::size_t>(zp)];
        const SuccessorPrices sp = successor_prices(zp, intensity);
        const double Rp = 1.0 + sp.prices.rate * (1.0 - shock.tau_capital);
        const double c_last = Rp * savings[static_cast<std::size_t>(a - 1)] + sp.pension;
        ev += prob * prefs_.utility_unnormalized(c_last);
      }
    }
    const auto age = static_cast<std::size_t>(a - 1);
    const double c_today = scratch.resources[age] - savings[age];
    values[age] =
        prefs_.value_transform(prefs_.utility_unnormalized(c_today) + econ_.beta * ev);
  }
}

core::PointSolveResult OlgModel::solve_point(int z, std::span<const double> x_unit,
                                             const core::PolicyEvaluator& p_next,
                                             std::span<const double> warm_start) const {
  return core::solve_point(*this, z, x_unit, p_next, warm_start);
}

double OlgModel::equilibrium_residual(int z, std::span<const double> x_unit,
                                      const core::PolicyEvaluator& p) const {
  // Evaluate the policy itself at this point and compute the (unit-free,
  // KKT-projected) Euler residual it implies.
  PointScratch scratch;
  (void)prepare(z, x_unit, scratch);
  std::vector<double> dofs(static_cast<std::size_t>(ndofs()));
  p.evaluate(z, x_unit, dofs);
  std::vector<double> savings(unknowns());
  for (std::size_t a = 0; a < savings.size(); ++a)
    savings[a] = std::clamp(dofs[a], scratch.lower[a], scratch.upper[a]);
  return projected_residual_norm(scratch, savings, p, nullptr);
}

}  // namespace hddm::olg
