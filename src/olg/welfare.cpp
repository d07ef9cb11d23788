#include "olg/welfare.hpp"

#include <cmath>
#include <stdexcept>

#include "olg/simulate.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace hddm::olg {

std::vector<double> value_by_age(const OlgModel& model, const core::PolicyEvaluator& policy,
                                 int z, std::span<const double> x_unit) {
  const int d = model.state_dim();
  std::vector<double> dofs(static_cast<std::size_t>(model.ndofs()));
  policy.evaluate(z, x_unit, dofs);
  // Stored coefficients are certainty-equivalent transformed; report raw
  // (unnormalized-utility) value levels.
  std::vector<double> v(dofs.begin() + d, dofs.end());
  for (double& vi : v) vi = model.preferences().value_untransform(vi);
  return v;
}

double newborn_welfare(const OlgModel& model, const core::PolicyEvaluator& policy,
                       const WelfareOptions& options) {
  const OlgEconomy& econ = model.economy();
  const int d = model.state_dim();
  util::Rng rng(options.seed);

  // Walk the ergodic set exactly like simulate_economy and average v_1.
  const SteadyState& ss = model.steady_state();
  std::vector<double> x(static_cast<std::size_t>(d));
  x[0] = ss.capital;
  for (int a = 2; a <= d; ++a) x[static_cast<std::size_t>(a - 1)] = ss.assets[a - 1];
  std::size_t z = econ.num_shocks() / 2;

  util::RunningStats welfare;
  std::vector<double> dofs(static_cast<std::size_t>(model.ndofs()));
  for (int t = 0; t < options.simulation_periods; ++t) {
    const std::vector<double> x_unit = model.domain().to_unit(x);
    policy.evaluate(static_cast<int>(z), x_unit, dofs);
    if (t >= options.burn_in)
      welfare.add(model.preferences().value_untransform(
          dofs[static_cast<std::size_t>(d)]));  // v_1: first value coefficient

    // Roll forward (clamped policy step, as in simulate_economy).
    std::vector<double> x_new(static_cast<std::size_t>(d));
    model.roll_forward(static_cast<int>(z), x, dofs, x_new);
    x = std::move(x_new);
    z = econ.chain.step(z, rng);
  }
  return welfare.mean();
}

double consumption_equivalent_variation(double welfare_a, double welfare_b, double gamma,
                                        double beta, int ages) {
  if (ages < 1) throw std::invalid_argument("CEV: need at least one period");
  if (gamma == 1.0) {
    // Log utility: W_B - W_A = S ln(1 + lambda) with S the discounted mass.
    double S = 0.0, b = 1.0;
    for (int t = 0; t < ages; ++t) {
      S += b;
      b *= beta;
    }
    return std::exp((welfare_b - welfare_a) / S) - 1.0;
  }
  // Unnormalized CRRA (u = c^(1-gamma)/(1-gamma)): scaling consumption by
  // (1+lambda) scales lifetime welfare by (1+lambda)^(1-gamma), hence
  // 1 + lambda = (W_B / W_A)^(1/(1-gamma)). Both welfare levels must share
  // the sign of 1/(1-gamma)'s base — always true for genuine lifetime
  // utilities (strictly negative when gamma > 1, positive when gamma < 1).
  if (welfare_a * welfare_b <= 0.0 || (gamma > 1.0) != (welfare_a < 0.0))
    throw std::invalid_argument("CEV: welfare levels incompatible with CRRA form");
  return std::pow(welfare_b / welfare_a, 1.0 / (1.0 - gamma)) - 1.0;
}

}  // namespace hddm::olg
