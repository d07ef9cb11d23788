#include "olg/simulate.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace hddm::olg {

SimulationResult simulate_economy(const OlgModel& model, const core::PolicyEvaluator& policy,
                                  const SimulationOptions& options) {
  const OlgEconomy& econ = model.economy();
  const int A = econ.ages();
  const int d = model.state_dim();
  util::Rng rng(options.seed);

  SimulationResult out;
  out.shock_path.reserve(static_cast<std::size_t>(options.periods));
  out.capital_path.reserve(static_cast<std::size_t>(options.periods));

  // Start from the deterministic steady state's wealth distribution and the
  // middle shock.
  const SteadyState& ss = model.steady_state();
  std::vector<double> x(static_cast<std::size_t>(d));
  x[0] = ss.capital;
  for (int a = 2; a <= A - 1; ++a) x[static_cast<std::size_t>(a - 1)] = ss.assets[a - 1];
  std::size_t z = econ.num_shocks() / 2;

  std::vector<double> dofs(static_cast<std::size_t>(model.ndofs()));
  std::size_t clamped_periods = 0;

  for (int t = 0; t < options.periods; ++t) {
    const std::vector<double> x_unit = model.domain().to_unit(x);

    // Record the period.
    const auto decoded = model.decode_state(x);
    const ShockState& shock = econ.shocks[z];
    const FactorPrices prices =
        model.technology().prices(decoded.capital, econ.total_labor, shock.eta, shock.delta);
    out.shock_path.push_back(z);
    out.capital_path.push_back(decoded.capital);
    out.output_path.push_back(prices.output);
    out.wage_path.push_back(prices.wage);
    out.rate_path.push_back(prices.rate);
    if (t >= options.burn_in) {
      out.capital.add(decoded.capital);
      out.output.add(prices.output);
      if (options.measure_euler_errors)
        out.euler_error.add(model.equilibrium_residual(static_cast<int>(z), x_unit, policy));
    }

    // Roll the distribution forward with the interpolated asset demands,
    // clamped into the per-point feasibility box (consumption floor and
    // borrowing limit); count the periods whose next state left the box.
    policy.evaluate(static_cast<int>(z), x_unit, dofs);
    std::vector<double> x_next(static_cast<std::size_t>(d));
    clamped_periods += model.roll_forward(static_cast<int>(z), x, dofs, x_next);

    x = std::move(x_next);
    z = econ.chain.step(z, rng);
  }

  out.box_clamp_fraction =
      static_cast<double>(clamped_periods) / std::max(1, options.periods);
  return out;
}

}  // namespace hddm::olg
