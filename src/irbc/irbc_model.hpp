// International Real Business Cycle (IRBC) model.
//
// The time-iteration + ASG machinery of this paper descends from the
// authors' IRBC solvers (Brumm & Scheidegger, Econometrica 2017 [17];
// Brumm, Mikushin, Scheidegger & Schenk, JoCS 2015 [18] — both cited in
// Sec. I). Implementing that model class against the same core::DynamicModel
// interface demonstrates that the driver, kernels, scheduler and cluster
// runtime are economy-agnostic: nothing outside this directory changes.
//
// Model (the standard smooth multi-country planner problem):
//   N countries, capital k_j (the continuous state, d = N), discrete
//   productivity state z mapping to per-country TFP a_j(z) = 1 +/- sigma
//   (sign pattern = bit j of z), persistent Markov switching.
//   Technology: y_j = a_j A k_j^theta, depreciation delta, quadratic capital
//   adjustment costs Gamma_j = (phi/2) k_j (k'_j/k_j - 1)^2.
//   Complete markets + symmetric CRRA preferences -> consumption equalized:
//   c = (1/N) Sum_j [ y_j + (1-delta) k_j - k'_j - Gamma_j ].
//   Planner Euler equation per country (unit-free form used as residual):
//     1 = beta E[ u'(c') ( a'_j theta A k'^(theta-1) + 1 - delta
//                          + (phi/2)((k''_j/k'_j)^2 - 1) ) ]
//         / ( u'(c) (1 + phi (k'_j/k_j - 1)) ).
//   A is normalized so the deterministic steady state is k_j = 1.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "core/model.hpp"
#include "olg/markov.hpp"
#include "olg/preferences.hpp"
#include "solver/newton.hpp"

namespace hddm::irbc {

struct IrbcCalibration {
  int countries = 4;       ///< N = d
  double beta = 0.99;
  double gamma = 2.0;      ///< CRRA curvature
  double theta = 0.36;     ///< capital share
  double delta = 0.025;
  double phi = 0.5;        ///< adjustment cost curvature
  double sigma = 0.02;     ///< TFP deviation of booms/busts
  double shock_persistence = 0.9;
  /// Number of discrete states = 2^min(countries, max_shock_bits): each
  /// state is a +/- sigma sign pattern over (the first) countries.
  int max_shock_bits = 4;
  /// Capital box half-width around the steady state (Brumm-Scheidegger use
  /// +/- 20%).
  double box_half_width = 0.2;
};

class IrbcModel final : public core::DynamicModel {
 public:
  explicit IrbcModel(IrbcCalibration cal = {});

  [[nodiscard]] int state_dim() const override { return cal_.countries; }
  [[nodiscard]] int num_shocks() const override { return static_cast<int>(chain_.size()); }
  [[nodiscard]] int ndofs() const override { return cal_.countries; }
  [[nodiscard]] const sg::BoxDomain& domain() const override { return domain_; }

  [[nodiscard]] std::vector<double> initial_policy(int z,
                                                   std::span<const double> x_unit) const override;
  [[nodiscard]] core::PointSolveResult solve_point(int z, std::span<const double> x_unit,
                                                   const core::PolicyEvaluator& p_next,
                                                   std::span<const double> warm_start) const override;
  [[nodiscard]] double equilibrium_residual(int z, std::span<const double> x_unit,
                                            const core::PolicyEvaluator& p) const override;

  // --- model accessors ----------------------------------------------------
  [[nodiscard]] const IrbcCalibration& calibration() const { return cal_; }
  /// The Newton settings solve_point solves with: iteration cap, residual
  /// tolerance and the capital box. Tests and benchmarks drive
  /// solver::solve_newton on the model's residual with exactly these.
  [[nodiscard]] solver::NewtonOptions newton_options() const;
  [[nodiscard]] const olg::MarkovChain& chain() const { return chain_; }
  /// Per-country TFP in discrete state z.
  [[nodiscard]] double productivity(int z, int country) const;
  [[nodiscard]] double tfp_scale() const { return tfp_scale_; }

  /// Equalized per-country consumption implied by states and choices.
  [[nodiscard]] double consumption(int z, std::span<const double> k,
                                   std::span<const double> k_next) const;

  // --- the Euler system core::solve_point drives -------------------------
  /// One grid point's state, derived once by prepare(), and the reusable
  /// buffers that keep a Newton solve's thousands of evaluations off the heap.
  struct PointScratch {
    int z = 0;                               ///< today's shock
    std::vector<double> k;                   ///< today's capital (N)
    std::vector<double> k_theta;             ///< k_j^theta (N)
    std::vector<double> k_next;              ///< N (guarded copy of the trial point)
    std::vector<double> kn_theta;            ///< k'^theta per trial component
    std::vector<double> kn_theta1;           ///< k'^(theta-1) per trial component
    std::vector<double> x_unit;              ///< N in [0,1]
    std::vector<core::GatherRequest> requests;
    std::vector<double> gathered;            ///< one N-row per request
    std::vector<double> expected;            ///< N
    // Analytic-Jacobian workspace (euler_jacobian only): policy gradients,
    // floor/clamp gates, k'^(theta-2) and the E / dE / dc accumulators of
    // the derivation in DESIGN.md, "Jacobian pipeline".
    std::vector<double> gathered_grad;       ///< one N x N gradient block per request
    std::vector<double> gate;                ///< trial-capital floor gates (0/1)
    std::vector<double> chain_w;             ///< d x_unit / d u (0 where clamped)
    std::vector<double> kn_theta2;           ///< k'^(theta-2)
    std::vector<double> dc_next;             ///< dc'/du per country (per shock)
    std::vector<double> e_acc;               ///< E_j accumulator
    std::vector<double> de_acc;              ///< dE_j/du_i accumulator (N x N)
    std::vector<double> dc_today;            ///< dc_0/du per country
  };

  /// Newton unknowns: next-period capital, one per country.
  [[nodiscard]] std::size_t unknowns() const { return static_cast<std::size_t>(cal_.countries); }

  /// Prepares grid point (z, x_unit): today's capital and its powers.
  /// Returns newton_options().
  solver::NewtonOptions prepare(int z, std::span<const double> x_unit,
                                PointScratch& scratch) const;

  /// Unit-free Euler residuals at the prepared point for the trial point
  /// `k_next` (N), written to `out` (N): every successor-shock interpolation
  /// is issued as one full-range p_next.gather — the per-solve half of the
  /// paper's interpolation amortization. Trial iterates with non-positive
  /// components are admissible: the gross-return and adjustment-cost terms
  /// evaluate on copies floored at a tiny positive capital (identical
  /// results for feasible iterates — the solve box's lower bound is far
  /// above the floor), so line-search trial steps through zero yield finite
  /// residuals instead of NaN/Inf.
  void euler_residuals(PointScratch& scratch, std::span<const double> k_next,
                       const core::PolicyEvaluator& p_next, std::span<double> out,
                       core::EvalCounters* counters = nullptr) const;

  /// Closed-form Jacobian d r_j / d k'_i of the unit-free Euler residuals at
  /// the trial point `k_next` of the prepared point (`jac` is N x N).
  /// Differentiates every term euler_residuals evaluates — gross
  /// returns, adjustment costs, equalized consumption today and tomorrow,
  /// and the interpolated policy via ONE value + gradient p_next.gather —
  /// replicating the residual's guard semantics exactly: components at the
  /// trial-capital floor and unit-cube clamps contribute zero derivative,
  /// consumption clamped at its 1e-6 floor kills the marginal-utility
  /// derivative. Full derivation in DESIGN.md, "Jacobian pipeline".
  void euler_jacobian(PointScratch& scratch, std::span<const double> k_next,
                      const core::PolicyEvaluator& p_next, util::Matrix& jac,
                      core::EvalCounters* counters = nullptr) const;

 private:
  /// consumption() given precomputed k_theta = k^theta.
  [[nodiscard]] double consumption(int z, std::span<const double> k,
                                   std::span<const double> k_theta,
                                   std::span<const double> k_next) const;

  IrbcCalibration cal_;
  olg::MarkovChain chain_;
  olg::CrraPreferences prefs_;
  double tfp_scale_ = 1.0;  ///< A: normalizes k_ss to 1
  std::vector<double> scaled_tfp_;  ///< A a_j(z), row z of N
  sg::BoxDomain domain_;
  std::vector<double> box_lower_, box_upper_;  ///< the Newton box on next-period capital
};

}  // namespace hddm::irbc
