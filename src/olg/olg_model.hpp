// The stochastic OLG model of Sec. II as a core::DynamicModel.
//
// State per shock z: x = (K, omega_2, ..., omega_{A-1}) in R^{A-1} (Eq. 1) —
// aggregate capital plus the beginning-of-period wealth of generations
// 2..A-1; newborns hold nothing and the oldest generation's wealth is the
// residual omega_A = K - sum omega_a. Policy per point: the A-1 asset
// demands k'_a and the A-1 value-function coefficients v_a, i.e.
// ndofs = 2(A-1) = 2d (118 in the paper's configuration, footnote 10).
//
// Equilibrium system at a point (z, x): the A-1 Euler equations
//   u'(c_a) = beta * sum_{z'} pi(z'|z) (1 + r'(1-tau_c')) u'(c'_{a+1}),
// where tomorrow's consumption uses the *interpolated* next-period asset
// demands on the ASGs of every successor shock — the interpolation load that
// dominates the paper's runtime (Sec. IV: "up to 99%"). Values follow
// explicitly: v_a = u(c_a) + beta E[v'_{a+1}], with v'_A = u(c'_A); they are
// *stored* in the certainty-equivalent transform V = T(v) so that the value
// coefficients remain bounded over the rectangular grid box (see
// CrraPreferences::value_transform and olg/welfare.hpp for the readout).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "core/model.hpp"
#include "olg/calibration.hpp"
#include "olg/preferences.hpp"
#include "olg/steady_state.hpp"
#include "olg/technology.hpp"
#include "solver/newton.hpp"

namespace hddm::olg {

struct OlgModelOptions {
  /// Half-width of the capital dimension relative to the steady state:
  /// K in [K_ss / (1+width_K), K_ss * (1+width_K)].
  double width_capital = 0.5;
  /// Wealth dimensions: omega_a in [-borrowing * w_ss, top * peak assets].
  double borrowing_wage_multiple = 0.5;
  double wealth_top_multiple = 2.5;
  /// Consumption floor as a fraction of the smallest steady-state
  /// consumption: below it the CRRA preferences switch to their safe
  /// extension. A scale-aware floor keeps the extension's slope (and with it
  /// the Euler system's conditioning) moderate at infeasible box corners.
  double consumption_floor_fraction = 0.01;
  solver::NewtonOptions newton;

  OlgModelOptions() {
    newton.max_iterations = 80;
    newton.tolerance = 1e-8;
  }
};

class OlgModel final : public core::DynamicModel {
 public:
  explicit OlgModel(OlgEconomy economy, OlgModelOptions options = {});

  // --- core::DynamicModel ----------------------------------------------
  [[nodiscard]] int state_dim() const override { return econ_.ages() - 1; }
  [[nodiscard]] int num_shocks() const override { return static_cast<int>(econ_.num_shocks()); }
  [[nodiscard]] int ndofs() const override { return 2 * state_dim(); }
  [[nodiscard]] int indicator_dofs() const override { return state_dim(); }
  [[nodiscard]] const sg::BoxDomain& domain() const override { return domain_; }

  [[nodiscard]] std::vector<double> initial_policy(int z,
                                                   std::span<const double> x_unit) const override;
  [[nodiscard]] core::PointSolveResult solve_point(int z, std::span<const double> x_unit,
                                                   const core::PolicyEvaluator& p_next,
                                                   std::span<const double> warm_start) const override;
  [[nodiscard]] double equilibrium_residual(int z, std::span<const double> x_unit,
                                            const core::PolicyEvaluator& p) const override;

  // --- model-specific accessors ------------------------------------------
  [[nodiscard]] const OlgEconomy& economy() const { return econ_; }
  [[nodiscard]] const SteadyState& steady_state() const { return steady_; }
  [[nodiscard]] const CrraPreferences& preferences() const { return prefs_; }
  [[nodiscard]] const CobbDouglasTechnology& technology() const { return tech_; }

  /// Decodes a physical state vector into the per-age wealth vector
  /// omega_1..omega_A (omega_1 = 0, omega_A residual) and aggregate capital.
  struct DecodedState {
    double capital = 0.0;
    std::vector<double> wealth;  ///< size A, 1-based age at index a-1
  };
  [[nodiscard]] DecodedState decode_state(std::span<const double> x_phys) const;

  /// Today's consumption by age given state and savings choices.
  [[nodiscard]] std::vector<double> consumption(int z, const DecodedState& s,
                                                std::span<const double> savings) const;

  /// One period of the economy at physical state x in shock z under a
  /// policy's dofs: clamps the savings into the point's feasibility box (in
  /// place) and writes tomorrow's state, clamped into the grid box, to
  /// `x_next` (size d). Returns whether the grid-box clamp bound. The
  /// simulation and welfare walks share it.
  bool roll_forward(int z, std::span<const double> x, std::span<double> dofs,
                    std::span<double> x_next) const;

  // --- the Euler system core::solve_point drives -------------------------
  /// One grid point's state, derived once by prepare(), and the reusable
  /// buffers that keep a Newton solve and its side paths off the heap.
  struct PointScratch {
    int z = 0;                                ///< today's shock
    std::vector<double> x_phys;               ///< today's state (d)
    DecodedState state;                       ///< x_phys decoded
    std::vector<double> resources;            ///< consumption before saving, per age (A)
    std::vector<double> lower, upper;         ///< feasibility box (d)
    std::vector<double> x_unit;               ///< tomorrow's state (d)
    CobbDouglasTechnology::Intensity intensity;  ///< at tomorrow's aggregate capital
    std::vector<core::GatherRequest> requests;
    std::vector<double> gathered;             ///< one ndofs-row per request
    std::vector<double> residual;             ///< projected_residual_norm's fresh F (d)
    std::vector<double> e_acc;                ///< emu_a accumulator (d)
    // Analytic-Jacobian workspace (euler_jacobian only): policy gradients,
    // unit-cube chain weights, and the demu accumulator of the derivation in
    // DESIGN.md, "Jacobian pipeline".
    std::vector<double> gathered_grad;        ///< one ndofs x d block per request
    std::vector<double> chain_w;              ///< d x_unit / d x_next (0 where clamped)
    std::vector<double> de_acc;               ///< d emu_a / d u_i accumulator (d x d)
  };

  /// Newton unknowns: the d asset demands (the value coefficients follow).
  [[nodiscard]] std::size_t unknowns() const { return static_cast<std::size_t>(state_dim()); }

  /// Prepares grid point (z, x_unit) and returns the Newton settings with
  /// the point's feasibility box on savings — the borrowing limit from
  /// below, the choice pinning today's consumption at the floor from above
  /// (the role of Ipopt's inequality handling in the paper's stack:
  /// iterates never leave the region where the Euler system is well
  /// conditioned). The box views the scratch.
  solver::NewtonOptions prepare(int z, std::span<const double> x_unit,
                                PointScratch& scratch) const;

  /// Euler residuals at the prepared point for the savings choices
  /// `savings` (d), written to `out` (d): every successor-shock policy
  /// interpolation goes out as a single p_next.gather of the asset demands
  /// it reads (dofs [1, d)).
  void euler_residuals(PointScratch& scratch, std::span<const double> savings,
                       const core::PolicyEvaluator& p_next, std::span<double> out,
                       core::EvalCounters* counters = nullptr) const;

  /// Closed-form Jacobian d r_a / d u_i of the consumption-unit Euler
  /// residuals at the savings choices `savings` (`jac` is d x d, d = A-1).
  /// Differentiates every channel euler_residuals evaluates: the
  /// direct -u_a in today's consumption, tomorrow's factor prices and
  /// pension through K' = sum_a u_a (CobbDouglasTechnology::price_gradients),
  /// the gross return R', and the interpolated next-period asset demands via
  /// ONE value + gradient p_next.gather of dofs [1, d) — replicating the residual's
  /// guard semantics (capital floor on K', unit-cube clamps) with zero
  /// derivatives where the residual is locally constant. Full derivation in
  /// DESIGN.md, "Jacobian pipeline".
  void euler_jacobian(PointScratch& scratch, std::span<const double> savings,
                      const core::PolicyEvaluator& p_next, util::Matrix& jac,
                      core::EvalCounters* counters = nullptr) const;

  /// Accept hook: at box corners the equilibrium is constrained, so a
  /// solution whose KKT-projected residual is below 1e-6 counts as
  /// converged even when the raw Euler residual cannot vanish. `residual`
  /// is Newton's final F(savings), so accepting gathers nothing.
  void accept(const PointScratch& scratch, std::span<const double> savings,
              std::span<const double> residual, core::PointSolveResult& result) const;

  /// Unit-free KKT-projected Euler residual norm at the prepared point,
  /// from a fresh euler_residuals evaluation at `savings` (see
  /// kkt_projected_norm).
  [[nodiscard]] double projected_residual_norm(PointScratch& scratch,
                                               std::span<const double> savings,
                                               const core::PolicyEvaluator& p_next,
                                               core::EvalCounters* counters) const;

  /// Finish hook: the value-function coefficients v_1..v_{A-1} implied by
  /// the solved savings, into `values` (size d).
  void finish(PointScratch& scratch, std::span<const double> savings,
              const core::PolicyEvaluator& p_next, std::span<double> values) const;

 private:
  /// Decodes into `s`, reusing its storage.
  void decode_state(std::span<const double> x_phys, DecodedState& s) const;
  /// Each age's consumption before saving at (z, s), into `out` (size A).
  void resources(int z, const DecodedState& s, std::span<double> out) const;
  /// The feasibility box given today's resources.
  void feasibility_box(std::span<const double> resources, std::span<double> lower,
                       std::span<double> upper) const;

  /// Unit-free KKT projection of the Euler residual `residual` at the
  /// prepared point and `savings`: components blocked by a binding
  /// borrowing limit (residual < 0 at the lower bound) or by the
  /// consumption floor (residual > 0 at the upper bound) are admissible and
  /// count as zero; the rest is normalized by today's consumption. Returns
  /// the largest.
  [[nodiscard]] double kkt_projected_norm(const PointScratch& scratch,
                                          std::span<const double> savings,
                                          std::span<const double> residual) const;

  /// Maps the savings choices to tomorrow's state and gathers every
  /// successor shock's policy dofs [dof_begin, dof_end) there in one
  /// p_next.gather.
  void gather_successors(PointScratch& scratch, std::span<const double> savings,
                         const core::PolicyEvaluator& p_next, int dof_begin,
                         int dof_end) const;
  /// Tomorrow's aggregate capital implied by the savings choices (floored at
  /// capital_floor_); writes the physical next state x' = (K', k'_1, ...,
  /// k'_{A-2}) into `x_next` (size d). Single definition shared by the
  /// residual hot loop and the value recursion.
  double next_state(std::span<const double> savings, std::span<double> x_next) const;
  /// Successor shock zp's factor prices and pension at the intensity of
  /// aggregate capital K' — ditto, the one place tomorrow's price economics
  /// lives.
  struct SuccessorPrices {
    FactorPrices prices;
    double pension = 0.0;
  };
  [[nodiscard]] SuccessorPrices successor_prices(
      int zp, const CobbDouglasTechnology::Intensity& intensity) const;

  OlgEconomy econ_;
  OlgModelOptions opts_;
  CobbDouglasTechnology tech_;
  SteadyState steady_;              // solved before prefs_: the floor is scale-aware
  CrraPreferences prefs_;
  sg::BoxDomain domain_;
  double capital_floor_ = 1e-3;  ///< price evaluation guard
  /// initial_policy's value coefficients v_1..v_{A-1}: state-independent.
  std::vector<double> initial_values_;
};

}  // namespace hddm::olg
