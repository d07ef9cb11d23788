// Cobb-Douglas production technology and factor prices.
//
// Y = eta * K^theta * L^(1-theta); competitive factor markets give the wage
// and the (depreciation-adjusted) return on capital. The productivity shift
// eta and depreciation delta vary with the discrete shock z (Sec. II:
// "booms, busts").
#pragma once

#include <cmath>
#include <stdexcept>

namespace hddm::olg {

struct FactorPrices {
  double wage = 0.0;     ///< w = (1-theta) eta (K/L)^theta
  double rate = 0.0;     ///< r = theta eta (K/L)^(theta-1) - delta
  double output = 0.0;   ///< Y
};

class CobbDouglasTechnology {
 public:
  explicit CobbDouglasTechnology(double theta = 0.3) : theta_(theta) {
    if (theta <= 0.0 || theta >= 1.0)
      throw std::invalid_argument("CobbDouglasTechnology: theta must be in (0,1)");
  }

  [[nodiscard]] double capital_share() const { return theta_; }

  [[nodiscard]] FactorPrices prices(double capital, double labor, double eta,
                                    double delta) const {
    FactorPrices p = prices(intensity(capital, labor), eta, delta);
    p.output = eta * std::pow(capital, theta_) * std::pow(labor, 1.0 - theta_);
    return p;
  }

  /// The shock-independent powers of the capital intensity K/L that the
  /// wage and the rate are linear in. A model pricing one capital stock
  /// under several shocks computes them once.
  struct Intensity {
    double pow_theta = 0.0;            ///< (K/L)^theta
    double pow_theta_minus_one = 0.0;  ///< (K/L)^(theta-1)
  };
  [[nodiscard]] Intensity intensity(double capital, double labor) const {
    if (capital <= 0.0 || labor <= 0.0)
      throw std::invalid_argument("CobbDouglasTechnology: factors must be positive");
    const double k_over_l = capital / labor;
    return {std::pow(k_over_l, theta_), std::pow(k_over_l, theta_ - 1.0)};
  }

  /// Wage and rate of prices() from precomputed intensity powers, bit for
  /// bit; output is left 0.
  [[nodiscard]] FactorPrices prices(const Intensity& in, double eta, double delta) const {
    FactorPrices p;
    p.wage = (1.0 - theta_) * eta * in.pow_theta;
    p.rate = theta_ * eta * in.pow_theta_minus_one - delta;
    return p;
  }

  /// Derivatives of the factor prices w.r.t. the capital stock, computed
  /// from already-evaluated prices (no extra pow):
  ///   dw/dK = theta * w / K,
  ///   dr/dK = (theta - 1) * (r + delta) / K  (r excludes depreciation's
  ///   derivative because delta does not vary with K).
  /// Used by the OLG analytic Euler Jacobian, where tomorrow's prices move
  /// with aggregate savings K' = sum_a k'_a.
  struct FactorPriceGradients {
    double dwage_dk = 0.0;  ///< d wage / d capital
    double drate_dk = 0.0;  ///< d rate / d capital
  };

  /// Gradients at the point where `p` was computed; `delta` must be the
  /// depreciation rate used for `p` (it re-adds into the gross marginal
  /// product). `capital` must be positive, as in prices().
  [[nodiscard]] FactorPriceGradients price_gradients(const FactorPrices& p, double capital,
                                                     double delta) const {
    if (capital <= 0.0)
      throw std::invalid_argument("CobbDouglasTechnology: capital must be positive");
    FactorPriceGradients g;
    g.dwage_dk = theta_ * p.wage / capital;
    g.drate_dk = (theta_ - 1.0) * (p.rate + delta) / capital;
    return g;
  }

  /// Capital stock at which the deterministic economy with discount beta and
  /// depreciation delta is in steady state under log-utility intuition:
  /// solves theta * eta * (K/L)^(theta-1) - delta = 1/beta - 1.
  [[nodiscard]] double golden_capital(double labor, double eta, double delta,
                                      double beta) const {
    const double target_rate = 1.0 / beta - 1.0 + delta;
    const double k_over_l = std::pow(target_rate / (theta_ * eta), 1.0 / (theta_ - 1.0));
    return k_over_l * labor;
  }

 private:
  double theta_;
};

}  // namespace hddm::olg
