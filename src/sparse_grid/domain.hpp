// Affine mapping between the sparse-grid unit cube [0,1]^d and the economic
// model's rectangular state-space box B (Sec. II: B is a d-dimensional
// rectangular box; the grid always lives on [0,1]^d).
#pragma once

#include <span>
#include <stdexcept>
#include <vector>

namespace hddm::sg {

class BoxDomain {
 public:
  BoxDomain() = default;
  BoxDomain(std::vector<double> lower, std::vector<double> upper)
      : lower_(std::move(lower)), upper_(std::move(upper)) {
    if (lower_.size() != upper_.size())
      throw std::invalid_argument("BoxDomain: bound size mismatch");
    for (std::size_t t = 0; t < lower_.size(); ++t)
      if (!(lower_[t] < upper_[t]))
        throw std::invalid_argument("BoxDomain: lower bound must be below upper bound");
  }

  [[nodiscard]] int dim() const { return static_cast<int>(lower_.size()); }
  [[nodiscard]] const std::vector<double>& lower() const { return lower_; }
  [[nodiscard]] const std::vector<double>& upper() const { return upper_; }

  /// Unit-cube coordinates -> physical coordinates.
  [[nodiscard]] std::vector<double> to_physical(std::span<const double> u) const {
    std::vector<double> x(u.size());
    to_physical(u, x);
    return x;
  }

  /// Allocation-free variant of to_physical: writes into `x` (same size).
  void to_physical(std::span<const double> u, std::span<double> x) const {
    check(u.size());
    check(x.size());
    for (std::size_t t = 0; t < u.size(); ++t)
      x[t] = lower_[t] + (upper_[t] - lower_[t]) * u[t];
  }

  /// Physical coordinates -> unit cube, clamped to [0,1] (the paper truncates
  /// the domain; simulated next-period states can leave the box slightly).
  [[nodiscard]] std::vector<double> to_unit(std::span<const double> x) const {
    check(x.size());
    std::vector<double> u(x.size());
    for (std::size_t t = 0; t < x.size(); ++t) {
      const double v = (x[t] - lower_[t]) / (upper_[t] - lower_[t]);
      u[t] = v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v);
    }
    return u;
  }

  /// In-place variant of to_unit for hot paths (no allocation).
  void to_unit_inplace(std::span<double> x) const {
    check(x.size());
    for (std::size_t t = 0; t < x.size(); ++t) {
      const double v = (x[t] - lower_[t]) / (upper_[t] - lower_[t]);
      x[t] = v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v);
    }
  }

 private:
  void check(std::size_t n) const {
    if (n != lower_.size()) throw std::invalid_argument("BoxDomain: dimension mismatch");
  }

  std::vector<double> lower_;
  std::vector<double> upper_;
};

}  // namespace hddm::sg
