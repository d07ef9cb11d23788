#include "support/interpolate.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace hddm::sg {

double reference_interpolate_one(const GridStorage& storage, std::span<const double> surplus,
                                 std::span<const double> x) {
  if (surplus.size() != storage.size())
    throw std::invalid_argument("reference_interpolate_one: surplus size mismatch");
  double acc = 0.0;
  for (std::uint32_t p = 0; p < storage.size(); ++p) {
    const double phi = tensor_basis_value(storage.point(p), x);
    if (phi != 0.0) acc += surplus[p] * phi;
  }
  return acc;
}

void reference_interpolate(const DenseGridData& grid, std::span<const double> x,
                           std::span<double> value) {
  reference_interpolate_below(grid, std::numeric_limits<int>::max(), x, value);
}

void reference_interpolate_with_gradient(const DenseGridData& grid, std::span<const double> x,
                                         std::span<double> value, std::span<double> grad) {
  const int d = grid.dim;
  const int nd = grid.ndofs;
  if (static_cast<int>(value.size()) != nd)
    throw std::invalid_argument("reference_interpolate_with_gradient: value size mismatch");
  if (static_cast<int>(grad.size()) != nd * d)
    throw std::invalid_argument("reference_interpolate_with_gradient: grad size mismatch");
  std::fill(value.begin(), value.end(), 0.0);
  std::fill(grad.begin(), grad.end(), 0.0);

  // Scratch reused across calls: this runs once per successor-shock request
  // of every analytic Jacobian refresh.
  thread_local std::vector<double> phi, dphi, dprod;
  phi.resize(static_cast<std::size_t>(d));
  dphi.resize(static_cast<std::size_t>(d));
  dprod.resize(static_cast<std::size_t>(d));

  for (std::uint32_t p = 0; p < grid.nno; ++p) {
    const MultiIndexView mi = grid.point(p);
    // Per-dim factors with tensor_basis_value's multiplication order and
    // early exit, so the accumulated values stay bit-identical to
    // reference_interpolate (and the gold kernel). A zero factor kills the
    // point's value AND gradient contribution — hat_derivative's convention
    // at the support edge.
    double v = 1.0;
    bool dead = false;
    for (int t = 0; t < d; ++t) {
      const auto st = static_cast<std::size_t>(t);
      if (mi[st].l == 1) {
        phi[st] = 1.0;
        dphi[st] = 0.0;
        continue;
      }
      phi[st] = hat_value(mi[st], x[st]);
      dphi[st] = hat_derivative(mi[st], x[st]);
      v *= phi[st];
      if (v == 0.0) {
        dead = true;
        break;
      }
    }
    if (dead) continue;

    // dprod[t] = dphi_t * prod_{s != t} phi_s via prefix/suffix products:
    // all d partials in O(d) per point instead of O(d^2).
    double prefix = 1.0;
    for (int t = 0; t < d; ++t) {
      const auto st = static_cast<std::size_t>(t);
      dprod[st] = prefix * dphi[st];
      prefix *= phi[st];
    }
    double suffix = 1.0;
    for (int t = d - 1; t >= 0; --t) {
      const auto st = static_cast<std::size_t>(t);
      dprod[st] *= suffix;
      suffix *= phi[st];
    }

    const double* row = grid.surplus_row(p);
    for (int dof = 0; dof < nd; ++dof) {
      value[static_cast<std::size_t>(dof)] += v * row[dof];
      double* g = grad.data() + static_cast<std::size_t>(dof) * static_cast<std::size_t>(d);
      for (int t = 0; t < d; ++t) g[t] += dprod[static_cast<std::size_t>(t)] * row[dof];
    }
  }
}

void reference_interpolate_below(const DenseGridData& grid, int level_sum_bound,
                                 std::span<const double> x, std::span<double> value) {
  if (static_cast<int>(value.size()) != grid.ndofs)
    throw std::invalid_argument("reference_interpolate: value size mismatch");
  std::fill(value.begin(), value.end(), 0.0);
  for (std::uint32_t p = 0; p < grid.nno; ++p) {
    const MultiIndexView mi = grid.point(p);
    if (level_sum(mi) >= level_sum_bound) continue;
    const double phi = tensor_basis_value(mi, x);
    if (phi == 0.0) continue;
    const double* row = grid.surplus_row(p);
    for (int dof = 0; dof < grid.ndofs; ++dof) value[dof] += phi * row[dof];
  }
}

}  // namespace hddm::sg
