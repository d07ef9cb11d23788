// The `x86` kernel: compressed-format interpolation, scalar code — the left
// panel of the paper's Fig. 5. The unique basis factors are evaluated once
// into the xpv scratch (which fits L1 for the paper's grids: 237/473 entries
// in Table I), each from the grid's precomputed factor table (center, scale,
// dimension) rather than from (l, i); each point then multiplies at most
// nfreq chained factors instead of d pairs, reducing the loop complexity from
// nno*d to nno*nfreq. The walk itself is detail::walk_chains, shared with the
// vector tiers and the gradient walk below: a point whose prefix product is
// 0 jumps over every following point with the same prefix (the compression's
// skip pointers), which the T_freq point reordering makes long runs.
//
// This file also holds compute_xpv, so every tier's factors come from this
// one baseline-ISA translation unit, and the value + gradient walk behind the
// analytic Jacobians.
#include <algorithm>
#include <vector>

#include "kernels/kernels_internal.hpp"
#include "sparse_grid/basis.hpp"

namespace hddm::kernels::detail {

void compute_xpv(const core::CompressedGridData& grid, const double* x, double* xpv) {
  xpv[0] = 1.0;  // sentinel slot: chains terminate before touching it
  const std::size_t n = grid.factors.size();
  for (std::size_t k = 1; k < n; ++k) {
    const core::HatFactor& h = grid.factors[k];
    // hat_value is already clamped at zero (the fmax of the paper's listing).
    xpv[k] = sg::hat_value(h.center, h.scale, x[h.j]);
  }
}

void evaluate_x86(const core::CompressedGridData& grid, const double* x, double* value) {
  const int nd = grid.ndofs;
  evaluate_compressed(grid, x, value, [&](std::uint32_t p, double temp, std::size_t) {
    const double* srow = grid.surplus_row(p);
    for (int dof = 0; dof < nd; ++dof) value[dof] += temp * srow[dof];
  });
}

}  // namespace hddm::kernels::detail

namespace hddm::kernels {

void evaluate_with_gradient(const core::CompressedGridData& grid, const double* x, double* value,
                            double* grad) {
  const int nd = grid.ndofs;
  const auto d = static_cast<std::size_t>(grid.dim);

  // xpv as in the x86 kernel, plus the matching derivative table. xpd is
  // zero wherever xpv is zero (hat_derivative's support-edge convention), so
  // the walk's zero-product skip drops value AND gradient exactly.
  thread_local std::vector<double> xpv, xpd, pre;
  xpv.resize(grid.xps_size());
  xpd.resize(grid.xps_size());
  pre.resize(static_cast<std::size_t>(grid.nfreq));
  detail::compute_xpv(grid, x, xpv.data());
  xpd[0] = 0.0;
  for (std::size_t k = 1; k < grid.factors.size(); ++k) {
    const core::HatFactor& h = grid.factors[k];
    xpd[k] = sg::hat_derivative(h.center, h.scale, x[h.j]);
  }

  std::fill(value, value + nd, 0.0);
  std::fill(grad, grad + static_cast<std::size_t>(nd) * d, 0.0);

  detail::walk_chains(grid, xpv.data(), 0, grid.nno,
                      [&](std::uint32_t p, double temp, std::size_t len) {
    // Value: identical to the x86 kernel's accumulate step.
    const double* srow = grid.surplus_row(p);
    for (int dof = 0; dof < nd; ++dof) value[dof] += temp * srow[dof];

    // Backward pass: dtemp_f = (prod of the other factors) * dphi_f, routed
    // to the factor's dimension. pre[f] re-forms the walk's product before
    // slot f (same factors, same order, so the same bits). Chains carry only
    // non-root factors, so level-1 dimensions correctly keep zero gradient.
    const std::uint32_t* chain = grid.chain_row(p);
    double prefix = 1.0;
    for (std::size_t f = 0; f < len; ++f) {
      pre[f] = prefix;
      prefix *= xpv[chain[f]];
    }
    double suf = 1.0;
    for (std::size_t f = len; f-- > 0;) {
      const std::uint32_t idx = chain[f];
      const double dtemp = pre[f] * suf * xpd[idx];
      suf *= xpv[idx];
      if (dtemp == 0.0) continue;
      const std::size_t j = grid.factors[idx].j;
      for (int dof = 0; dof < nd; ++dof)
        grad[static_cast<std::size_t>(dof) * d + j] += dtemp * srow[dof];
    }
  });
}

}  // namespace hddm::kernels
