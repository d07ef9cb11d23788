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
// one baseline-ISA translation unit, and the shared walks: one chain walk
// for several surplus sets over one compressed index (the gathers' shock
// classes), as values and as values + gradients. They sit next to
// evaluate_x86 so both compile with the same flags and the same accumulate
// step, which is what keeps their values bit-identical to it.
#include <algorithm>
#include <vector>

#include "kernels/kernels_internal.hpp"
#include "sparse_grid/basis.hpp"

namespace hddm::kernels::detail {

namespace {

/// The scalar accumulate step of evaluate_x86 and the shared walks:
/// value[dof] += temp * srow[dof], multiply then add, in dof order.
inline void accumulate_row(double* value, const double* srow, int nd, double temp) {
  for (int dof = 0; dof < nd; ++dof) value[dof] += temp * srow[dof];
}

}  // namespace

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
    accumulate_row(value, grid.surplus_row(p), nd, temp);
  });
}

}  // namespace hddm::kernels::detail

namespace hddm::kernels {

void evaluate_shared(const core::CompressedGridData& index, const double* x,
                     std::span<const WalkTarget> targets, int dof_begin, int dof_end) {
  const int nd = dof_end - dof_begin;
  thread_local std::vector<double> xpv;
  xpv.resize(index.xps_size());
  detail::compute_xpv(index, x, xpv.data());
  for (const WalkTarget& t : targets) std::fill(t.value + dof_begin, t.value + dof_end, 0.0);
  detail::walk_chains(index, xpv.data(), 0, index.nno,
                      [&](std::uint32_t p, double temp, std::size_t) {
    // The range's slice of surplus row p: dof_begin is the row's first dof.
    const std::size_t row = static_cast<std::size_t>(p) * static_cast<std::size_t>(index.ndofs) +
                            static_cast<std::size_t>(dof_begin);
    for (const WalkTarget& t : targets)
      detail::accumulate_row(t.value + dof_begin, t.surplus + row, nd, temp);
  });
}

void evaluate_shared_with_gradient(const core::CompressedGridData& index, const double* x,
                                   std::span<const WalkTarget> targets, int dof_begin,
                                   int dof_end) {
  const int nd = dof_end - dof_begin;
  const auto d = static_cast<std::size_t>(index.dim);
  const auto nfreq = static_cast<std::size_t>(index.nfreq);

  // xpv as in the x86 kernel, plus the matching derivative table. xpd is
  // zero wherever xpv is zero (hat_derivative's support-edge convention), so
  // the walk's zero-product skip drops value AND gradient exactly.
  thread_local std::vector<double> xpv, xpd, pre, dtemps, grad_by_dim;
  thread_local std::vector<std::size_t> dims;
  xpv.resize(index.xps_size());
  xpd.resize(index.xps_size());
  pre.resize(nfreq);
  dtemps.resize(nfreq);
  dims.resize(nfreq);
  detail::compute_xpv(index, x, xpv.data());
  xpd[0] = 0.0;
  for (std::size_t k = 1; k < index.factors.size(); ++k) {
    const core::HatFactor& h = index.factors[k];
    xpd[k] = sg::hat_derivative(h.center, h.scale, x[h.j]);
  }

  // Gradients accumulate dimension-major (grad_by_dim[(c * d + j) * nd +
  // dof], nd the range's width and dof counted from dof_begin), so each term
  // is the contiguous accumulate step over the range's dofs, and are
  // transposed into the dof-major output at the end. Every element still
  // starts at 0 and receives the same terms in the same order.
  const std::size_t grad_size = static_cast<std::size_t>(nd) * d;
  grad_by_dim.assign(targets.size() * grad_size, 0.0);
  for (const WalkTarget& t : targets) std::fill(t.value + dof_begin, t.value + dof_end, 0.0);

  detail::walk_chains(index, xpv.data(), 0, index.nno,
                      [&](std::uint32_t p, double temp, std::size_t len) {
    // Backward pass, once per point for every target: dtemp_f = (prod of the
    // other factors) * dphi_f, routed to the factor's dimension. pre[f]
    // re-forms the walk's product before slot f (same factors, same order,
    // so the same bits). Chains carry only non-root factors, so level-1
    // dimensions correctly keep zero gradient.
    const std::uint32_t* chain = index.chain_row(p);
    double prefix = 1.0;
    for (std::size_t f = 0; f < len; ++f) {
      pre[f] = prefix;
      prefix *= xpv[chain[f]];
    }
    std::size_t nonzero = 0;
    double suf = 1.0;
    for (std::size_t f = len; f-- > 0;) {
      const std::uint32_t idx = chain[f];
      const double dtemp = pre[f] * suf * xpd[idx];
      suf *= xpv[idx];
      if (dtemp == 0.0) continue;
      dtemps[nonzero] = dtemp;
      dims[nonzero++] = index.factors[idx].j;
    }

    // Each target sees the single-grid walk's operations in its order: the
    // value step of the x86 kernel, then the gradient terms slot by slot
    // from the last chain slot down.
    const std::size_t row = static_cast<std::size_t>(p) * static_cast<std::size_t>(index.ndofs) +
                            static_cast<std::size_t>(dof_begin);
    for (std::size_t c = 0; c < targets.size(); ++c) {
      const double* srow = targets[c].surplus + row;
      double* grad = grad_by_dim.data() + c * grad_size;
      detail::accumulate_row(targets[c].value + dof_begin, srow, nd, temp);
      for (std::size_t k = 0; k < nonzero; ++k)
        detail::accumulate_row(grad + dims[k] * static_cast<std::size_t>(nd), srow, nd, dtemps[k]);
    }
  });

  for (std::size_t c = 0; c < targets.size(); ++c) {
    const double* grad = grad_by_dim.data() + c * grad_size;
    for (std::size_t j = 0; j < d; ++j)
      for (int dof = 0; dof < nd; ++dof)
        targets[c].grad[static_cast<std::size_t>(dof_begin + dof) * d + j] =
            grad[j * static_cast<std::size_t>(nd) + static_cast<std::size_t>(dof)];
  }
}

void evaluate_with_gradient(const core::CompressedGridData& grid, const double* x, double* value,
                            double* grad) {
  const WalkTarget target{grid.surplus.data(), value, grad};
  evaluate_shared_with_gradient(grid, x, {&target, 1}, 0, grid.ndofs);
}

}  // namespace hddm::kernels
