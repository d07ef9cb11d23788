// Hierarchization: converting nodal function values into hierarchical
// surpluses (the alpha coefficients of Eq. 14).
//
// Grids here are always processed in ascending level-sum order. Basis
// functions whose level sum equals a point's own level sum vanish at that
// point (same-level hats have disjoint interiors, and coarse points sit on
// the boundary or outside of finer hats), so the surplus of a point is
// exactly
//     alpha_p = f(x_p) - u_{<lsum(p)}(x_p),
// the difference to the interpolant built from strictly coarser points —
// the Ma-Zabaras construction the paper relies on. This holds for adaptive
// grids too, provided they are ancestor-closed (GridStorage::close_ancestors).
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "sparse_grid/dense_format.hpp"
#include "sparse_grid/grid_storage.hpp"

namespace hddm::sg {

/// Incremental hierarchization step: given `grid` whose first `n_known`
/// points already hold surpluses (an ancestor-closed set), converts the
/// nodal values f(x_p) of points [n_known, nno) (point-major, ndofs per
/// point) into hierarchical surpluses, processing them in ascending
/// level-sum order. n_known = 0 hierarchizes the whole grid, in
/// O(nno^2 * d) — test- and example-scale grids; the time-iteration driver
/// hierarchizes incrementally level by level instead.
void hierarchize_tail(DenseGridData& grid, std::uint32_t n_known);

/// Evaluates f at every grid point of `storage` and returns the hierarchized
/// surplus matrix (point-major). `f` maps a coordinate vector in [0,1]^d to
/// ndofs values.
using NodalFunction = std::function<std::vector<double>(std::span<const double>)>;
DenseGridData hierarchize_function(const GridStorage& storage, int ndofs, const NodalFunction& f);

}  // namespace hddm::sg
