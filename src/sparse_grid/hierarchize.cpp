#include "sparse_grid/hierarchize.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "sparse_grid/multi_index.hpp"

namespace hddm::sg {

namespace {

// Subtracts from value (length ndofs) the contribution of the points listed
// in `processed` (whose surpluses are final) at coordinates x.
void subtract_partial_interpolant(const DenseGridData& grid,
                                  std::span<const std::uint32_t> processed,
                                  std::span<const double> x, double* value) {
  for (const std::uint32_t q : processed) {
    const double phi = tensor_basis_value(grid.point(q), x);
    if (phi == 0.0) continue;
    const double* row = grid.surplus_row(q);
    for (int dof = 0; dof < grid.ndofs; ++dof) value[dof] -= phi * row[dof];
  }
}

}  // namespace

void hierarchize_tail(DenseGridData& grid, std::uint32_t n_known) {
  // The first n_known points hold final surpluses. For the tail to be
  // hierarchizable against them it suffices that (a) the first n_known points
  // form an ancestor-closed grid — then no tail point can be an ancestor of a
  // known point, so known surpluses stay valid — and (b) tail points are
  // processed in ascending level-sum order among themselves, because a basis
  // function is nonzero at another point's node only if it is an
  // every-dimension ancestor of that point, and ancestors have strictly
  // smaller level sums.
  std::vector<std::uint32_t> tail(grid.nno - n_known);
  std::iota(tail.begin(), tail.end(), n_known);
  std::stable_sort(tail.begin(), tail.end(), [&grid](std::uint32_t a, std::uint32_t b) {
    return level_sum(grid.point(a)) < level_sum(grid.point(b));
  });

  std::vector<std::uint32_t> processed;
  processed.reserve(grid.nno);
  for (std::uint32_t q = 0; q < n_known; ++q) processed.push_back(q);
  std::vector<double> x(static_cast<std::size_t>(grid.dim));
  std::size_t pos = 0;
  while (pos < tail.size()) {
    const int lsum = level_sum(grid.point(tail[pos]));
    std::size_t end = pos;
    while (end < tail.size() && level_sum(grid.point(tail[end])) == lsum) ++end;
    for (std::size_t k = pos; k < end; ++k) {
      const std::uint32_t p = tail[k];
      point_coordinates(grid.point(p), x);
      subtract_partial_interpolant(grid, processed, x, grid.surplus_row(p));
    }
    for (std::size_t k = pos; k < end; ++k) processed.push_back(tail[k]);
    pos = end;
  }
}

DenseGridData hierarchize_function(const GridStorage& storage, int ndofs, const NodalFunction& f) {
  DenseGridData grid = make_dense_grid(storage, ndofs);
  for (std::uint32_t p = 0; p < grid.nno; ++p) {
    const auto x = storage.coordinates(p);
    const std::vector<double> vals = f(x);
    if (static_cast<int>(vals.size()) != ndofs)
      throw std::invalid_argument("hierarchize_function: f returned wrong arity");
    std::copy(vals.begin(), vals.end(), grid.surplus_row(p));
  }
  hierarchize_tail(grid, 0);
  return grid;
}

}  // namespace hddm::sg
