// Reference (unoptimized but obviously-correct) ASG interpolation.
//
// Evaluates Eq. (14) by direct summation over all points with per-dimension
// early exit — semantically identical to the `gold` kernel but written for
// clarity. A test oracle (hddm_test_support): tests validate every optimized
// kernel, the compressed round trip and hierarchization against it.
#pragma once

#include <span>
#include <vector>

#include "sparse_grid/dense_format.hpp"
#include "sparse_grid/grid_storage.hpp"

namespace hddm::sg {

/// u(x) for a single dof column: sum_p alpha_p * phi_p(x).
double reference_interpolate_one(const GridStorage& storage, std::span<const double> surplus,
                                 std::span<const double> x);

/// All-dof evaluation on the dense format: value[0..ndofs) = u(x).
void reference_interpolate(const DenseGridData& grid, std::span<const double> x,
                           std::span<double> value);

/// Restricted evaluation using only points whose level sum is strictly below
/// `level_sum_bound` — the partial interpolant u_{L-1} needed by level-wise
/// hierarchization.
void reference_interpolate_below(const DenseGridData& grid, int level_sum_bound,
                                 std::span<const double> x, std::span<double> value);

/// Joint value + gradient evaluation on the dense format: value[0..ndofs) =
/// u(x) and grad[dof * dim + t] = d u_dof / d x_t (row-major, one dim-row
/// per dof). One pass over the points computes the tensor-product basis
/// value and all dim one-factor-substituted products, so the cost is
/// ~(dim+1) x a plain evaluation rather than dim+1 separate walks. Values
/// are bit-identical to reference_interpolate (same points, same order, same
/// arithmetic); the gradient is the exact a.e. derivative of the piecewise-
/// multilinear interpolant with hat_derivative's kink convention.
void reference_interpolate_with_gradient(const DenseGridData& grid, std::span<const double> x,
                                         std::span<double> value, std::span<double> grad);

}  // namespace hddm::sg
