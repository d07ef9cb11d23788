#include "support/interpolate.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sparse_grid/hierarchize.hpp"
#include "sparse_grid/regular.hpp"
#include "util/rng.hpp"

namespace hddm::sg {
namespace {

TEST(ReferenceInterpolate, SingleDofMatchesMultiDof) {
  GridStorage g(2);
  build_regular_grid(g, 3);
  util::Rng rng(1);
  DenseGridData grid = make_dense_grid(g, 2);
  for (auto& s : grid.surplus) s = rng.uniform(-1, 1);

  std::vector<double> surplus0(g.size());
  for (std::uint32_t p = 0; p < g.size(); ++p) surplus0[p] = grid.surplus_row(p)[0];

  std::vector<double> value(2);
  for (int trial = 0; trial < 20; ++trial) {
    const auto x = rng.uniform_point(2);
    reference_interpolate(grid, x, value);
    const double one = reference_interpolate_one(g, surplus0, x);
    EXPECT_NEAR(one, value[0], 1e-13);
  }
}

TEST(ReferenceInterpolate, LevelSumBoundRestrictsContributions) {
  GridStorage g(2);
  build_regular_grid(g, 4);
  const DenseGridData grid = hierarchize_function(g, 1, [](std::span<const double> x) {
    return std::vector<double>{std::sin(3 * x[0]) * x[1]};
  });

  // With the bound at the root's level sum + 1, only the root contributes.
  std::vector<double> value(1);
  const std::vector<double> x{0.3, 0.8};
  reference_interpolate_below(grid, 2 + 1, x, value);
  EXPECT_DOUBLE_EQ(value[0], grid.surplus_row(0)[0]);

  // An unbounded evaluation matches reference_interpolate.
  std::vector<double> full(1), below(1);
  reference_interpolate(grid, x, full);
  reference_interpolate_below(grid, 1 << 20, x, below);
  EXPECT_DOUBLE_EQ(full[0], below[0]);
}

TEST(ReferenceInterpolate, PartialInterpolantsAreNested) {
  // u_{<L}(x) converges monotonically in content toward u(x) as L grows:
  // each bound adds exactly the surpluses of one more level sum.
  GridStorage g(3);
  build_regular_grid(g, 4);
  util::Rng rng(9);
  DenseGridData grid = make_dense_grid(g, 1);
  for (auto& s : grid.surplus) s = rng.uniform(-1, 1);

  const std::vector<double> x{0.21, 0.55, 0.83};
  std::vector<double> prev(1), curr(1);
  reference_interpolate_below(grid, 3, x, prev);
  double reconstructed = prev[0];
  for (int bound = 4; bound <= 7; ++bound) {
    reference_interpolate_below(grid, bound, x, curr);
    // The increment equals the direct sum over points at level sum bound-1.
    double increment = 0.0;
    for (std::uint32_t p = 0; p < grid.nno; ++p) {
      if (level_sum(grid.point(p)) != bound - 1) continue;
      increment += grid.surplus_row(p)[0] * tensor_basis_value(grid.point(p), x);
    }
    reconstructed += increment;
    EXPECT_NEAR(curr[0], reconstructed, 1e-12) << "bound " << bound;
  }
}

TEST(ReferenceInterpolate, SizeMismatchesThrow) {
  GridStorage g(2);
  build_regular_grid(g, 2);
  const DenseGridData grid = make_dense_grid(g, 2);
  std::vector<double> wrong(3);
  EXPECT_THROW(reference_interpolate(grid, std::vector<double>{0.5, 0.5}, wrong),
               std::invalid_argument);
  const std::vector<double> short_surplus(2);
  EXPECT_THROW((void)reference_interpolate_one(g, short_surplus, std::vector<double>{0.5, 0.5}),
               std::invalid_argument);
}

TEST(TensorBasis, EarlyExitOnZeroFactor) {
  // x outside one dimension's support kills the whole product.
  const MultiIndex mi{{3, 1}, {3, 3}};
  const std::vector<double> x{0.25, 0.25};  // second factor: hat_(3,3)(0.25)=0
  EXPECT_DOUBLE_EQ(tensor_basis_value(mi, x), 0.0);
  const std::vector<double> y{0.25, 0.75};
  EXPECT_DOUBLE_EQ(tensor_basis_value(mi, y), 1.0);
}

TEST(TensorBasis, RootDimensionsContributeUnity) {
  const MultiIndex mi{{1, 1}, {4, 5}, {1, 1}};
  const std::vector<double> x{0.01, point_coordinate({4, 5}), 0.99};
  EXPECT_DOUBLE_EQ(tensor_basis_value(mi, x), 1.0);
}

TEST(ReferenceGradient, ValuesBitIdenticalAndGradientMatchesCentralDifference) {
  GridStorage g(3);
  build_regular_grid(g, 4);
  DenseGridData grid = make_dense_grid(g, 2);
  util::Rng rng(7);
  for (std::uint32_t p = 0; p < g.size(); ++p) {
    double* row = grid.surplus_row(p);
    row[0] = rng.uniform(-1, 1);
    row[1] = rng.uniform(-1, 1);
  }

  util::Rng prng(9);
  for (int trial = 0; trial < 12; ++trial) {
    const std::vector<double> x = prng.uniform_point(3);
    std::vector<double> value(2), grad(2 * 3), plain(2);
    reference_interpolate_with_gradient(grid, x, value, grad);
    reference_interpolate(grid, x, plain);
    EXPECT_EQ(value, plain);  // the documented bit-identity of the values

    const double h = 1e-7;
    std::vector<double> xp(3), vp(2), vm(2);
    for (int t = 0; t < 3; ++t) {
      xp = x;
      xp[static_cast<std::size_t>(t)] += h;
      reference_interpolate(grid, xp, vp);
      xp[static_cast<std::size_t>(t)] -= 2 * h;
      reference_interpolate(grid, xp, vm);
      for (int dof = 0; dof < 2; ++dof) {
        const double fd = (vp[static_cast<std::size_t>(dof)] - vm[static_cast<std::size_t>(dof)]) /
                          (2 * h);
        EXPECT_NEAR(grad[static_cast<std::size_t>(dof) * 3 + static_cast<std::size_t>(t)], fd,
                    1e-5);
      }
    }
  }
}

TEST(ReferenceGradient, AgreesWithCompressedWalk) {
  // The compressed chain walk (kernels::evaluate_with_gradient, exercised
  // through core::ShockGrid in tests/core) and this dense reference must
  // compute the same derivative; here the reference itself is validated at a
  // grid point's kink, where the subgradient-midpoint convention applies.
  GridStorage g(2);
  build_regular_grid(g, 3);
  DenseGridData grid = make_dense_grid(g, 1);
  for (std::uint32_t p = 0; p < g.size(); ++p) grid.surplus_row(p)[0] = 1.0 + 0.1 * p;

  // x0 = 0.25 sits exactly on the center kink of hat (3,1) — and on no other
  // basis function's kink or support edge at this level — so the gradient
  // convention there is the average of the one-sided slopes; x1 = 0.3 is
  // generic.
  std::vector<double> value(1), grad(2);
  const std::vector<double> x{0.25, 0.3};
  reference_interpolate_with_gradient(grid, x, value, grad);
  const double h = 1e-7;
  std::vector<double> vl(1), vr(1);
  std::vector<double> xp = x;
  xp[0] = x[0] + h;
  reference_interpolate(grid, xp, vr);
  xp[0] = x[0] - h;
  reference_interpolate(grid, xp, vl);
  const double left = (value[0] - vl[0]) / h;
  const double right = (vr[0] - value[0]) / h;
  EXPECT_NEAR(grad[0], 0.5 * (left + right), 1e-5);
  EXPECT_GT(std::fabs(left - right), 1.0);  // a genuine kink, not a smooth point
}

}  // namespace
}  // namespace hddm::sg
