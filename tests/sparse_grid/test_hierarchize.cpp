#include "sparse_grid/hierarchize.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>

#include "sparse_grid/adaptive.hpp"
#include "sparse_grid/regular.hpp"
#include "support/interpolate.hpp"
#include "util/rng.hpp"

namespace hddm::sg {
namespace {

// Smooth multi-output test function on [0,1]^d.
std::vector<double> smooth_f(std::span<const double> x) {
  double s = 0.0, p = 1.0;
  for (const double xi : x) {
    s += xi;
    p *= 0.5 + xi;
  }
  return {std::sin(2.0 * s) + 1.5, p};
}

TEST(Hierarchize, RootPointSurplusIsFunctionValue) {
  GridStorage g(2);
  build_regular_grid(g, 1);
  const DenseGridData grid = hierarchize_function(g, 2, smooth_f);
  const auto f0 = smooth_f(std::vector<double>{0.5, 0.5});
  EXPECT_DOUBLE_EQ(grid.surplus_row(0)[0], f0[0]);
  EXPECT_DOUBLE_EQ(grid.surplus_row(0)[1], f0[1]);
}

// The defining property: the interpolant reproduces f at every grid point.
class InterpolationExactnessTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(InterpolationExactnessTest, ReproducesNodalValues) {
  const auto [d, n] = GetParam();
  GridStorage g(d);
  build_regular_grid(g, n);
  const DenseGridData grid = hierarchize_function(g, 2, smooth_f);

  std::vector<double> value(2);
  for (std::uint32_t p = 0; p < g.size(); ++p) {
    const auto x = g.coordinates(p);
    const auto expected = smooth_f(x);
    reference_interpolate(grid, x, value);
    EXPECT_NEAR(value[0], expected[0], 1e-11) << "point " << p;
    EXPECT_NEAR(value[1], expected[1], 1e-11) << "point " << p;
  }
}

INSTANTIATE_TEST_SUITE_P(DimsAndLevels, InterpolationExactnessTest,
                         ::testing::Values(std::pair{1, 5}, std::pair{2, 4}, std::pair{3, 4},
                                           std::pair{4, 3}, std::pair{6, 3}));

TEST(Hierarchize, ExactForLinearFunctionAtLevel2) {
  // f(x) = 2 x0 - x1 + 3 is in the span of levels 1-2 in each dimension, so
  // the level-2 interpolant is exact *everywhere* along the axes' corners.
  GridStorage g(2);
  build_regular_grid(g, 2);
  const auto f = [](std::span<const double> x) {
    return std::vector<double>{2.0 * x[0] - x[1] + 3.0};
  };
  const DenseGridData grid = hierarchize_function(g, 1, f);
  std::vector<double> value(1);
  // Exact at corners and center (grid points).
  for (const auto& x : {std::vector<double>{0, 0}, {1, 0}, {0, 1}, {1, 1}, {0.5, 0.5}}) {
    reference_interpolate(grid, x, value);
    EXPECT_NEAR(value[0], 2.0 * x[0] - x[1] + 3.0, 1e-12);
  }
  // Multilinear interpolation of an affine function is exact everywhere on
  // the diagonal cells covered by the basis.
  for (const auto& x : {std::vector<double>{0.25, 0.25}, {0.75, 0.5}}) {
    reference_interpolate(grid, x, value);
    EXPECT_NEAR(value[0], 2.0 * x[0] - x[1] + 3.0, 1e-9);
  }
}

TEST(Hierarchize, ConvergesOnSmoothFunction) {
  // L_inf interpolation error at random points must shrink as the level
  // grows (the O(h^2 log) sparse-grid rate; we only assert monotone decay).
  util::Rng rng(11);
  const int d = 3;
  std::vector<std::vector<double>> samples;
  for (int s = 0; s < 200; ++s) samples.push_back(rng.uniform_point(d));

  // Use the sin component: it is not multilinear, so no level reproduces it
  // exactly and the error must keep shrinking.
  double last_err = 1e300;
  for (int n = 2; n <= 5; ++n) {
    GridStorage g(d);
    build_regular_grid(g, n);
    const DenseGridData grid = hierarchize_function(g, 1, [](std::span<const double> x) {
      return std::vector<double>{smooth_f(x)[0]};
    });
    double err = 0.0;
    std::vector<double> value(1);
    for (const auto& x : samples) {
      reference_interpolate(grid, x, value);
      err = std::max(err, std::fabs(value[0] - smooth_f(x)[0]));
    }
    EXPECT_LT(err, last_err) << "level " << n;
    last_err = err;
  }
  EXPECT_LT(last_err, 5e-2);
}

TEST(Hierarchize, TailMatchesFullHierarchization) {
  // Build level 3 in one shot vs. level 2 + incremental tail; surpluses must
  // agree exactly.
  const int d = 3;
  GridStorage g(d);
  build_regular_grid(g, 3);

  DenseGridData full = make_dense_grid(g, 2);
  for (std::uint32_t p = 0; p < g.size(); ++p) {
    const auto fv = smooth_f(g.coordinates(p));
    std::copy(fv.begin(), fv.end(), full.surplus_row(p));
  }
  DenseGridData incremental = full;  // same nodal values

  hierarchize_tail(full, 0);

  const auto n_level2 = static_cast<std::uint32_t>(count_regular_points(d, 2));
  // First hierarchize the level-<=2 prefix, then the tail.
  {
    DenseGridData head = incremental;
    head.nno = n_level2;
    head.pairs.resize(static_cast<std::size_t>(n_level2) * d);
    head.surplus.resize(static_cast<std::size_t>(n_level2) * 2);
    hierarchize_tail(head, 0);
    std::copy(head.surplus.begin(), head.surplus.end(), incremental.surplus.begin());
  }
  hierarchize_tail(incremental, n_level2);

  for (std::size_t k = 0; k < full.surplus.size(); ++k)
    EXPECT_NEAR(incremental.surplus[k], full.surplus[k], 1e-12);
}

TEST(Hierarchize, AdaptiveGridRemainsInterpolatory) {
  // Refine around a kink and verify the interpolation property still holds
  // on the (ancestor-closed) adaptive grid.
  const int d = 2;
  const auto f = [](std::span<const double> x) {
    return std::vector<double>{std::fabs(x[0] - 0.3) + 0.2 * x[1]};
  };

  GridStorage g(d);
  build_regular_grid(g, 3);
  DenseGridData grid = hierarchize_function(g, 1, f);

  // One adaptive round.
  const auto indicators = max_abs_indicator(
      std::span<const double>(grid.surplus.data(), grid.surplus.size()), grid.nno, 1);
  RefinementOptions opts;
  opts.epsilon = 1e-3;
  opts.max_level = 6;
  const auto report = refine_by_surplus(g, 0, indicators, opts);
  ASSERT_GT(report.total_added(), 0u);

  // Re-hierarchize from nodal values on the extended grid.
  const DenseGridData refined = hierarchize_function(g, 1, f);
  std::vector<double> value(1);
  for (std::uint32_t p = 0; p < g.size(); ++p) {
    const auto x = g.coordinates(p);
    reference_interpolate(refined, x, value);
    EXPECT_NEAR(value[0], f(x)[0], 1e-11);
  }
}

TEST(Hierarchize, SurplusDecayOnSmoothFunction) {
  // |alpha| = O(2^(-2|l|_1)): check that max surplus per level sum decays.
  const int d = 2;
  GridStorage g(d);
  build_regular_grid(g, 6);
  const DenseGridData grid = hierarchize_function(g, 1, [](std::span<const double> x) {
    return std::vector<double>{smooth_f(x)[0]};
  });
  std::map<int, double> max_by_lsum;
  for (std::uint32_t p = 0; p < g.size(); ++p) {
    const int ls = g.level_sum(p);
    max_by_lsum[ls] = std::max(max_by_lsum[ls], std::fabs(grid.surplus_row(p)[0]));
  }
  // From level sum d+2 on, each extra level shrinks the max surplus.
  double prev = max_by_lsum[d + 2];
  for (int ls = d + 3; ls <= d + 5; ++ls) {
    EXPECT_LT(max_by_lsum[ls], prev);
    prev = max_by_lsum[ls];
  }
}

}  // namespace
}  // namespace hddm::sg
