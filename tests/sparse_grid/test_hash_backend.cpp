#include "sparse_grid/hash_backend.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sparse_grid/adaptive.hpp"
#include "sparse_grid/hierarchize.hpp"
#include "sparse_grid/regular.hpp"
#include "support/interpolate.hpp"
#include "util/rng.hpp"

namespace hddm::sg {
namespace {

DenseGridData random_grid(int d, int level, int ndofs, std::uint64_t seed) {
  GridStorage g(d);
  build_regular_grid(g, level);
  DenseGridData dense = make_dense_grid(g, ndofs);
  util::Rng rng(seed);
  for (auto& s : dense.surplus) s = rng.uniform(-1, 1);
  return dense;
}

class HashBackendTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(HashBackendTest, MatchesReferenceOnRegularGrids) {
  const auto [d, level] = GetParam();
  const DenseGridData dense = random_grid(d, level, 3, 17 + d);
  const HashGridEvaluator hash(dense);

  util::Rng rng(99);
  std::vector<double> got(3), want(3);
  for (int trial = 0; trial < 50; ++trial) {
    const auto x = rng.uniform_point(d);
    hash.evaluate(x.data(), got.data());
    reference_interpolate(dense, x, want);
    for (int dof = 0; dof < 3; ++dof)
      EXPECT_NEAR(got[dof], want[dof], 1e-11) << "d=" << d << " level=" << level;
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, HashBackendTest,
                         ::testing::Values(std::pair{1, 6}, std::pair{2, 5}, std::pair{3, 4},
                                           std::pair{5, 3}, std::pair{10, 3}));

TEST(HashBackend, MatchesReferenceOnAdaptiveGrid) {
  const auto f = [](std::span<const double> x) {
    return std::vector<double>{std::fabs(x[0] - 0.4) * (1.0 + x[1])};
  };
  GridStorage g(2);
  build_regular_grid(g, 3);
  for (int round = 0; round < 3; ++round) {
    const DenseGridData grid = hierarchize_function(g, 1, f);
    const auto ind = max_abs_indicator(
        std::span<const double>(grid.surplus.data(), grid.surplus.size()), grid.nno, 1);
    RefinementOptions opts;
    opts.epsilon = 1e-3;
    opts.max_level = 8;
    refine_by_surplus(g, 0, std::vector<double>(ind.begin(), ind.end()), opts);
  }
  const DenseGridData dense = hierarchize_function(g, 1, f);
  const HashGridEvaluator hash(dense);

  util::Rng rng(12);
  double got = 0.0;
  std::vector<double> want(1);
  for (int trial = 0; trial < 100; ++trial) {
    const auto x = rng.uniform_point(2);
    hash.evaluate(x.data(), &got);
    reference_interpolate(dense, x, want);
    EXPECT_NEAR(got, want[0], 1e-11);
  }
}

TEST(HashBackend, ExactAtGridPoints) {
  const auto f = [](std::span<const double> x) {
    return std::vector<double>{std::cos(3.0 * x[0]) + x[1] * x[2]};
  };
  GridStorage g(3);
  build_regular_grid(g, 4);
  const DenseGridData dense = hierarchize_function(g, 1, f);
  const HashGridEvaluator hash(dense);
  double value = 0.0;
  for (std::uint32_t p = 0; p < g.size(); p += 5) {
    const auto x = g.coordinates(p);
    hash.evaluate(x.data(), &value);
    EXPECT_NEAR(value, f(x)[0], 1e-11);
  }
}

TEST(HashBackend, LookupCountScalesWithDepthNotGridSize) {
  // The point of hash storage: evaluation visits only nodes whose support
  // contains x. At fixed dimension, deepening the grid grows nno
  // exponentially (~2^L per dimension) but the contributing set only
  // polynomially (one chain per level vector), so lookups/nno must collapse.
  const DenseGridData shallow = random_grid(3, 3, 1, 1);
  const DenseGridData deep = random_grid(3, 7, 1, 2);
  const HashGridEvaluator hs(shallow), hd(deep);
  util::Rng rng(3);
  double v = 0.0;

  const auto x = rng.uniform_point(3);
  hs.evaluate(x.data(), &v);
  const auto lookups_shallow = HashGridEvaluator::last_lookups();
  hd.evaluate(x.data(), &v);
  const auto lookups_deep = HashGridEvaluator::last_lookups();

  EXPECT_GT(lookups_shallow, 0u);
  const double nno_ratio = static_cast<double>(deep.nno) / shallow.nno;  // ~28x
  const double lookup_ratio =
      static_cast<double>(lookups_deep) / static_cast<double>(lookups_shallow);
  EXPECT_LT(lookup_ratio, 0.5 * nno_ratio);
  EXPECT_LT(lookups_deep, deep.nno);  // visits a strict subset of the grid
}

TEST(HashBackend, RejectsDuplicatePoints) {
  DenseGridData dense = random_grid(2, 2, 1, 4);
  // Duplicate the last point.
  dense.pairs.insert(dense.pairs.end(), dense.pairs.end() - 2, dense.pairs.end());
  dense.surplus.push_back(0.0);
  ++dense.nno;
  EXPECT_THROW(HashGridEvaluator{dense}, std::invalid_argument);
}

TEST(HashBackend, EmptyDofHandled) {
  const DenseGridData dense = random_grid(2, 1, 1, 5);  // root only
  const HashGridEvaluator hash(dense);
  double v = 0.0;
  const std::vector<double> x{0.3, 0.9};
  hash.evaluate(x.data(), &v);
  EXPECT_DOUBLE_EQ(v, dense.surplus_row(0)[0]);  // constant interpolant
}

}  // namespace
}  // namespace hddm::sg
