#include "sparse_grid/adaptive.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sparse_grid/hierarchize.hpp"
#include "sparse_grid/regular.hpp"

namespace hddm::sg {
namespace {

TEST(Adaptive, NoRefinementBelowThreshold) {
  GridStorage g(2);
  build_regular_grid(g, 2);
  const std::vector<double> indicators(g.size(), 1e-6);
  RefinementOptions opts;
  opts.epsilon = 1e-3;
  const auto report = refine_by_surplus(g, 0, indicators, opts);
  EXPECT_EQ(report.candidates_refined, 0u);
  EXPECT_EQ(report.total_added(), 0u);
}

TEST(Adaptive, RefinesAllCandidatesAtZeroThreshold) {
  GridStorage g(2);
  build_regular_grid(g, 2);
  const std::uint32_t before = g.size();
  const std::vector<double> indicators(g.size(), 1.0);
  RefinementOptions opts;
  opts.epsilon = 0.5;
  const auto report = refine_by_surplus(g, 0, indicators, opts);
  EXPECT_EQ(report.candidates_refined, before);
  // Refining every level-<=2 point yields exactly the level-3 regular grid.
  EXPECT_EQ(g.size(), count_regular_points(2, 3));
}

TEST(Adaptive, RespectssMaxLevel) {
  GridStorage g(1);
  build_regular_grid(g, 3);
  const std::vector<double> indicators(g.size(), 1.0);
  RefinementOptions opts;
  opts.epsilon = 0.1;
  opts.max_level = 3;  // children would be level 4
  const auto report = refine_by_surplus(g, 0, indicators, opts);
  EXPECT_EQ(report.total_added(), 0u);
}

TEST(Adaptive, ChildrenOfSingleRefinedPoint) {
  GridStorage g(2);
  build_regular_grid(g, 1);  // just the root
  const std::vector<double> indicators{1.0};
  RefinementOptions opts;
  opts.epsilon = 0.5;
  const auto report = refine_by_surplus(g, 0, indicators, opts);
  // Root has 2 children per dimension.
  EXPECT_EQ(report.children_added, 4u);
  EXPECT_EQ(report.ancestors_added, 0u);
  EXPECT_EQ(g.size(), 5u);
}

TEST(Adaptive, ClosureKeepsGridAncestorComplete) {
  // Deep chain: refine only the "rightmost" point for several rounds, then
  // verify ancestor closure.
  GridStorage g(2);
  build_regular_grid(g, 2);
  std::uint32_t first = 0;
  std::vector<double> indicators(g.size(), 0.0);
  indicators.back() = 1.0;  // refine one level-2 point only
  RefinementOptions opts;
  opts.epsilon = 0.5;
  opts.max_level = 6;
  for (int round = 0; round < 3; ++round) {
    const std::uint32_t before = g.size();
    refine_by_surplus(g, first, indicators, opts);
    first = before;
    indicators.assign(g.size() - before, 0.0);
    if (indicators.empty()) break;
    indicators.back() = 1.0;
  }
  const std::uint32_t size_before = g.size();
  for (std::uint32_t p = 0; p < size_before; ++p) EXPECT_EQ(g.close_ancestors(p), 0u);
}

TEST(Adaptive, IndicatorRangeMismatchThrows) {
  GridStorage g(2);
  build_regular_grid(g, 2);
  const std::vector<double> indicators(3, 1.0);
  EXPECT_THROW((void)refine_by_surplus(g, 0, indicators, RefinementOptions{}),
               std::invalid_argument);
}

TEST(Adaptive, MaxAbsIndicatorPicksRowMax) {
  const std::vector<double> surplus{1.0, -3.0, 0.5, 0.2, -0.1, 0.05};
  const auto ind = max_abs_indicator(surplus, 2, 3);
  ASSERT_EQ(ind.size(), 2u);
  EXPECT_DOUBLE_EQ(ind[0], 3.0);
  EXPECT_DOUBLE_EQ(ind[1], 0.2);
}

TEST(Adaptive, MaxAbsIndicatorSizeMismatchThrows) {
  const std::vector<double> surplus(5, 1.0);
  EXPECT_THROW((void)max_abs_indicator(surplus, 2, 3), std::invalid_argument);
}

TEST(Adaptive, LocalFeatureDrivesLocalRefinement) {
  // A function with a sharp bump at x ~ (0.25, 0.25): after adaptive rounds
  // driven by real surpluses, refined points must cluster near the bump.
  // Wide enough for the level-3 base grid to see it (a needle the coarse
  // grid misses entirely is the classic ASG failure mode, not a test goal).
  const auto f = [](std::span<const double> x) {
    const double dx = x[0] - 0.25, dy = x[1] - 0.25;
    return std::vector<double>{std::exp(-20.0 * (dx * dx + dy * dy))};
  };
  GridStorage g(2);
  build_regular_grid(g, 3);
  std::uint32_t first_candidate = 0;

  RefinementOptions opts;
  opts.epsilon = 5e-2;
  opts.max_level = 7;
  for (int round = 0; round < 4; ++round) {
    const DenseGridData grid = hierarchize_function(g, 1, f);
    const auto all = max_abs_indicator(
        std::span<const double>(grid.surplus.data(), grid.surplus.size()), grid.nno, 1);
    const std::vector<double> tail(all.begin() + first_candidate, all.end());
    const std::uint32_t before = g.size();
    refine_by_surplus(g, first_candidate, tail, opts);
    first_candidate = before;
    if (g.size() == before) break;
  }

  // Count deep points (level sum >= 7, i.e. beyond the level-3 base grid by
  // several refinement generations) near and far from the bump. Piecewise-
  // linear surpluses peak on the bump's *shoulders* (where curvature vs. the
  // coarse interpolant is largest), so "near" extends to the shoulder radius.
  int near = 0, far = 0;
  for (std::uint32_t p = 0; p < g.size(); ++p) {
    if (g.level_sum(p) < 7) continue;
    const auto x = g.coordinates(p);
    const double dist = std::hypot(x[0] - 0.25, x[1] - 0.25);
    (dist < 0.65 ? near : far) += 1;
  }
  EXPECT_GT(near, 3 * std::max(far, 1));
}

}  // namespace
}  // namespace hddm::sg
