#include "core/anderson.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sparse_grid/grid_storage.hpp"
#include "sparse_grid/regular.hpp"

namespace hddm::core {
namespace {

/// One shock on the regular level-`level` grid in d = 2, one dof, whose
/// surpluses are `surplus` (the mixer combines them as given).
std::vector<std::unique_ptr<ShockGrid>> one_shock(int level, const std::vector<double>& surplus) {
  sg::GridStorage storage(2);
  sg::build_regular_grid(storage, level);
  std::vector<std::unique_ptr<ShockGrid>> grids;
  grids.push_back(std::make_unique<ShockGrid>(sg::make_dense_grid(storage, 1, surplus),
                                              kernels::KernelKind::X86));
  return grids;
}

std::size_t points(int level) { return sg::count_regular_points(2, level); }

/// b_i = 1 + i / 4 on the level-2 points: a linear map's constant term.
std::vector<double> ramp() {
  std::vector<double> b(points(2));
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1.0 + 0.25 * static_cast<double>(i);
  return b;
}

/// The residual argument of a one-shock mix (viewing `f`).
std::vector<std::span<const double>> rows(const std::vector<double>& f) { return {f}; }

/// y = a * x, elementwise.
std::vector<double> scaled(double a, const std::vector<double>& x) {
  std::vector<double> y(x);
  for (double& v : y) v *= a;
  return y;
}

TEST(AndersonMixer, LinearMapReachesItsFixedPointInOneMix) {
  // x -> b + rho x from x_0 = 0: g_0 = b (f_0 = b), then x_1 = b gives
  // g_1 = (1 + rho) b (f_1 = rho b). One difference column spans the
  // residuals, so the mix is the fixed point b / (1 - rho).
  constexpr double rho = 0.9;
  const std::vector<double> b = ramp();
  AndersonMixer mixer(2);
  const auto step0 = one_shock(2, b);
  const MixOutcome first = mixer.mix(step0, rows(b));
  EXPECT_EQ(first.columns, 0);
  EXPECT_FALSE(first.restarted);
  EXPECT_EQ(step0[0]->dense().surplus[3], b[3]);  // the plain update

  const auto step1 = one_shock(2, scaled(1.0 + rho, b));
  const MixOutcome second = mixer.mix(step1, rows(scaled(rho, b)));
  EXPECT_EQ(second.columns, 1);
  EXPECT_FALSE(second.restarted);
  const auto& mixed = step1[0]->dense().surplus;
  for (std::size_t i = 0; i < b.size(); ++i) EXPECT_NEAR(mixed[i], b[i] / (1.0 - rho), 1e-12);
  // The compressed copy the kernel walks follows the mixed surpluses.
  const ShockGrid& grid = *step1[0];
  for (std::uint32_t p = 0; p < grid.num_points(); ++p)
    EXPECT_EQ(grid.compressed().surplus_row(p)[0], mixed[grid.compressed().order[p]]);
}

TEST(AndersonMixer, RepeatedStepDropsTheZeroColumn) {
  // Stepping the same p_next twice repeats g and f bit for bit: the
  // difference column is zero and is dropped, leaving the plain update.
  const std::vector<double> b = ramp();
  const std::vector<double> residual = scaled(0.5, b);
  AndersonMixer mixer(2);
  for (int rep = 0; rep < 3; ++rep) {
    const auto grids = one_shock(2, b);
    const MixOutcome out = mixer.mix(grids, rows(residual));
    EXPECT_EQ(out.columns, 0) << "rep " << rep;
    EXPECT_FALSE(out.restarted) << "rep " << rep;
    EXPECT_EQ(grids[0]->dense().surplus, (util::aligned_vector<double>(b.begin(), b.end())));
  }
}

TEST(AndersonMixer, NewPointSetRestartsTheHistory) {
  const std::vector<double> b = ramp();
  AndersonMixer mixer(2);
  (void)mixer.mix(one_shock(2, b), rows(b));
  const std::vector<double> finer(points(3), 0.5);
  const auto grids = one_shock(3, finer);
  const MixOutcome out = mixer.mix(grids, rows(scaled(0.1, finer)));
  EXPECT_TRUE(out.restarted);
  EXPECT_EQ(out.columns, 0);
  EXPECT_EQ(grids[0]->dense().surplus[0], 0.5);
  // The next step on the new point set mixes against it again.
  const MixOutcome next = mixer.mix(one_shock(3, finer), rows(scaled(0.05, finer)));
  EXPECT_FALSE(next.restarted);
  EXPECT_EQ(next.columns, 1);
}

TEST(AndersonMixer, GrowingResidualRestartsTheHistory) {
  const std::vector<double> b = ramp();
  AndersonMixer mixer(2);
  (void)mixer.mix(one_shock(2, b), rows(scaled(0.1, b)));
  const MixOutcome out = mixer.mix(one_shock(2, b), rows(b));
  EXPECT_TRUE(out.restarted);
  EXPECT_EQ(out.columns, 0);
}

TEST(AndersonMixer, DepthBoundsTheColumnsAndZeroNeverMixes) {
  // Shrinking residuals in independent directions: every column is kept up
  // to the depth.
  const std::size_t n = points(2);
  for (const int depth : {0, 1, 2}) {
    AndersonMixer mixer(depth);
    int columns = 0;
    for (std::size_t step = 0; step < 4; ++step) {
      std::vector<double> f(n, 0.0);
      f[step] = 1.0 / static_cast<double>(1 + step);
      columns = mixer.mix(one_shock(2, ramp()), rows(f)).columns;
    }
    EXPECT_EQ(columns, depth) << "depth " << depth;
  }
  EXPECT_THROW(AndersonMixer(-1), std::invalid_argument);
}

TEST(AndersonMixer, RejectsResidualRowsThatDoNotMatchTheGrid) {
  AndersonMixer mixer(2);
  EXPECT_THROW((void)mixer.mix(one_shock(2, ramp()), rows({1.0, 2.0})), std::invalid_argument);
  EXPECT_THROW((void)mixer.mix(one_shock(2, ramp()), {}), std::invalid_argument);
}

}  // namespace
}  // namespace hddm::core
