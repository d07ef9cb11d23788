// Accuracy goldens: the equilibrium (Euler-equation) residuals of converged
// policies on a seeded off-grid sample, pinned against values committed
// here. Parity and bit-identity tests only prove that two paths agree; these
// say how accurate the one solution is. The sample has two halves per shock:
// interior points drawn uniformly from the unit cube, and points on the box
// faces (one coordinate pinned to 0 or 1), where IRBC's point solves once
// failed on the policy's kink and where the piecewise-linear interpolant is
// least accurate.
//
// The check is one-sided: a mean or max residual more than kSlack above its
// golden fails (accuracy got worse); any improvement passes. A change that
// moves solve bits on purpose re-records the goldens from the values the
// test prints, and says so in CHANGES.md. The goldens below were recorded
// with the solve bits of the benchmark's reference counts (Anderson depth 2
// and the Newton kink retry: irbc euler_error 4.2278651613285095e-4, olg
// 4.3425392278882924e-2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "converged_policies.hpp"
#include "util/rng.hpp"

namespace hddm::core {
namespace {

/// Relative slack of every golden: a residual above golden * (1 + kSlack)
/// fails.
constexpr double kSlack = 0.05;
constexpr int kSamplesPerShock = 24;
constexpr std::uint64_t kSampleSeed = 0x601D;

/// Mean and max residual of each half of the sample (the goldens' order).
struct Residuals {
  double interior_mean = 0.0;
  double interior_max = 0.0;
  double face_mean = 0.0;
  double face_max = 0.0;
};

Residuals sample_residuals(const DynamicModel& model, const PolicyEvaluator& policy) {
  util::Rng rng(kSampleSeed);
  const auto d = static_cast<std::size_t>(model.state_dim());
  std::vector<double> x(d);
  Residuals r;
  int n = 0;
  for (int z = 0; z < model.num_shocks(); ++z) {
    for (int s = 0; s < kSamplesPerShock; ++s, ++n) {
      for (double& xi : x) xi = rng.uniform();
      const double interior = model.equilibrium_residual(z, x, policy);
      const std::size_t t = rng.uniform_index(d);
      x[t] = rng.uniform() < 0.5 ? 0.0 : 1.0;
      const double face = model.equilibrium_residual(z, x, policy);
      r.interior_mean += interior;
      r.interior_max = std::max(r.interior_max, interior);
      r.face_mean += face;
      r.face_max = std::max(r.face_max, face);
    }
  }
  r.interior_mean /= n;
  r.face_mean /= n;
  return r;
}

void expect_within_goldens(const char* name, const Residuals& got, const Residuals& golden) {
  std::printf("%s residuals: interior mean %.17g max %.17g, face mean %.17g max %.17g\n", name,
              got.interior_mean, got.interior_max, got.face_mean, got.face_max);
  const auto within = [](double value, double gold) { return value <= gold * (1.0 + kSlack); };
  EXPECT_PRED2(within, got.interior_mean, golden.interior_mean) << name << " interior mean";
  EXPECT_PRED2(within, got.interior_max, golden.interior_max) << name << " interior max";
  EXPECT_PRED2(within, got.face_mean, golden.face_mean) << name << " face mean";
  EXPECT_PRED2(within, got.face_max, golden.face_max) << name << " face max";
}

TEST(AccuracyGoldens, IrbcTwoCountries) {
  const irbc::IrbcModel model = testing::irbc_model(2);
  const TimeIterationResult result = solve_time_iteration(model, testing::irbc_options());
  ASSERT_TRUE(result.converged);
  expect_within_goldens("irbc N=2", sample_residuals(model, *result.policy),
                        {0.00035351542690922308, 0.0011415856728946849, 0.00023087572839593459,
                         0.00076862454008463921});
}

TEST(AccuracyGoldens, IrbcThreeCountriesBenchmarkConfiguration) {
  const irbc::IrbcModel model = testing::irbc_model(3);
  const TimeIterationResult result = solve_time_iteration(model, testing::irbc_options());
  ASSERT_TRUE(result.converged);
  expect_within_goldens("irbc N=3", sample_residuals(model, *result.policy),
                        {0.00037315478940108091, 0.0010750607803016177, 0.00023119831245973477,
                         0.00069829477045169064});
}

TEST(AccuracyGoldens, ReducedOlgEightAgesLevelThree) {
  const olg::OlgModel model = testing::olg_model();
  const TimeIterationResult result = solve_time_iteration(model, testing::olg_options());
  ASSERT_TRUE(result.converged);
  expect_within_goldens("olg A=8 2x2", sample_residuals(model, *result.policy),
                        {0.20576455594559595, 3.9776134785831889, 0.47111635498357024,
                         18.805218924254852});
}

}  // namespace
}  // namespace hddm::core
