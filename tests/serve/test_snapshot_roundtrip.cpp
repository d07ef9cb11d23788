// Snapshot round-trip bit-identity: a converged policy saved and reloaded
// must answer every query — evaluate, evaluate_batch, evaluate_gather, in
// contiguous and strided output layouts — with bitwise identical doubles.
// The battery runs the real converged artifacts the serving layer exists
// for: IRBC and OLG policies on regular and adaptive grids.
#include "serve/snapshot.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <sstream>

#include "core/time_iteration.hpp"
#include "irbc/irbc_model.hpp"
#include "olg/olg_model.hpp"
#include "serve/policy_server.hpp"
#include "util/rng.hpp"

namespace hddm::serve {
namespace {

core::TimeIterationOptions small_solve(bool adaptive) {
  core::TimeIterationOptions opts;
  opts.base_level = 2;
  opts.max_iterations = 4;
  opts.tolerance = 0.0;  // fixed iteration count: fast and deterministic
  if (adaptive) {
    opts.refine_epsilon = 1e-3;
    opts.max_level = 3;
  }
  return opts;
}

/// Asserts that `restored` answers every query surface bitwise like
/// `original`.
void expect_bitwise_same(const core::AsgPolicy& original, const core::AsgPolicy& restored,
                         const std::string& model_name) {
  ASSERT_EQ(restored.num_shocks(), original.num_shocks());
  ASSERT_EQ(restored.ndofs(), original.ndofs());
  EXPECT_EQ(restored.total_points(), original.total_points());
  EXPECT_EQ(restored.points_per_shock(), original.points_per_shock());

  const int Ns = original.num_shocks();
  const auto nd = static_cast<std::size_t>(original.ndofs());
  const int d = original.grid(0).dense().dim;
  util::Rng rng(0xBEEF);

  // Per-point evaluate: bit-identical at random and boundary points.
  std::vector<double> a(nd), b(nd);
  for (int trial = 0; trial < 25; ++trial) {
    const auto x = rng.uniform_point(d);
    for (int z = 0; z < Ns; ++z) {
      original.evaluate(z, x, a);
      restored.evaluate(z, x, b);
      EXPECT_EQ(0, std::memcmp(a.data(), b.data(), nd * sizeof(double)))
          << model_name << ": evaluate mismatch at shock " << z << ", trial " << trial;
    }
  }

  // Gathered evaluation across all shocks, contiguous (stride == ndofs) and
  // interleaved (stride > ndofs, the scatter layout Newton uses) outputs.
  const std::size_t npoints = 17;
  std::vector<double> xs(npoints * static_cast<std::size_t>(d));
  for (auto& xi : xs) xi = rng.uniform();
  std::vector<core::GatherRequest> requests;
  for (std::size_t k = 0; k < npoints; ++k)
    for (int z = 0; z < Ns; ++z)
      requests.push_back({z, static_cast<std::uint32_t>(k)});

  for (const std::size_t stride : {nd, nd + 3}) {
    std::vector<double> got(requests.size() * stride, -7.0);
    std::vector<double> want(requests.size() * stride, -7.0);
    original.evaluate_gather(requests, xs, npoints, want, stride);
    restored.evaluate_gather(requests, xs, npoints, got, stride);
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(), want.size() * sizeof(double)))
        << model_name << ": evaluate_gather mismatch at out_stride " << stride;
  }

  // evaluate_batch over a contiguous run.
  std::vector<double> batch_want(npoints * nd), batch_got(npoints * nd);
  for (int z = 0; z < Ns; ++z) {
    original.evaluate_batch(z, xs, batch_want, npoints);
    restored.evaluate_batch(z, xs, batch_got, npoints);
    EXPECT_EQ(0, std::memcmp(batch_want.data(), batch_got.data(),
                             batch_want.size() * sizeof(double)))
        << model_name << ": evaluate_batch mismatch at shock " << z;
  }
}

/// Saves, reloads (pinning the source's own kernel kind so the comparison
/// is same-kernel), and asserts bitwise identity on every query surface.
void expect_bitwise_roundtrip(const core::AsgPolicy& original, const std::string& model_name) {
  SnapshotMeta meta;
  meta.model = model_name;
  meta.params = "test";
  std::stringstream buffer;
  save_snapshot(original, meta, buffer);
  const LoadedSnapshot loaded = load_snapshot(buffer, original.kernel_kind());
  EXPECT_EQ(loaded.meta.model, model_name);
  expect_bitwise_same(original, *loaded.policy, model_name);
}

TEST(SnapshotRoundTrip, OlgRegularGridBitIdentical) {
  const olg::OlgModel model(olg::build_economy(olg::reduced_calibration(4, 2, 1)));
  const auto result = core::solve_time_iteration(model, small_solve(/*adaptive=*/false));
  expect_bitwise_roundtrip(*result.policy, "olg-regular");
}

TEST(SnapshotRoundTrip, OlgAdaptiveGridBitIdentical) {
  const olg::OlgModel model(olg::build_economy(olg::reduced_calibration(4, 2, 1)));
  const auto result = core::solve_time_iteration(model, small_solve(/*adaptive=*/true));
  expect_bitwise_roundtrip(*result.policy, "olg-adaptive");
}

TEST(SnapshotRoundTrip, IrbcRegularGridBitIdentical) {
  irbc::IrbcCalibration cal;
  cal.countries = 2;
  cal.max_shock_bits = 2;
  const irbc::IrbcModel model(cal);
  const auto result = core::solve_time_iteration(model, small_solve(/*adaptive=*/false));
  expect_bitwise_roundtrip(*result.policy, "irbc-regular");
}

TEST(SnapshotRoundTrip, IrbcAdaptiveGridBitIdentical) {
  irbc::IrbcCalibration cal;
  cal.countries = 2;
  cal.max_shock_bits = 2;
  const irbc::IrbcModel model(cal);
  const auto result = core::solve_time_iteration(model, small_solve(/*adaptive=*/true));
  expect_bitwise_roundtrip(*result.policy, "irbc-adaptive");
}

TEST(SnapshotRoundTrip, DefaultSolveServesOnX86BitIdentical) {
  // A default solve records the x86 tier, which every host runs: the default
  // load rule (no forced kernel) keeps it, and the server answers exactly
  // like the solver's own policy instead of through the gold fallback.
  const olg::OlgModel model(olg::build_economy(olg::reduced_calibration(4, 2, 1)));
  const core::TimeIterationOptions opts = small_solve(/*adaptive=*/true);
  ASSERT_EQ(opts.kernel, kernels::KernelKind::X86);
  const auto result = core::solve_time_iteration(model, opts);
  const std::string path = ::testing::TempDir() + "/hddm_default_solve.hsnap";
  SnapshotMeta meta;
  meta.model = "olg";
  save_snapshot(*result.policy, meta, path);

  const LoadedSnapshot loaded = load_snapshot(path);
  EXPECT_EQ(loaded.meta.isa_tier, "x86");
  EXPECT_EQ(loaded.kernel, kernels::KernelKind::X86);
  EXPECT_FALSE(loaded.isa_fallback);
  expect_bitwise_same(*result.policy, *loaded.policy, "olg-default");

  PolicyServer server;
  server.load_and_publish(path);
  std::remove(path.c_str());
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.kernel, kernels::KernelKind::X86);
  EXPECT_EQ(stats.isa_fallbacks, 0u);
  expect_bitwise_same(*result.policy, *server.current()->policy, "olg-default-served");
}

TEST(SnapshotRoundTrip, SaveIsDeterministic) {
  // Format stability underpins the CRC and the bit-identity battery: the
  // same policy must serialize to the same bytes, and a load -> save cycle
  // must reproduce them (no hidden state leaks into the layout).
  const olg::OlgModel model(olg::build_economy(olg::reduced_calibration(4, 2, 1)));
  const auto result = core::solve_time_iteration(model, small_solve(false));
  SnapshotMeta meta;
  meta.model = "olg";
  meta.params = "ages=4";
  meta.created_unix = 1754600000;

  std::stringstream first, second;
  save_snapshot(*result.policy, meta, first);
  save_snapshot(*result.policy, meta, second);
  EXPECT_EQ(first.str(), second.str());

  const LoadedSnapshot loaded = load_snapshot(first, result.policy->kernel_kind());
  std::stringstream resaved;
  save_snapshot(*loaded.policy, loaded.meta, resaved);
  EXPECT_EQ(second.str(), resaved.str());
}

TEST(SnapshotRoundTrip, MetadataSurvives) {
  const olg::OlgModel model(olg::build_economy(olg::reduced_calibration(4, 2, 1)));
  const auto result = core::solve_time_iteration(model, small_solve(false));

  SnapshotMeta meta;
  meta.model = "olg";
  meta.params = "ages=4 eta=2 ntax=1";
  meta.git_sha = "cafe1234";
  meta.isa_tier = "x86";
  meta.created_unix = 1754600000;

  std::stringstream buffer;
  save_snapshot(*result.policy, meta, buffer);
  const LoadedSnapshot loaded = load_snapshot(buffer, kernels::KernelKind::X86);
  EXPECT_EQ(loaded.meta.model, meta.model);
  EXPECT_EQ(loaded.meta.params, meta.params);
  EXPECT_EQ(loaded.meta.git_sha, meta.git_sha);
  EXPECT_EQ(loaded.meta.isa_tier, meta.isa_tier);
  EXPECT_EQ(loaded.meta.created_unix, meta.created_unix);
}

TEST(SnapshotRoundTrip, FileRoundTrip) {
  const olg::OlgModel model(olg::build_economy(olg::reduced_calibration(4, 2, 1)));
  const auto result = core::solve_time_iteration(model, small_solve(false));
  const std::string path = ::testing::TempDir() + "/hddm_snapshot_test.hsnap";
  SnapshotMeta meta;
  meta.model = "olg";
  save_snapshot(*result.policy, meta, path);
  const LoadedSnapshot loaded = load_snapshot(path, result.policy->kernel_kind());
  EXPECT_EQ(loaded.policy->total_points(), result.policy->total_points());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace hddm::serve
