// Cross-ISA kernel parity: one parameterized suite that evaluates the gold
// (dense) reference and every optimized backend (x86 / avx / avx2 / avx512 /
// cuda(sim)) on identical grids across dim in {2, 4, 8} and asserts
// ULP-bounded agreement, replacing the earlier ad-hoc per-ISA spot checks
// (boundary-point comparisons and fixed absolute tolerances).
//
// Why ULP and not an absolute epsilon: the compressed kernels sum the same
// products as gold in a different association order, so the admissible
// discrepancy scales with the value's magnitude. Measuring in ULPs makes the
// bound magnitude-independent and catches near-zero disagreements an
// absolute 1e-12 would wave through. One refinement: when the sum partially
// cancels, the result's magnitude drops below its summands' and a fixed ULP
// count relative to the *result* over-penalizes legitimate resummation noise
// — so a value passes if it is within kMaxUlps of gold OR within
// kUnitUlps ULPs measured at the summands' unit magnitude (surpluses are
// O(1), hence absolute 64*eps ~ 1.4e-14, still ~70x tighter than the old
// absolute 1e-12 spot checks).
//
// Backends whose ISA the host cannot execute self-skip via
// kernels::kernel_supported (the same runtime dispatch the production path
// uses), so the suite is green — not failing — on pre-AVX-512 silicon.
#include "kernels/kernel_api.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <string>

#include <sstream>

#include "core/compression.hpp"
#include "serve/snapshot.hpp"
#include "sparse_grid/regular.hpp"
#include "util/rng.hpp"

namespace hddm::kernels {
namespace {

/// Distance in units-in-the-last-place between two doubles, via the
/// monotone total-order mapping of IEEE-754 bit patterns. 0 means equal
/// (+0.0 and -0.0 count as equal); differing signs give the distance
/// through zero.
std::uint64_t ulp_distance(double a, double b) {
  if (a == b) return 0;  // covers +0.0 == -0.0
  if (std::isnan(a) || std::isnan(b)) return UINT64_MAX;
  const auto ordered = [](double x) {
    const auto bits = std::bit_cast<std::uint64_t>(x);
    // Map to a monotonically increasing unsigned key: flip all bits for
    // negatives, set the sign bit for positives.
    return (bits & (1ULL << 63)) ? ~bits : bits | (1ULL << 63);
  };
  const std::uint64_t ka = ordered(a);
  const std::uint64_t kb = ordered(b);
  return ka > kb ? ka - kb : kb - ka;
}

TEST(UlpDistance, BehavesAsExpected) {
  EXPECT_EQ(ulp_distance(1.0, 1.0), 0u);
  EXPECT_EQ(ulp_distance(0.0, -0.0), 0u);
  EXPECT_EQ(ulp_distance(1.0, std::nextafter(1.0, 2.0)), 1u);
  EXPECT_EQ(ulp_distance(1.0, std::nextafter(std::nextafter(1.0, 2.0), 2.0)), 2u);
  EXPECT_EQ(ulp_distance(-1.0, std::nextafter(-1.0, -2.0)), 1u);
  EXPECT_GT(ulp_distance(1.0, 2.0), 1000u);
  EXPECT_EQ(ulp_distance(1.0, std::nan("")), UINT64_MAX);
}

struct ParityCase {
  KernelKind kind;
  int d;
  int level;
  int ndofs;
};

// The associativity-reordering error of summing n terms grows ~linearly in
// n * eps; 256 ULPs is ~5.7e-14 relative — two orders looser than observed
// for non-cancelling sums.
constexpr std::uint64_t kMaxUlps = 256;
// Cancellation tier: 64 ULPs at the summands' unit magnitude. The largest
// observed gold-vs-ISA discrepancy on these grids is ~5 unit ULPs.
constexpr double kUnitUlpTolerance = 64 * std::numeric_limits<double>::epsilon();

class KernelParityTest : public ::testing::TestWithParam<ParityCase> {};

TEST_P(KernelParityTest, UlpBoundedAgreementWithGold) {
  const auto [kind, d, level, ndofs] = GetParam();
  if (!kernel_supported(kind)) GTEST_SKIP() << "ISA not available on this host";

  sg::GridStorage storage(d);
  sg::build_regular_grid(storage, level);
  sg::DenseGridData dense = sg::make_dense_grid(storage, ndofs);
  util::Rng rng(0x9A17 + static_cast<std::uint64_t>(d * 101 + level));
  for (auto& s : dense.surplus) s = rng.uniform(-1.0, 1.0);
  const core::CompressedGridData compressed = core::compress(dense);

  const auto gold = make_kernel(KernelKind::Gold, &dense, &compressed);
  const auto kernel = make_kernel(kind, &dense, &compressed);

  std::vector<double> want(static_cast<std::size_t>(ndofs));
  std::vector<double> got(want.size());
  const auto check = [&](const std::vector<double>& x, const char* what) {
    gold->evaluate(x.data(), want.data());
    kernel->evaluate(x.data(), got.data());
    for (int dof = 0; dof < ndofs; ++dof) {
      const auto w = static_cast<std::size_t>(dof);
      const std::uint64_t ulps = ulp_distance(want[w], got[w]);
      if (ulps <= kMaxUlps) continue;
      EXPECT_LE(std::fabs(want[w] - got[w]), kUnitUlpTolerance)
          << kernel_name(kind) << " vs gold at " << what << ", dof " << dof << ": "
          << want[w] << " vs " << got[w] << " (" << ulps << " ulps)";
    }
  };

  // Interior random points.
  for (int trial = 0; trial < 50; ++trial) check(rng.uniform_point(d), "random interior point");

  // Boundary and midpoint probes — the early-exit stress cases the old
  // spot checks covered: corners (every hat 0 or 1), mixed edges, centers.
  std::vector<double> x(static_cast<std::size_t>(d));
  const double probes[] = {0.0, 1.0, 0.5, 0.25};
  for (const double lead : probes) {
    for (std::size_t t = 0; t < x.size(); ++t) x[t] = (t == 0) ? lead : 1.0 - lead;
    check(x, "boundary/midpoint probe");
  }
  std::fill(x.begin(), x.end(), 0.0);
  check(x, "origin corner");
  std::fill(x.begin(), x.end(), 1.0);
  check(x, "far corner");
  // Exact grid-point coordinates (interpolation property territory).
  for (std::uint32_t p = 0; p < storage.size(); p += std::max(1u, storage.size() / 8))
    check(storage.coordinates(p), "grid point");
}

std::vector<ParityCase> parity_cases() {
  std::vector<ParityCase> cases;
  for (const KernelKind kind :
       {KernelKind::X86, KernelKind::Avx, KernelKind::Avx2, KernelKind::Avx512,
        KernelKind::SimGpu}) {
    cases.push_back({kind, 2, 5, 6});    // low-dim deep
    cases.push_back({kind, 4, 4, 7});    // ndofs not a multiple of vector width
    cases.push_back({kind, 8, 3, 16});   // two full AVX-512 vectors
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(GoldVsIsa, KernelParityTest, ::testing::ValuesIn(parity_cases()),
                         [](const ::testing::TestParamInfo<ParityCase>& info) {
                           const auto& c = info.param;
                           std::string name(kernel_name(c.kind));
                           for (auto& ch : name)
                             if (!isalnum(static_cast<unsigned char>(ch))) ch = '_';
                           return name + "_d" + std::to_string(c.d) + "_l" +
                                  std::to_string(c.level) + "_nd" + std::to_string(c.ndofs);
                         });

// --- Snapshot ISA revalidation -------------------------------------------
//
// A snapshot records the kernel tier it was saved under; load() keeps it
// whenever this host can execute it. An unknown (or unexecutable) tier
// routes through the gold reference kernel, whose agreement with every tier
// is exactly the ULP contract established above — so these tests live next
// to the parity suite and reuse its bound.

std::shared_ptr<core::AsgPolicy> parity_policy(KernelKind kind) {
  sg::GridStorage storage(3);
  sg::build_regular_grid(storage, 4);
  util::Rng rng(0x15A);
  std::vector<double> surpluses(static_cast<std::size_t>(storage.size()) * 5);
  for (auto& s : surpluses) s = rng.uniform(-1.0, 1.0);
  std::vector<std::unique_ptr<core::ShockGrid>> grids;
  grids.push_back(std::make_unique<core::ShockGrid>(sg::make_dense_grid(storage, 5, surpluses), kind));
  return std::make_shared<core::AsgPolicy>(5, std::move(grids));
}

TEST(SnapshotIsaRevalidation, MatchingTierKeepsHostKernel) {
  const KernelKind host = best_supported_kernel();
  const auto policy = parity_policy(host);
  std::stringstream buffer;
  serve::SnapshotMeta meta;
  meta.model = "parity";
  serve::save_snapshot(*policy, meta, buffer);  // records host tier

  const serve::LoadedSnapshot loaded = serve::load_snapshot(buffer);
  EXPECT_FALSE(loaded.isa_fallback);
  EXPECT_EQ(loaded.kernel, host);
  EXPECT_EQ(loaded.policy->kernel_kind(), host);
}

TEST(SnapshotIsaRevalidation, ForeignTierFallsBackToGoldUlpBounded) {
  // Forge a tier name no kernel carries (a build with tiers this one does
  // not know). The load must not trust it — it routes through gold — and
  // the served values must stay inside the parity ULP bound against the
  // source policy's own tier.
  const auto policy = parity_policy(KernelKind::X86);
  std::stringstream buffer;
  serve::SnapshotMeta meta;
  meta.model = "parity";
  meta.isa_tier = "avx9999";
  serve::save_snapshot(*policy, meta, buffer);

  const serve::LoadedSnapshot loaded = serve::load_snapshot(buffer);
  EXPECT_TRUE(loaded.isa_fallback);
  EXPECT_EQ(loaded.kernel, KernelKind::Gold);
  EXPECT_EQ(loaded.policy->kernel_kind(), KernelKind::Gold);

  util::Rng rng(0xF00);
  std::vector<double> want(5), got(5);
  for (int trial = 0; trial < 25; ++trial) {
    const auto x = rng.uniform_point(3);
    policy->evaluate(0, x, want);
    loaded.policy->evaluate(0, x, got);
    for (std::size_t w = 0; w < want.size(); ++w) {
      const std::uint64_t ulps = ulp_distance(want[w], got[w]);
      if (ulps <= kMaxUlps) continue;
      EXPECT_LE(std::fabs(want[w] - got[w]), kUnitUlpTolerance)
          << "gold fallback vs x86 source at trial " << trial << ", dof " << w << ": "
          << want[w] << " vs " << got[w] << " (" << ulps << " ulps)";
    }
  }
}

TEST(SnapshotIsaRevalidation, RecordedTierKeptIffSupported) {
  // Every real tier name: a tier this host runs is kept as recorded (no
  // fallback, bitwise the source policy's answers); one it cannot run — an
  // avx512 snapshot on AVX2 silicon, say — goes to gold with the flag set.
  util::Rng rng(0x7135);
  std::vector<double> want(5), got(5);
  for (const KernelKind recorded : kAllKernelKinds) {
    const bool supported = kernel_supported(recorded);
    const auto policy = parity_policy(supported ? recorded : KernelKind::X86);
    std::stringstream buffer;
    serve::SnapshotMeta meta;
    meta.model = "parity";
    meta.isa_tier = std::string(kernel_name(recorded));
    serve::save_snapshot(*policy, meta, buffer);

    const serve::LoadedSnapshot loaded = serve::load_snapshot(buffer);
    const KernelKind expected = supported ? recorded : KernelKind::Gold;
    EXPECT_EQ(loaded.isa_fallback, !supported) << meta.isa_tier;
    EXPECT_EQ(loaded.kernel, expected) << meta.isa_tier;
    EXPECT_EQ(loaded.policy->kernel_kind(), expected) << meta.isa_tier;
    if (!supported) continue;
    for (int trial = 0; trial < 10; ++trial) {
      const auto x = rng.uniform_point(3);
      policy->evaluate(0, x, want);
      loaded.policy->evaluate(0, x, got);
      EXPECT_EQ(0, std::memcmp(want.data(), got.data(), want.size() * sizeof(double)))
          << meta.isa_tier << " snapshot answers differently after load";
    }
  }
}

}  // namespace
}  // namespace hddm::kernels
