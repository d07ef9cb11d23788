// Compression round-trip property tests: core::compress is lossless, so
// core::decompress must reproduce the dense input bit-for-bit — pairs,
// surpluses, and point order — and interpolation on the round-tripped grid
// must be bit-identical to the dense path. Runs over random regular grids
// and randomly refined adaptive (ragged) grids, with and without the
// surplus reordering.
#include "core/compression.hpp"

#include <gtest/gtest.h>

#include <cstring>

#include "sparse_grid/adaptive.hpp"
#include "sparse_grid/regular.hpp"
#include "support/decompress.hpp"
#include "support/interpolate.hpp"
#include "util/rng.hpp"

namespace hddm::core {
namespace {

sg::DenseGridData with_random_surpluses(const sg::GridStorage& storage, int ndofs,
                                        std::uint64_t seed) {
  sg::DenseGridData dense = sg::make_dense_grid(storage, ndofs);
  util::Rng rng(seed);
  for (auto& s : dense.surplus) s = rng.uniform(-1.0, 1.0);
  return dense;
}

/// A ragged grid: random regular base, then random surplus-driven refinement
/// rounds (deterministic from `seed`). Always ancestor-closed.
sg::GridStorage random_adaptive_grid(int d, int base_level, int rounds, std::uint64_t seed) {
  sg::GridStorage storage(d);
  sg::build_regular_grid(storage, base_level);
  util::Rng rng(seed);
  for (int round = 0; round < rounds; ++round) {
    std::vector<double> indicators(storage.size());
    for (auto& v : indicators) v = rng.uniform();
    sg::RefinementOptions opts;
    opts.epsilon = 0.7;  // refine ~30% of candidates
    opts.max_level = base_level + rounds + 2;
    sg::refine_by_surplus(storage, 0, indicators, opts);
  }
  return storage;
}

void expect_bit_identical(const sg::DenseGridData& a, const sg::DenseGridData& b) {
  ASSERT_EQ(a.dim, b.dim);
  ASSERT_EQ(a.ndofs, b.ndofs);
  ASSERT_EQ(a.nno, b.nno);
  ASSERT_EQ(a.pairs.size(), b.pairs.size());
  ASSERT_EQ(a.surplus.size(), b.surplus.size());
  // Pairs: exact equality, same order. (Element-wise, not memcmp —
  // LevelIndex carries padding bytes with indeterminate values.)
  for (std::size_t k = 0; k < a.pairs.size(); ++k)
    ASSERT_EQ(a.pairs[k], b.pairs[k]) << "pair " << k;
  // Surpluses: bit-identical doubles (memcmp, so -0.0 vs 0.0 or NaN payload
  // changes would be caught too).
  EXPECT_EQ(0, std::memcmp(a.surplus.data(), b.surplus.data(),
                           a.surplus.size() * sizeof(double)));
}

void expect_interpolation_bit_identical(const sg::DenseGridData& original,
                                        const sg::DenseGridData& roundtripped,
                                        std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<double> want(static_cast<std::size_t>(original.ndofs));
  std::vector<double> got(want.size());
  for (int trial = 0; trial < 25; ++trial) {
    const std::vector<double> x = rng.uniform_point(original.dim);
    sg::reference_interpolate(original, x, want);
    sg::reference_interpolate(roundtripped, x, got);
    for (std::size_t dof = 0; dof < want.size(); ++dof)
      EXPECT_EQ(want[dof], got[dof]) << "dof " << dof << " trial " << trial;
  }
}

struct RoundTripCase {
  int d;
  int level;
  int ndofs;
  bool adaptive;
  bool reorder;
};

class CompressionRoundTripTest : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(CompressionRoundTripTest, DecompressReproducesDenseBitForBit) {
  const auto [d, level, ndofs, adaptive, reorder] = GetParam();
  const std::uint64_t seed = 0xC0FFEE + static_cast<std::uint64_t>(d * 31 + level);

  const sg::GridStorage storage = adaptive ? random_adaptive_grid(d, level, 2, seed)
                                           : [&] {
                                               sg::GridStorage s(d);
                                               sg::build_regular_grid(s, level);
                                               return s;
                                             }();
  const sg::DenseGridData dense = with_random_surpluses(storage, ndofs, seed + 1);
  const CompressedGridData compressed =
      compress(dense, CompressOptions{.reorder_points = reorder});
  const sg::DenseGridData back = decompress(compressed);

  expect_bit_identical(dense, back);
  expect_interpolation_bit_identical(dense, back, seed + 2);
}

INSTANTIATE_TEST_SUITE_P(
    GridShapes, CompressionRoundTripTest,
    ::testing::Values(RoundTripCase{1, 5, 2, false, true},   // 1-D deep
                      RoundTripCase{2, 4, 3, false, true},   // small regular
                      RoundTripCase{2, 4, 3, false, false},  // no reordering
                      RoundTripCase{6, 3, 8, false, true},   // mid-dim
                      RoundTripCase{10, 3, 4, false, true},  // high-dim shallow
                      RoundTripCase{59, 2, 2, false, true},  // paper dimension
                      RoundTripCase{2, 3, 2, true, true},    // adaptive ragged
                      RoundTripCase{3, 3, 5, true, true},    // adaptive ragged
                      RoundTripCase{3, 3, 5, true, false},   // adaptive, no reorder
                      RoundTripCase{5, 2, 1, true, true}),   // adaptive high-dim
    [](const ::testing::TestParamInfo<RoundTripCase>& info) {
      const auto& c = info.param;
      return std::string(c.adaptive ? "adaptive" : "regular") + "_d" + std::to_string(c.d) +
             "_l" + std::to_string(c.level) + "_nd" + std::to_string(c.ndofs) +
             (c.reorder ? "" : "_noreorder");
    });

TEST(CompressionRoundTrip, RootOnlyGrid) {
  sg::GridStorage storage(3);
  sg::build_regular_grid(storage, 1);
  const sg::DenseGridData dense = with_random_surpluses(storage, 2, 42);
  const sg::DenseGridData back = decompress(compress(dense));
  expect_bit_identical(dense, back);
}

TEST(CompressionRoundTrip, SurplusUpdateSurvivesRoundTrip) {
  // decompress() must reflect surpluses refreshed through update_surpluses,
  // not the values compress() originally saw.
  sg::GridStorage storage(3);
  sg::build_regular_grid(storage, 3);
  const sg::DenseGridData dense = with_random_surpluses(storage, 2, 7);
  CompressedGridData compressed = compress(dense);

  util::Rng rng(8);
  std::vector<double> fresh(dense.surplus.size());
  for (auto& v : fresh) v = rng.uniform(-2.0, 2.0);
  update_surpluses(compressed, fresh);

  const sg::DenseGridData back = decompress(compressed);
  ASSERT_EQ(back.surplus.size(), fresh.size());
  EXPECT_EQ(0, std::memcmp(back.surplus.data(), fresh.data(), fresh.size() * sizeof(double)));
}

}  // namespace
}  // namespace hddm::core
