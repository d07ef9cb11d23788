#include "core/compression.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <tuple>

#include "sparse_grid/hierarchize.hpp"
#include "sparse_grid/regular.hpp"
#include "support/decompress.hpp"
#include "util/rng.hpp"

namespace hddm::core {
namespace {

sg::DenseGridData random_dense_grid(int d, int level, int ndofs, std::uint64_t seed) {
  sg::GridStorage g(d);
  sg::build_regular_grid(g, level);
  sg::DenseGridData dense = sg::make_dense_grid(g, ndofs);
  util::Rng rng(seed);
  for (auto& s : dense.surplus) s = rng.uniform(-1.0, 1.0);
  return dense;
}

// --- Pair remapping (Fig. 3) ------------------------------------------------

TEST(Remap, RootPairBecomesZero) {
  const RemappedPair rp = remap_pair(sg::kRootPair);
  EXPECT_TRUE(rp.is_zero());
}

TEST(Remap, NonRootPairsAreNonZero) {
  for (const sg::LevelIndex li :
       {sg::LevelIndex{2, 0}, {2, 2}, {3, 1}, {3, 3}, {4, 1}, {4, 7}, {6, 31}}) {
    EXPECT_FALSE(remap_pair(li).is_zero()) << "l=" << int(li.l) << " i=" << li.i;
  }
}

TEST(Remap, LevelMapsToTwoLMinusTwo) {
  EXPECT_EQ(remap_pair({3, 1}).l, 4u);
  EXPECT_EQ(remap_pair({4, 3}).l, 6u);
  EXPECT_EQ(remap_pair({2, 0}).l, 2u);
}

TEST(Remap, RoundTripsAllValidPairs) {
  for (sg::level_t l = 1; l <= 8; ++l) {
    const sg::index_t top = sg::index_t{1} << l;
    for (sg::index_t i = 0; i <= top; ++i) {
      const sg::LevelIndex li{l, i};
      if (!sg::is_valid_pair(li)) continue;
      EXPECT_EQ(unmap_pair(remap_pair(li)), li);
    }
  }
}

TEST(Remap, RemappedPairsAreDistinct) {
  // Bijectivity over the valid pair universe up to level 8.
  std::set<std::pair<std::uint32_t, std::uint32_t>> seen;
  for (sg::level_t l = 1; l <= 8; ++l) {
    const sg::index_t top = sg::index_t{1} << l;
    for (sg::index_t i = 0; i <= top; ++i) {
      if (!sg::is_valid_pair({l, i})) continue;
      const RemappedPair rp = remap_pair({l, i});
      EXPECT_TRUE(seen.emplace(rp.l, rp.i).second)
          << "collision at l=" << int(l) << " i=" << i;
    }
  }
}

// --- Table I: xps sizes ------------------------------------------------------

TEST(CompressTableI, PaperLevel3XpsIs237) {
  // d=59, level 3: 4 distinct non-root 1-D pairs per dimension
  // (levels 2 and 3, two indices each) -> 4*59 + 1 sentinel = 237.
  const auto dense = random_dense_grid(59, 3, 1, 1);
  EXPECT_EQ(dense.nno, 7081u);
  const CompressedGridData c = compress(dense);
  EXPECT_EQ(c.xps_size(), 237u);
}

TEST(CompressTableI, PaperLevel4XpsIs473) {
  // Level 4 adds 4 odd level-4 indices per dimension: 8*59 + 1 = 473.
  const auto dense = random_dense_grid(59, 4, 1, 2);
  EXPECT_EQ(dense.nno, 281077u);
  const CompressedGridData c = compress(dense);
  EXPECT_EQ(c.xps_size(), 473u);
}

TEST(CompressTableI, NfreqMatchesLevelMinusOne) {
  // A regular level-n grid has at most n-1 non-root dimensions per point.
  for (int level = 2; level <= 4; ++level) {
    const auto dense = random_dense_grid(8, level, 1, 3);
    const CompressedGridData c = compress(dense);
    EXPECT_EQ(c.nfreq, level - 1) << "level " << level;
  }
}

TEST(CompressStats, ZeroFractionNearPaperValue) {
  // Fig. 3 reports ~96.8% zeros for the d=59 example; our level-3 grid gives
  // 1 - 13924/(7081*59) = 96.67%.
  const auto dense = random_dense_grid(59, 3, 1, 4);
  const CompressedGridData c = compress(dense);
  EXPECT_NEAR(c.stats.xi_zero_fraction, 0.9667, 5e-4);
}

TEST(CompressStats, CompressedIndexSmallerThanDense) {
  const auto dense = random_dense_grid(59, 3, 1, 5);
  const CompressedGridData c = compress(dense);
  EXPECT_LT(c.stats.compressed_bytes, c.stats.dense_bytes);
  // The paper's ~d/nfreq argument: chains walk nno*nfreq instead of nno*d.
  EXPECT_LT(static_cast<double>(c.nfreq), 0.1 * 59);
}

// --- Structural invariants ----------------------------------------------------

class CompressStructureTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CompressStructureTest, ChainsReferenceValidXpsEntries) {
  const auto [d, level] = GetParam();
  const auto dense = random_dense_grid(d, level, 3, 6);
  const CompressedGridData c = compress(dense);

  ASSERT_EQ(c.nno, dense.nno);
  for (std::uint32_t p = 0; p < c.nno; ++p) {
    const std::uint32_t* chain = c.chain_row(p);
    bool terminated = false;
    for (int f = 0; f < c.nfreq; ++f) {
      if (chain[f] == 0) {
        terminated = true;
      } else {
        EXPECT_FALSE(terminated) << "nonzero entry after terminator";
        ASSERT_LT(chain[f], c.xps.size());
        const XpsEntry& e = c.xps[chain[f]];
        EXPECT_LT(e.j, static_cast<std::uint32_t>(d));
        EXPECT_GT(e.l, 1);  // root factors are compressed away
        EXPECT_TRUE(sg::is_valid_pair({e.l, e.i}));
      }
    }
  }
}

TEST_P(CompressStructureTest, ChainsEncodeTheOriginalPoints) {
  const auto [d, level] = GetParam();
  const auto dense = random_dense_grid(d, level, 2, 7);
  const CompressedGridData c = compress(dense);

  for (std::uint32_t newp = 0; newp < c.nno; ++newp) {
    const std::uint32_t oldp = c.order[newp];
    const sg::MultiIndexView mi = dense.point(oldp);
    // Reconstruct the multi-index from the chain.
    sg::MultiIndex rebuilt(static_cast<std::size_t>(d), sg::kRootPair);
    const std::uint32_t* chain = c.chain_row(newp);
    for (int f = 0; f < c.nfreq && chain[f] != 0; ++f) {
      const XpsEntry& e = c.xps[chain[f]];
      rebuilt[e.j] = {e.l, e.i};
    }
    for (int t = 0; t < d; ++t) EXPECT_EQ(rebuilt[static_cast<std::size_t>(t)], mi[t]);
  }
}

TEST_P(CompressStructureTest, OrderIsAPermutation) {
  const auto [d, level] = GetParam();
  const auto dense = random_dense_grid(d, level, 1, 8);
  const CompressedGridData c = compress(dense);
  std::vector<bool> seen(c.nno, false);
  for (const std::uint32_t o : c.order) {
    ASSERT_LT(o, c.nno);
    EXPECT_FALSE(seen[o]);
    seen[o] = true;
  }
}

TEST_P(CompressStructureTest, SurplusRowsFollowTheReordering) {
  const auto [d, level] = GetParam();
  const auto dense = random_dense_grid(d, level, 4, 9);
  const CompressedGridData c = compress(dense);
  for (std::uint32_t newp = 0; newp < c.nno; ++newp) {
    const double* crow = c.surplus_row(newp);
    const double* drow = dense.surplus_row(c.order[newp]);
    for (int dof = 0; dof < 4; ++dof) EXPECT_DOUBLE_EQ(crow[dof], drow[dof]);
  }
}

TEST_P(CompressStructureTest, XpsEntriesAreUniqueAndSorted) {
  const auto [d, level] = GetParam();
  const auto dense = random_dense_grid(d, level, 1, 10);
  const CompressedGridData c = compress(dense);
  for (std::size_t k = 2; k < c.xps.size(); ++k) {
    const XpsEntry& a = c.xps[k - 1];
    const XpsEntry& b = c.xps[k];
    const auto ka = std::tuple(a.j, a.l, a.i);
    const auto kb = std::tuple(b.j, b.l, b.i);
    EXPECT_LT(ka, kb);
  }
}

INSTANTIATE_TEST_SUITE_P(DimsAndLevels, CompressStructureTest,
                         ::testing::Values(std::pair{1, 4}, std::pair{2, 3}, std::pair{3, 4},
                                           std::pair{6, 3}, std::pair{10, 2}, std::pair{59, 2}));

TEST(Compress, RootOnlyGridHasEmptyChains) {
  const auto dense = random_dense_grid(4, 1, 2, 11);
  const CompressedGridData c = compress(dense);
  EXPECT_EQ(c.nno, 1u);
  EXPECT_EQ(c.nfreq, 0);
  EXPECT_EQ(c.xps_size(), 1u);  // sentinel only
}

TEST(Compress, UpdateSurplusesKeepsReordering) {
  const auto dense = random_dense_grid(3, 3, 2, 12);
  CompressedGridData c = compress(dense);

  util::Rng rng(99);
  std::vector<double> fresh(dense.surplus.size());
  for (auto& v : fresh) v = rng.uniform(-2.0, 2.0);
  update_surpluses(c, fresh);
  for (std::uint32_t newp = 0; newp < c.nno; ++newp) {
    const double* crow = c.surplus_row(newp);
    const double* frow = fresh.data() + static_cast<std::size_t>(c.order[newp]) * 2;
    EXPECT_DOUBLE_EQ(crow[0], frow[0]);
    EXPECT_DOUBLE_EQ(crow[1], frow[1]);
  }
}

TEST(Compress, UpdateSurplusesSizeMismatchThrows) {
  const auto dense = random_dense_grid(2, 2, 1, 13);
  CompressedGridData c = compress(dense);
  const std::vector<double> wrong(3, 0.0);
  EXPECT_THROW(update_surpluses(c, wrong), std::invalid_argument);
}

TEST(Compress, AdaptiveGridCompresses) {
  // Compression must handle non-regular (adaptive, ragged) point sets.
  sg::GridStorage g(3);
  sg::build_regular_grid(g, 2);
  sg::MultiIndex deep{{4, 3}, {1, 1}, {3, 1}};
  const auto id = g.insert(deep).id;
  g.close_ancestors(id);

  sg::DenseGridData dense = sg::make_dense_grid(g, 2);
  util::Rng rng(5);
  for (auto& s : dense.surplus) s = rng.uniform(-1, 1);

  const CompressedGridData c = compress(dense);
  EXPECT_EQ(c.nno, g.size());
  EXPECT_GE(c.nfreq, 2);
}

}  // namespace
}  // namespace hddm::core
