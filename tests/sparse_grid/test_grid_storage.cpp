#include "sparse_grid/grid_storage.hpp"

#include <gtest/gtest.h>

namespace hddm::sg {
namespace {

MultiIndex root(int d) { return MultiIndex(static_cast<std::size_t>(d), kRootPair); }

TEST(GridStorage, InsertAssignsSequentialIds) {
  GridStorage g(2);
  MultiIndex mi = root(2);
  EXPECT_EQ(g.insert(mi).id, 0u);
  mi[0] = {2, 0};
  EXPECT_EQ(g.insert(mi).id, 1u);
  mi[1] = {2, 2};
  EXPECT_EQ(g.insert(mi).id, 2u);
  EXPECT_EQ(g.size(), 3u);
}

TEST(GridStorage, DuplicateInsertReturnsExistingId) {
  GridStorage g(3);
  MultiIndex mi = root(3);
  mi[1] = {3, 1};
  const auto first = g.insert(mi);
  const auto second = g.insert(mi);
  EXPECT_TRUE(first.inserted);
  EXPECT_FALSE(second.inserted);
  EXPECT_EQ(first.id, second.id);
  EXPECT_EQ(g.size(), 1u);
}

TEST(GridStorage, FindLocatesPoints) {
  GridStorage g(2);
  MultiIndex a = root(2);
  MultiIndex b = root(2);
  b[0] = {2, 2};
  g.insert(a);
  g.insert(b);
  EXPECT_EQ(g.find(a), std::optional<std::uint32_t>(0));
  EXPECT_EQ(g.find(b), std::optional<std::uint32_t>(1));
  MultiIndex c = root(2);
  c[1] = {3, 3};
  EXPECT_FALSE(g.find(c).has_value());
}

TEST(GridStorage, PointRoundTrips) {
  GridStorage g(4);
  MultiIndex mi = root(4);
  mi[2] = {4, 5};
  const auto id = g.insert(mi).id;
  const MultiIndexView v = g.point(id);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[2], (LevelIndex{4, 5}));
  EXPECT_EQ(v[0], kRootPair);
}

TEST(GridStorage, CoordinatesMatchBasis) {
  GridStorage g(2);
  MultiIndex mi = root(2);
  mi[0] = {3, 1};
  mi[1] = {2, 2};
  const auto id = g.insert(mi).id;
  const std::vector<double> x = g.coordinates(id);
  EXPECT_DOUBLE_EQ(x[0], 0.25);
  EXPECT_DOUBLE_EQ(x[1], 1.0);
}

TEST(GridStorage, LevelSum) {
  GridStorage g(3);
  MultiIndex mi = root(3);
  mi[0] = {2, 0};
  mi[2] = {4, 3};
  const auto id = g.insert(mi).id;
  EXPECT_EQ(g.level_sum(id), 2 + 1 + 4);
}

TEST(GridStorage, CloseAncestorsFillsChain) {
  GridStorage g(2);
  // Insert a deep point with no ancestors present.
  MultiIndex mi = root(2);
  mi[0] = {4, 3};
  const auto id = g.insert(mi).id;
  const std::uint32_t added = g.close_ancestors(id);
  // Chain in dim 0: (4,3) -> (3,1) -> (2,0) -> root. 3 ancestors.
  EXPECT_EQ(added, 3u);
  MultiIndex q = root(2);
  EXPECT_TRUE(g.contains(q));
  q[0] = {2, 0};
  EXPECT_TRUE(g.contains(q));
  q[0] = {3, 1};
  EXPECT_TRUE(g.contains(q));
}

TEST(GridStorage, CloseAncestorsMultiDimensional) {
  GridStorage g(2);
  MultiIndex mi{{3, 1}, {3, 3}};
  const auto id = g.insert(mi).id;
  g.close_ancestors(id);
  // Everything in the lower-left of the hierarchy must now exist:
  // (root,root), (2,0|root), (root|2,2), (3,1|root), (root|3,3), (2,0|2,2),
  // (3,1|2,2), (2,0|3,3).
  EXPECT_EQ(g.size(), 9u);
  EXPECT_TRUE(g.contains(MultiIndex{{2, 0}, {2, 2}}));
  EXPECT_TRUE(g.contains(MultiIndex{{3, 1}, {2, 2}}));
  EXPECT_TRUE(g.contains(MultiIndex{{2, 0}, {3, 3}}));
}

TEST(GridStorage, CloseAncestorsIdempotent) {
  GridStorage g(2);
  MultiIndex mi{{3, 1}, {3, 3}};
  const auto id = g.insert(mi).id;
  g.close_ancestors(id);
  EXPECT_EQ(g.close_ancestors(id), 0u);
}

/// Depth-first ancestor closure, written out: for each dimension, insert
/// the parent and close it before the next dimension.
void close_depth_first(GridStorage& g, MultiIndex work) {
  for (std::size_t t = 0; t < work.size(); ++t) {
    if (work[t].l == 1) continue;
    const LevelIndex original = work[t];
    work[t] = parent(original);
    if (g.insert(work).inserted) close_depth_first(g, work);
    work[t] = original;
  }
}

TEST(GridStorage, CloseAncestorsInsertsDepthFirst) {
  // Point ids fix the dense grid's row order, so both overloads must insert
  // in the depth-first order; the buffer overload hands its buffer back.
  const MultiIndex mi{{3, 1}, {4, 5}, {2, 2}};
  GridStorage expected(3);
  expected.insert(mi);
  close_depth_first(expected, mi);

  GridStorage by_id(3);
  EXPECT_EQ(by_id.close_ancestors(by_id.insert(mi).id), expected.size() - 1);
  GridStorage by_buffer(3);
  by_buffer.insert(mi);
  MultiIndex work = mi;
  EXPECT_EQ(by_buffer.close_ancestors(work), expected.size() - 1);
  EXPECT_EQ(work, mi);
  for (const GridStorage* g : {&by_id, &by_buffer}) {
    ASSERT_EQ(g->size(), expected.size());
    for (std::uint32_t p = 0; p < expected.size(); ++p)
      EXPECT_TRUE(std::ranges::equal(g->point(p), expected.point(p))) << p;
  }
}

TEST(GridStorage, IdsByLevelSumAscends) {
  GridStorage g(2);
  MultiIndex mi{{4, 1}, {1, 1}};
  g.insert(mi);
  g.close_ancestors(0);
  const auto order = g.ids_by_level_sum();
  ASSERT_EQ(order.size(), g.size());
  for (std::size_t k = 1; k < order.size(); ++k)
    EXPECT_LE(g.level_sum(order[k - 1]), g.level_sum(order[k]));
}

TEST(GridStorage, DimensionMismatchThrows) {
  GridStorage g(3);
  EXPECT_THROW((void)g.insert(root(2)), std::invalid_argument);
  EXPECT_THROW(GridStorage(0), std::invalid_argument);
}

TEST(GridStorage, ManyPointsNoHashCollisionsLost) {
  // Insert a full 2-D level-5 regular pattern by hand and verify lookup of
  // every point afterwards (exercises the collision buckets).
  GridStorage g(2);
  std::vector<MultiIndex> all;
  for (level_t l0 = 1; l0 <= 5; ++l0) {
    for (level_t l1 = 1; l1 + l0 <= 6; ++l1) {
      for (index_t i0 = 0; i0 <= (index_t{1} << l0); ++i0) {
        if (!is_valid_pair({l0, i0})) continue;
        for (index_t i1 = 0; i1 <= (index_t{1} << l1); ++i1) {
          if (!is_valid_pair({l1, i1})) continue;
          all.push_back(MultiIndex{{l0, i0}, {l1, i1}});
        }
      }
    }
  }
  for (const auto& mi : all) g.insert(mi);
  EXPECT_EQ(g.size(), all.size());
  for (const auto& mi : all) EXPECT_TRUE(g.contains(mi));
}

}  // namespace
}  // namespace hddm::sg
