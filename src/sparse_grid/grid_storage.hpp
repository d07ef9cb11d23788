// Point container for (adaptive) sparse grids.
//
// Points live in one flat array (d pairs per point) for cache-friendly
// traversal; a hash index provides O(1) membership tests, which adaptive
// refinement needs to deduplicate children generated by several parents and
// to enforce ancestor closure.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "sparse_grid/multi_index.hpp"

namespace hddm::sg {

class GridStorage {
 public:
  explicit GridStorage(int dim);

  [[nodiscard]] int dim() const { return dim_; }
  [[nodiscard]] std::uint32_t size() const { return count_; }
  [[nodiscard]] bool empty() const { return count_ == 0; }

  /// Inserts a point; returns its id and whether it was newly created.
  struct InsertResult {
    std::uint32_t id;
    bool inserted;
  };
  InsertResult insert(MultiIndexView mi);

  /// Id of an existing point, or nullopt.
  [[nodiscard]] std::optional<std::uint32_t> find(MultiIndexView mi) const;
  [[nodiscard]] bool contains(MultiIndexView mi) const { return find(mi).has_value(); }

  /// The d pairs of point `id`.
  [[nodiscard]] MultiIndexView point(std::uint32_t id) const {
    return {pairs_.data() + static_cast<std::size_t>(id) * dim_, static_cast<std::size_t>(dim_)};
  }

  [[nodiscard]] int level_sum(std::uint32_t id) const { return sg::level_sum(point(id)); }

  /// Coordinates of point `id` in [0,1]^d.
  [[nodiscard]] std::vector<double> coordinates(std::uint32_t id) const {
    return point_coordinates(point(id));
  }

  /// Raw flat pair array (size() * dim() entries) — consumed by the dense
  /// ("gold") format builder.
  [[nodiscard]] std::span<const LevelIndex> flat_pairs() const {
    return {pairs_.data(), pairs_.size()};
  }

  /// Inserts every missing hierarchical ancestor of point `id` (recursively).
  /// Returns the number of points added. Surplus computation assumes grids
  /// are ancestor-closed; refinement calls this after adding children.
  std::uint32_t close_ancestors(std::uint32_t id);
  /// The same for the stored point whose multi-index `mi` holds, with `mi`
  /// as the walk's scratch (restored on return), so no copy is allocated.
  std::uint32_t close_ancestors(std::span<LevelIndex> mi);

  /// Ids sorted by ascending level sum (stable within a level sum). This is
  /// the processing order under which level-wise hierarchization is exact.
  [[nodiscard]] std::vector<std::uint32_t> ids_by_level_sum() const;

  void reserve(std::uint32_t points);

 private:
  int dim_;
  std::uint32_t count_ = 0;
  std::vector<LevelIndex> pairs_;
  // hash -> point ids with that hash (collisions resolved by comparison).
  std::unordered_map<std::uint64_t, std::vector<std::uint32_t>> index_;
};

}  // namespace hddm::sg
