#include "sparse_grid/grid_storage.hpp"

#include <algorithm>
#include <stdexcept>

namespace hddm::sg {

GridStorage::GridStorage(int dim) : dim_(dim) {
  if (dim <= 0) throw std::invalid_argument("GridStorage: dimension must be positive");
}

void GridStorage::reserve(std::uint32_t points) {
  pairs_.reserve(static_cast<std::size_t>(points) * dim_);
  index_.reserve(points);
}

GridStorage::InsertResult GridStorage::insert(MultiIndexView mi) {
  if (static_cast<int>(mi.size()) != dim_)
    throw std::invalid_argument("GridStorage::insert: dimension mismatch");
  const std::uint64_t h = MultiIndexHash{}(mi);
  auto& bucket = index_[h];
  for (std::uint32_t id : bucket) {
    if (MultiIndexEq{}(point(id), mi)) return {id, false};
  }
  const std::uint32_t id = count_++;
  pairs_.insert(pairs_.end(), mi.begin(), mi.end());
  bucket.push_back(id);
  return {id, true};
}

std::optional<std::uint32_t> GridStorage::find(MultiIndexView mi) const {
  if (static_cast<int>(mi.size()) != dim_) return std::nullopt;
  const std::uint64_t h = MultiIndexHash{}(mi);
  const auto it = index_.find(h);
  if (it == index_.end()) return std::nullopt;
  for (std::uint32_t id : it->second) {
    if (MultiIndexEq{}(point(id), mi)) return id;
  }
  return std::nullopt;
}

std::uint32_t GridStorage::close_ancestors(std::uint32_t id) {
  MultiIndex work(point(id).begin(), point(id).end());
  return close_ancestors(work);
}

std::uint32_t GridStorage::close_ancestors(std::span<LevelIndex> mi) {
  if (static_cast<int>(mi.size()) != dim_)
    throw std::invalid_argument("GridStorage::close_ancestors: dimension mismatch");
  std::uint32_t added = 0;
  // For each dimension with a non-root pair, walk to the 1-D parent and
  // insert the resulting multi-index if missing, then recurse from there:
  // `mi` then holds the parent, which the recursion restores before it
  // returns.
  for (int t = 0; t < dim_; ++t) {
    if (mi[t].l == 1) continue;
    const LevelIndex original = mi[t];
    mi[t] = parent(original);
    if (insert(mi).inserted) {
      ++added;
      added += close_ancestors(mi);
    }
    mi[t] = original;
  }
  return added;
}

std::vector<std::uint32_t> GridStorage::ids_by_level_sum() const {
  std::vector<std::uint32_t> ids(count_);
  for (std::uint32_t i = 0; i < count_; ++i) ids[i] = i;
  std::stable_sort(ids.begin(), ids.end(), [this](std::uint32_t a, std::uint32_t b) {
    return level_sum(a) < level_sum(b);
  });
  return ids;
}

}  // namespace hddm::sg
