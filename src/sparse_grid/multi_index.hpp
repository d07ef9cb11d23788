// d-dimensional multi-index pairs (l-vector, i-vector) and their hashing.
//
// A grid point is the tensor product of d one-dimensional (level, index)
// pairs (Eq. 8). Points are stored flat — d consecutive LevelIndex entries —
// inside GridStorage; MultiIndexView is a non-owning window onto one point.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "sparse_grid/basis.hpp"

namespace hddm::sg {

/// Owning multi-index: one LevelIndex per dimension.
using MultiIndex = std::vector<LevelIndex>;

/// Non-owning view of a point's d pairs.
using MultiIndexView = std::span<const LevelIndex>;

/// |l|_1 — the level sum used by the sparse-grid selection rule (Eq. 13).
inline int level_sum(MultiIndexView mi) {
  int s = 0;
  for (const auto& li : mi) s += li.l;
  return s;
}

/// |l|_inf — the maximum 1-D level of the point.
inline int level_max(MultiIndexView mi) {
  int m = 0;
  for (const auto& li : mi) m = std::max<int>(m, li.l);
  return m;
}

/// Number of dimensions whose pair is not the root (level-1) pair. This is
/// the quantity the compression scheme calls the point's "frequency" count.
inline int nonroot_count(MultiIndexView mi) {
  int c = 0;
  for (const auto& li : mi) c += (li.l != 1);
  return c;
}

/// Physical coordinates in [0,1]^d of a point, written to `x` (size d).
inline void point_coordinates(MultiIndexView mi, std::span<double> x) {
  for (std::size_t t = 0; t < mi.size(); ++t) x[t] = point_coordinate(mi[t]);
}

/// Physical coordinates in [0,1]^d of a point.
inline std::vector<double> point_coordinates(MultiIndexView mi) {
  std::vector<double> x(mi.size());
  point_coordinates(mi, x);
  return x;
}

/// Tensor-product basis value phi_{l,i}(x) (Eq. 8) with early exit on zero.
inline double tensor_basis_value(MultiIndexView mi, std::span<const double> x) {
  double v = 1.0;
  for (std::size_t t = 0; t < mi.size(); ++t) {
    if (mi[t].l == 1) continue;  // constant factor
    v *= hat_value(mi[t], x[t]);
    if (v == 0.0) return 0.0;
  }
  return v;
}

/// FNV-1a over the raw (l, i) sequence; used by GridStorage's hash map.
struct MultiIndexHash {
  std::size_t operator()(MultiIndexView mi) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ULL;
    };
    for (const auto& li : mi) {
      mix(li.l);
      mix(li.i);
    }
    return static_cast<std::size_t>(h);
  }
};

struct MultiIndexEq {
  bool operator()(MultiIndexView a, MultiIndexView b) const {
    if (a.size() != b.size()) return false;
    for (std::size_t t = 0; t < a.size(); ++t)
      if (a[t] != b[t]) return false;
    return true;
  }
};

}  // namespace hddm::sg
