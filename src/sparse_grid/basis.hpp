// One-dimensional hierarchical hat basis of the paper's Sec. III.
//
// Level/index conventions follow Eqs. (5)-(7) with 1-based levels:
//   level 1: single midpoint x = 0.5, basis identically 1 on [0,1];
//   level 2: boundary points i in {0, 2}, x in {0, 1};
//   level l>2: odd indices i < 2^(l-1), x = i * 2^(1-l).
// (Sec. IV-B of the paper counts levels C++-style from 0; the compression
// module handles that remapping — everything else uses the 1-based form.)
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>

namespace hddm::sg {

using level_t = std::uint8_t;
using index_t = std::uint32_t;

/// A single (level, index) pair for one dimension.
struct LevelIndex {
  level_t l = 1;
  index_t i = 1;

  friend bool operator==(const LevelIndex& a, const LevelIndex& b) {
    return a.l == b.l && a.i == b.i;
  }
  friend bool operator!=(const LevelIndex& a, const LevelIndex& b) { return !(a == b); }
  friend bool operator<(const LevelIndex& a, const LevelIndex& b) {
    return a.l != b.l ? a.l < b.l : a.i < b.i;
  }
};

/// The root pair: the level-1 basis function is constant 1.
inline constexpr LevelIndex kRootPair{1, 1};

/// Grid-point coordinate per Eq. (6).
inline double point_coordinate(LevelIndex li) {
  if (li.l == 1) return 0.5;
  // i * 2^(1-l); for l=2 this yields 0 (i=0) and 1 (i=2).
  return std::ldexp(static_cast<double>(li.i), 1 - static_cast<int>(li.l));
}

/// The slope magnitude 2^(l-1) of a level-l hat (l > 1).
inline double hat_scale(level_t l) { return std::ldexp(1.0, static_cast<int>(l) - 1); }

/// Eq. (5) for a non-root hat given by its center x_{l,i} and scale
/// 2^(l-1): max(1 - scale |x - center|, 0). The compressed kernels evaluate
/// this form from core::HatFactor's precomputed doubles.
inline double hat_value(double center, double scale, double x) {
  const double v = 1.0 - scale * (x > center ? x - center : center - x);
  return v > 0.0 ? v : 0.0;
}

/// Hat-function evaluation per Eq. (5): phi_{1,1} == 1, otherwise
/// max(1 - 2^(l-1) |x - x_{l,i}|, 0).
inline double hat_value(LevelIndex li, double x) {
  if (li.l == 1) return 1.0;
  return hat_value(point_coordinate(li), hat_scale(li.l), x);
}

/// Derivative of the hat function w.r.t. x: 0 for the constant level-1
/// basis and outside the support, otherwise +/- 2^(l-1) by side. Hat
/// functions are piecewise linear, so this is the exact derivative almost
/// everywhere; on the null set of kinks the convention is the subgradient
/// midpoint — 0 at the center (the average of the +/-2^(l-1) one-sided
/// slopes) and 0 where the hat itself vanishes. The midpoint matters:
/// warm-started equilibrium solves evaluate their first Jacobian exactly AT
/// a grid point, i.e. on the kink of every dimension at once, and a one-
/// sided convention there breaks the mirror symmetry of symmetric models.
/// Off the null set the value is exact; finite differences straddling a
/// kink differ by a documented tolerance instead — see DESIGN.md, "Jacobian
/// pipeline".
inline double hat_derivative(double center, double scale, double x) {
  if (x == center) return 0.0;  // subgradient midpoint at the kink
  const double dist = x > center ? x - center : center - x;
  if (1.0 - scale * dist <= 0.0) return 0.0;  // outside (or on the edge of) support
  return x > center ? -scale : scale;
}
inline double hat_derivative(LevelIndex li, double x) {
  if (li.l == 1) return 0.0;
  return hat_derivative(point_coordinate(li), hat_scale(li.l), x);
}

/// True when (l, i) is a valid pair of the hierarchical index sets (Eq. 7).
inline bool is_valid_pair(LevelIndex li) {
  if (li.l == 1) return li.i == 1;
  if (li.l == 2) return li.i == 0 || li.i == 2;
  return (li.i % 2 == 1) && li.i < (index_t{1} << (li.l - 1));
}

/// Number of hierarchical indices at a 1-D level: |I_l| (Eq. 7).
inline index_t level_cardinality(level_t l) {
  if (l == 1) return 1;
  if (l == 2) return 2;
  return index_t{1} << (l - 2);
}

/// Children of a pair in the hierarchical tree. Returns the number of
/// children written to out[0..1]:
///   level 1 -> two level-2 boundary points;
///   level 2 -> one interior child each (i=0 -> (3,1), i=2 -> (3,3));
///   level l>2 -> (l+1, 2i-1) and (l+1, 2i+1).
inline int children(LevelIndex li, LevelIndex out[2]) {
  if (li.l == 1) {
    out[0] = {2, 0};
    out[1] = {2, 2};
    return 2;
  }
  if (li.l == 2) {
    out[0] = (li.i == 0) ? LevelIndex{3, 1} : LevelIndex{3, 3};
    return 1;
  }
  out[0] = {static_cast<level_t>(li.l + 1), 2 * li.i - 1};
  out[1] = {static_cast<level_t>(li.l + 1), 2 * li.i + 1};
  return 2;
}

/// Hierarchical parent of a non-root pair.
inline LevelIndex parent(LevelIndex li) {
  assert(li.l > 1);
  if (li.l == 2) return kRootPair;
  if (li.l == 3) return {2, li.i == 1 ? index_t{0} : index_t{2}};
  // For l > 3 exactly one of (i-1)/2, (i+1)/2 is odd — that is the parent.
  const index_t lo = (li.i - 1) / 2;
  const index_t hi = (li.i + 1) / 2;
  return {static_cast<level_t>(li.l - 1), (lo % 2 == 1) ? lo : hi};
}

}  // namespace hddm::sg
