// Adaptive sparse grid index compression — the paper's Sec. IV-B.
//
// Motivation: the dense ("gold") layout walks all d (level, index) pairs of
// every point when interpolating, although for sparse grids the overwhelming
// majority of pairs is the root pair whose basis factor is constant 1. The
// compression pipeline
//   1. remaps pairs so root pairs become the zero pair (Fig. 3):
//        root -> (0,0),  (l,i) -> (2l-2, i-1) otherwise,
//      after which the pair matrix Xi is ~97% zeros for the paper's grids;
//   2. distributes the nonzero pairs of each point over `nfreq` slot tables
//      (the xi_freq matrices of Fig. 4), where nfreq is the maximum number of
//      non-root dimensions over all points (e.g. 3 for a level-4 regular
//      grid; <= 7 in the paper's adaptive runs);
//   3. deduplicates the pairs into the global `xps` array of unique
//      (dimension, level, index) triples — the only basis factors that are
//      meaningful to evaluate. Slot 0 is a reserved chain terminator, hence
//      Table I's "237 = 4*59 + 1" and "473 = 8*59 + 1" per state;
//   4. builds per-point `chains` of xps indices (Alg. 2) and reorders the
//      points — and with them the surplus matrix rows — so points with equal
//      chain structure are contiguous (the renumbering the transition
//      matrices T_freq encode).
//
// Interpolation then computes each unique factor once into the small `xpv`
// scratch (fits L1 / GPU shared memory) and walks nno * nfreq chain entries
// instead of nno * d pairs — the ~d/nfreq ≈ one-order-of-magnitude work
// reduction of Fig. 5.
//
// The same pass that writes the chains also builds the two tables the
// kernels' chain walk (kernels/kernels_internal.hpp) runs on:
//   * `factors`, one HatFactor per xps slot: the hat's center and 2^(l-1)
//     scale as the exact doubles sg::hat_value derives from (l, i), so a
//     factor costs one subtract, multiply and clamp instead of two ldexp;
//   * `skip`, the prefix-skip pointers: skip[p * nfreq + f] is the first
//     point after p whose chain prefix [0..f] differs from p's (nno if none
//     does). When a point's prefix product hits 0 at slot f, every point up
//     to that pointer multiplies the same factors in the same order and is
//     exactly 0 too, so the walk jumps there — bit-exact, not approximate.
//     The reordering of step 4 is what makes these runs long.
// (See DESIGN.md, "Compressed chain walk".)
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "sparse_grid/dense_format.hpp"
#include "util/aligned.hpp"

namespace hddm::core {

/// One meaningful basis factor: evaluate the 1-D hat (l, i) — 1-based paper
/// convention — on coordinate x[j].
struct XpsEntry {
  std::uint32_t j = 0;  ///< dimension index into the evaluation point
  sg::level_t l = 1;
  sg::index_t i = 1;

  friend bool operator==(const XpsEntry&, const XpsEntry&) = default;
};

/// The evaluation form of one xps slot: phi(x) = sg::hat_value(center,
/// scale, x[j]), with center = sg::point_coordinate({l, i}) and scale =
/// sg::hat_scale(l) of the slot's XpsEntry.
struct HatFactor {
  double center = 0.0;
  double scale = 0.0;
  std::uint32_t j = 0;
};

/// The remapped pair of the zero-elimination step (Fig. 3). Root pairs map to
/// (0,0); the pair counts as "zero" only when both components are zero.
struct RemappedPair {
  std::uint32_t l = 0;
  std::uint32_t i = 0;
  [[nodiscard]] bool is_zero() const { return l == 0 && i == 0; }
  friend bool operator==(const RemappedPair&, const RemappedPair&) = default;
};

/// Fig. 3's per-dimension preprocessing.
RemappedPair remap_pair(sg::LevelIndex li);

struct CompressionStats {
  double xi_zero_fraction = 0.0;  ///< fraction of zero pairs in Xi (Fig. 3b)
  std::size_t dense_bytes = 0;    ///< index storage of the gold layout
  std::size_t compressed_bytes = 0;  ///< xps + chains storage
  std::uint32_t chain_entries_used = 0;  ///< nonzero chain slots
};

/// Compressed ASG ready for the optimized interpolation kernels.
struct CompressedGridData {
  int dim = 0;
  int ndofs = 0;
  int nfreq = 0;
  std::uint32_t nno = 0;

  /// Unique basis factors; xps[0] is the reserved sentinel (never evaluated,
  /// chains terminate on index 0).
  std::vector<XpsEntry> xps;
  /// factors[k] evaluates xps[k] (slot 0, the sentinel, is unused).
  std::vector<HatFactor> factors;
  /// nno x nfreq chain matrix, row-major; entries index xps, 0 terminates.
  std::vector<std::uint32_t> chains;
  /// nno x nfreq prefix-skip pointers: skip[p * nfreq + f] is the first
  /// point after p whose chain prefix [0..f] differs from p's, or nno.
  std::vector<std::uint32_t> skip;
  /// Surplus matrix reordered to the compressed point order (nno x ndofs).
  util::aligned_vector<double> surplus;
  /// order[new_position] == original point id in the dense input.
  std::vector<std::uint32_t> order;

  CompressionStats stats;

  [[nodiscard]] const std::uint32_t* chain_row(std::uint32_t p) const {
    return chains.data() + static_cast<std::size_t>(p) * nfreq;
  }
  [[nodiscard]] const double* surplus_row(std::uint32_t p) const {
    return surplus.data() + static_cast<std::size_t>(p) * ndofs;
  }
  [[nodiscard]] double* surplus_row(std::uint32_t p) {
    return surplus.data() + static_cast<std::size_t>(p) * ndofs;
  }
  /// Number of unique factors including the sentinel — the paper's "xps"
  /// column of Table I.
  [[nodiscard]] std::size_t xps_size() const { return xps.size(); }
};

struct CompressOptions {
  /// Reorder points (and surplus rows) so points with equal chain structure
  /// are contiguous — the paper's "surplus matrix reordering". Disable only
  /// for the ablation study quantifying what the reordering buys.
  bool reorder_points = true;
};

/// Runs the full Sec. IV-B pipeline on a dense grid.
CompressedGridData compress(const sg::DenseGridData& dense, const CompressOptions& options = {});

/// Replaces the surpluses of an existing compressed grid (same point set)
/// with freshly computed dense-order surpluses; avoids re-running the index
/// pipeline when only coefficient values changed between time iterations.
void update_surpluses(CompressedGridData& grid, std::span<const double> dense_order_surplus);

}  // namespace hddm::core
