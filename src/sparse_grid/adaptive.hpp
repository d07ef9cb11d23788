// Adaptive (a posteriori) sparse grid refinement — Sec. III of the paper.
//
// A point whose surplus-based error indicator g(alpha) reaches the
// refinement threshold epsilon receives its (up to) 2d hierarchical children;
// missing ancestors are inserted so the grid stays ancestor-closed, which is
// the invariant exact incremental hierarchization relies on (hierarchize.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sparse_grid/grid_storage.hpp"

namespace hddm::sg {

struct RefinementOptions {
  /// Refine a point when g(alpha) >= epsilon.
  double epsilon = 1e-2;
  /// Cap on the per-dimension level |l|_inf of created points; the paper
  /// runs with Lmax = 6 (footnote 12).
  int max_level = 6;
};

struct RefinementReport {
  std::uint32_t candidates_refined = 0;  ///< points with g(alpha) >= epsilon
  std::uint32_t children_added = 0;      ///< newly created children
  std::uint32_t ancestors_added = 0;     ///< closure fill-ins
  [[nodiscard]] std::uint32_t total_added() const { return children_added + ancestors_added; }
};

/// Refines `storage` given one error indicator per point (typically the max
/// absolute surplus over the dofs). `indicators[p]` corresponds to point id p
/// over the ids [0, first_candidate + indicators.size()). Only points with id
/// >= first_candidate are candidates — the driver passes the most recent
/// level's points. Returns the report; new points get ids >= old size().
RefinementReport refine_by_surplus(GridStorage& storage, std::uint32_t first_candidate,
                                   std::span<const double> indicators,
                                   const RefinementOptions& options);

/// Convenience scalar indicator: max_dof |alpha_{p,dof}|.
std::vector<double> max_abs_indicator(std::span<const double> surplus, std::uint32_t npoints,
                                      int ndofs);

}  // namespace hddm::sg
