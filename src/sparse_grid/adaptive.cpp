#include "sparse_grid/adaptive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hddm::sg {

RefinementReport refine_by_surplus(GridStorage& storage, std::uint32_t first_candidate,
                                   std::span<const double> indicators,
                                   const RefinementOptions& options) {
  if (first_candidate + indicators.size() != storage.size())
    throw std::invalid_argument("refine_by_surplus: indicator range mismatch");

  RefinementReport report;
  const int dim = storage.dim();
  const std::uint32_t old_size = storage.size();

  MultiIndex work;  // the candidate's multi-index, one buffer for all candidates
  for (std::uint32_t k = 0; k < indicators.size(); ++k) {
    if (indicators[k] < options.epsilon) continue;
    const std::uint32_t p = first_candidate + k;
    ++report.candidates_refined;

    work.assign(storage.point(p).begin(), storage.point(p).end());
    for (int t = 0; t < dim; ++t) {
      LevelIndex kids[2];
      const int nkids = children(work[t], kids);
      const LevelIndex original = work[t];
      for (int c = 0; c < nkids; ++c) {
        if (static_cast<int>(kids[c].l) > options.max_level) continue;
        work[t] = kids[c];
        if (storage.insert(work).inserted) {
          ++report.children_added;
          if (options.close_ancestors)
            report.ancestors_added += storage.close_ancestors(work);
        }
      }
      work[t] = original;
    }
  }

  // close_ancestors counts every fill-in it inserts; children counted above.
  (void)old_size;
  return report;
}

std::vector<double> max_abs_indicator(std::span<const double> surplus, std::uint32_t npoints,
                                      int ndofs) {
  if (surplus.size() != static_cast<std::size_t>(npoints) * ndofs)
    throw std::invalid_argument("max_abs_indicator: size mismatch");
  std::vector<double> out(npoints, 0.0);
  for (std::uint32_t p = 0; p < npoints; ++p) {
    const double* row = surplus.data() + static_cast<std::size_t>(p) * ndofs;
    double m = 0.0;
    for (int dof = 0; dof < ndofs; ++dof) m = std::max(m, std::fabs(row[dof]));
    out[p] = m;
  }
  return out;
}

}  // namespace hddm::sg
