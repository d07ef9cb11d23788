// Anderson acceleration of time iteration (Walker & Ni, SIAM J. Numer.
// Anal. 49(4), 2011, "type II"; see DESIGN.md, "Accelerated time
// iteration").
//
// Algorithm 1 is a fixed-point iteration x_{k+1} = G(x_k) on the policy.
// A step solves every grid point from its warm start x = p_next(point), so
// it holds the solved nodal values g and the exact nodal residual g - x at
// the grid points. With the last m steps on the same point set, the mixed
// update is
//
//   x_{k+1} = g_k - sum_j gamma_j (g_{j+1} - g_j),
//   gamma   = argmin || f_k - sum_j gamma_j (f_{j+1} - f_j) ||_2,
//
// with f = g - x. Hierarchization is linear, so the same combination of the
// shocks' hierarchized surpluses is the mixed policy: the grids, their point
// sets and their compressed indices stay those of the unmixed solve, and
// only the surplus values change.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "core/policy.hpp"
#include "sparse_grid/basis.hpp"

namespace hddm::core {

/// What one AndersonMixer::mix call did.
struct MixOutcome {
  int columns = 0;         ///< difference columns in the mix (0: the plain update)
  bool restarted = false;  ///< a non-empty history was cleared before this step
};

/// The history of the last depth + 1 steps and the mix over it. Both
/// time-iteration drivers own one and call mix() once per step on the
/// finished shock grids, so they produce the same bits.
///
/// History rules: a step whose point set differs from the history's (any
/// shock's `pairs`), or whose residual norm grew from the previous step's,
/// clears the history first. Difference columns that are zero or (nearly)
/// dependent on newer ones are dropped, so a repeated p_next gives the
/// plain update, never NaN. The Gram sums run in shock order, then point
/// order, so the bits depend on neither thread nor rank count. Buffers are
/// reused from step to step.
class AndersonMixer {
 public:
  /// depth: most difference columns per mix; 0 never mixes.
  explicit AndersonMixer(int depth);

  /// Forgets every step (the next mix() starts a new history).
  void clear();

  /// Mixes one step. grids[z] holds shock z's unmixed grid (the hierarchized
  /// surpluses of the solved nodal values g) and residuals[z] its nodal
  /// residual rows g - x, one per grid point in dense point order. Records
  /// the step in the history and replaces each grid's surpluses by the mixed
  /// update's.
  MixOutcome mix(std::span<const std::unique_ptr<ShockGrid>> grids,
                 std::span<const std::span<const double>> residuals);

 private:
  /// One step: every shock's unmixed surpluses, then every shock's residual
  /// rows, each concatenated in shock order, and the residual's squared norm.
  struct Entry {
    std::vector<double> surplus;
    std::vector<double> residual;
    double norm2 = 0.0;
  };
  /// The i-th entry of the history, oldest first.
  Entry& entry(std::size_t i) { return entries_[(first_ + i) % entries_.size()]; }

  int depth_;
  std::vector<Entry> entries_;  ///< ring of depth + 1 entries
  std::size_t first_ = 0;       ///< ring slot of the oldest entry
  std::size_t count_ = 0;       ///< entries in the history
  std::vector<std::vector<sg::LevelIndex>> pairs_;  ///< per-shock point sets of the history
  // Scratch of one mix: the Gram matrix and right-hand side over the
  // difference columns, the Cholesky factor of the kept ones, the weights,
  // one row of differences and one mixed surplus.
  std::vector<double> gram_, rhs_, chol_, gamma_, delta_, mixed_;
  std::vector<std::size_t> kept_;
};

}  // namespace hddm::core
