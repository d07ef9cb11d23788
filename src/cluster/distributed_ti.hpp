// Distributed time iteration over the in-process cluster runtime — the full
// Fig. 2 control flow.
//
// Per time step, every rank:
//   1. sizes the per-state MPI groups proportionally to the previous
//      iteration's grid sizes (Sec. IV-A) and splits the world communicator;
//   2. builds its state's ASG with core::level_step, the level loop the
//      single-node driver runs too: the level's new points are
//      block-partitioned over the group's ranks, each rank solves its block
//      (given p_next) on its own thread pool, and the nodal values are
//      allgathered within the group; hierarchization and (deterministic)
//      adaptive refinement then run redundantly on every group rank, keeping
//      the grids bit-identical without further communication;
//   3. ships its state's finished grid world-wide in the dense-grid block
//      format (sg::append_dense_grid_bytes — the "merge policy" step), with
//      the state's nodal residual rows, so every rank holds the complete
//      policy p = (p(1), ..., p(Ns)) for the next iteration;
//   4. synchronizes on a world barrier (footnote 4);
//   5. runs the Anderson mix of the single-node driver (core::AndersonMixer)
//      on the merged grids and residual rows, which every rank holds alike,
//      so every rank returns the single-node driver's bits.
//
// With fewer ranks than states, a rank builds several states (each rank
// forms a singleton group per state), concurrently on its pool through
// core::build_shocks, the shock loop of the single-node driver.
#pragma once

#include <memory>
#include <vector>

#include "cluster/sim_comm.hpp"
#include "core/model.hpp"
#include "core/policy.hpp"
#include "core/time_iteration.hpp"

namespace hddm::cluster {

struct DistributedResult {
  std::shared_ptr<core::AsgPolicy> policy;  ///< identical on every rank
  std::vector<core::IterationStats> history;
  bool converged = false;
};

/// Runs time iteration on an existing communicator (call from SimCluster
/// rank_main). Every rank returns the same converged policy. The options
/// mean what they mean for core::TimeIterationDriver; `threads` sizes each
/// rank's own pool, and `use_device` attaches one dispatcher per rank (one
/// accelerator per node).
DistributedResult run_distributed_time_iteration(SimComm world, const core::DynamicModel& model,
                                                 const core::TimeIterationOptions& options);

}  // namespace hddm::cluster
