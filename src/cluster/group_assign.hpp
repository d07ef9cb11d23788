// Proportional MPI-group sizing — Sec. IV-A.
//
// The world communicator is split into Ns groups, one per discrete state;
// state z receives the fraction M_z / sum_j M_j of the available ranks,
// where M_z is the previous iteration's grid size for that state (a proxy
// for this iteration's work). The paper's worked example: M = (200, 100)
// points and 3 ranks -> group sizes (2, 1); reproduced in the tests.
#pragma once

#include <cstdint>
#include <vector>

#include "core/time_iteration.hpp"

namespace hddm::cluster {

/// Number of ranks per state. Guarantees: sizes sum to `nranks`; every state
/// with workload > 0 gets at least one rank when nranks >= #states;
/// remainders go to the largest fractional parts (largest-remainder method).
std::vector<int> proportional_group_sizes(const std::vector<std::uint64_t>& workload, int nranks);

/// Maps each world rank to its state color given group sizes (states in
/// order, contiguous rank blocks — the MPI_Comm_split color argument).
std::vector<int> rank_colors(const std::vector<int>& group_sizes);

/// The block partition of a group's points lives with the level step that
/// uses it (core::level_step); the scaling model reuses it from here.
using core::block_partition;
using core::Range;

}  // namespace hddm::cluster
