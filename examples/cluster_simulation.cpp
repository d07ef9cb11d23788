// Cluster simulation: runs the full distributed time iteration (Fig. 2
// control flow — proportional MPI groups, per-level block partitioning,
// policy merge, world barrier) on in-process ranks, then asks the strong-
// scaling model what the same step would cost on 1..4096 Piz Daint nodes.
//
//   $ ./cluster_simulation [ranks] [ages]
#include <cstdio>
#include <cstdlib>

#include "cluster/distributed_ti.hpp"
#include "cluster/group_assign.hpp"
#include "cluster/scaling_model.hpp"
#include "cluster/sim_comm.hpp"
#include "core/time_iteration.hpp"
#include "olg/olg_model.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

int main(int argc, char** argv) {
  using namespace hddm;
  const int nranks = argc > 1 ? std::atoi(argv[1]) : 4;
  const int ages = argc > 2 ? std::atoi(argv[2]) : 5;

  const olg::OlgModel model(olg::build_economy(olg::reduced_calibration(ages, 2, 1)));
  std::printf("distributed OLG solve: A=%d (d=%d), Ns=%d on %d in-process ranks\n", ages,
              model.state_dim(), model.num_shocks(), nranks);

  // Show the proportional group assignment the runtime will use (Sec. IV-A).
  {
    const std::vector<std::uint64_t> workload{200, 100};
    const auto sizes = cluster::proportional_group_sizes(workload, 3);
    std::printf("group sizing example from the paper (M=(200,100), 3 ranks): (%d, %d)\n",
                sizes[0], sizes[1]);
  }

  core::TimeIterationOptions opts;
  opts.base_level = 2;
  opts.refine_epsilon = 5e-3;
  opts.max_level = 4;
  opts.max_iterations = 60;
  opts.tolerance = 1e-3;

  util::Timer timer;
  bool converged = false;
  int iterations = 0;
  std::uint32_t points = 0;
  cluster::SimCluster::run(nranks, [&](cluster::SimComm world) {
    const auto result = cluster::run_distributed_time_iteration(world, model, opts);
    if (world.rank() == 0) {
      converged = result.converged;
      iterations = static_cast<int>(result.history.size());
      points = result.policy->total_points();
    }
  });
  std::printf("%s after %d iterations, %s total grid points, wall %s\n",
              converged ? "converged" : "stopped", iterations, util::fmt_count(points).c_str(),
              util::fmt_seconds(timer.seconds()).c_str());

  // What would the paper-scale step cost on the real machine?
  std::printf("\nprojected strong scaling of the paper-scale step (model, see DESIGN.md):\n");
  cluster::ScalingWorkload workload;
  workload.num_states = 16;
  workload.ndofs = 118;
  workload.points_per_level = {std::vector<std::uint64_t>(16, 6962),
                               std::vector<std::uint64_t>(16, 273996)};
  cluster::ScalingMachine machine;
  machine.seconds_per_point = 0.07;  // calibrated by bench_fig8 on this host

  util::Table table({"nodes", "normalized time", "efficiency"});
  const auto results =
      cluster::simulate_strong_scaling(workload, machine, {1, 4, 16, 64, 256, 1024, 4096});
  for (const auto& pt : results)
    table.add_row({std::to_string(pt.nodes),
                   util::fmt_double(pt.total_seconds / results.front().total_seconds, 4),
                   util::fmt_double(pt.efficiency, 3)});
  std::fputs(table.to_string().c_str(), stdout);
  return 0;
}
