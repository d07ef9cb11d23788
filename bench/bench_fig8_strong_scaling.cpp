// Reproduces Fig. 8: strong scaling of one time step of the 59-dimensional,
// 16-state OLG model (level-4 grid restarted from level 2; 16 x 281,077 =
// 4,497,232 points, 265,336,688 unknowns) from 1 to 4,096 "Piz Daint" nodes.
//
// Two ingredients (DESIGN.md substitution):
//   1. measured: the per-point equilibrium solve time on THIS machine, from
//      a real reduced-dimension OLG solve (the cluster hardware is not
//      available, and a single 59-dim point solve involves a 59x59 Newton
//      system whose cost is also measured and reported);
//   2. modeled: the discrete-event strong-scaling simulation
//      (cluster/scaling_model.hpp) fed with the paper's exact per-level
//      point counts, 12 worker threads per node, and the measured per-point
//      time. The model reproduces the dominant effect the paper names:
//      threads idle when points/thread < 1 on the coarse level.
//
// In addition, a *real* distributed run (in-process SimComm ranks) of a
// reduced instance demonstrates the actual Fig. 2 control flow at small rank
// counts.
//
// Benchmarks register as fig8/point_solve and fig8/distributed/ranks=N; the
// scaling-model tables are report formatters over the measured medians.
//
// Environment:
//   HDDM_FIG8_AGES      reduced instance lifetime (default 7)
//   HDDM_FIG8_REAL_MAX  largest in-process rank count to run (default 8)
//   HDDM_FIG8_CV        override the measured solve-time cv
#include "bench_common.hpp"

#include <cmath>

#include "benchlib/benchlib.hpp"
#include "cluster/distributed_ti.hpp"
#include "cluster/scaling_model.hpp"
#include "cluster/sim_comm.hpp"
#include "core/time_iteration.hpp"
#include "olg/olg_model.hpp"
#include "sparse_grid/regular.hpp"
#include "util/stats.hpp"

namespace {

using namespace hddm;

const olg::OlgModel& reduced_model() {
  static const olg::OlgModel m = [] {
    const int ages = static_cast<int>(util::env_long("HDDM_FIG8_AGES", 7));
    return olg::OlgModel(olg::build_economy(olg::reduced_calibration(ages, 2, 1)));
  }();
  return m;
}

int real_max_ranks() { return static_cast<int>(util::env_long("HDDM_FIG8_REAL_MAX", 8)); }

/// Benchmark: solve every level-3 grid point once (single thread). The
/// per-point mean feeds the scaling model's seconds_per_point; the per-point
/// spread (cv, measured on the first rep) its cross-rank straggler term.
void run_point_solve(benchlib::State& state) {
  const olg::OlgModel& model = reduced_model();
  core::TimeIterationOptions opts;
  opts.base_level = 2;
  opts.threads = 1;
  opts.acceleration_depth = 0;  // the paper's plain Algorithm 1
  core::TimeIterationDriver driver(model, opts);
  const core::InitialPolicyEvaluator initial(model);
  core::IterationStats warm;
  const auto policy = driver.step(initial, warm);

  sg::GridStorage grid(model.state_dim());
  sg::build_regular_grid(grid, 3);
  std::vector<double> warm_dofs(static_cast<std::size_t>(model.ndofs()));

  bool first_rep = true;
  double cv = 0.0;
  state.run([&] {
    util::RunningStats per_point;
    for (std::uint32_t p = 0; p < grid.size(); ++p) {
      const auto x = grid.coordinates(p);
      policy->evaluate(0, x, warm_dofs);
      const util::Timer timer;
      (void)model.solve_point(static_cast<int>(p) % model.num_shocks(), x, *policy, warm_dofs);
      if (first_rep) per_point.add(timer.seconds());
    }
    if (first_rep) {
      cv = per_point.mean() > 0 ? per_point.stddev() / per_point.mean() : 0.0;
      first_rep = false;
    }
  });

  state.set_items_per_rep(static_cast<double>(grid.size()));  // items == point solves
  state.info("cv", cv);
  state.info("points", static_cast<double>(grid.size()));
  state.info("state_dim", static_cast<double>(model.state_dim()));
  state.info("num_shocks", static_cast<double>(model.num_shocks()));
}

/// Benchmark: one real distributed time step on nranks in-process ranks.
void run_distributed(benchlib::State& state, int nranks) {
  const olg::OlgModel& model = reduced_model();
  core::TimeIterationOptions opts;
  opts.base_level = 3;
  opts.max_iterations = 1;
  opts.tolerance = 0.0;
  opts.acceleration_depth = 0;

  std::uint32_t points = 0;
  state.run([&] {
    cluster::SimCluster::run(nranks, [&](cluster::SimComm world) {
      const auto result = run_distributed_time_iteration(world, model, opts);
      if (world.rank() == 0) points = result.policy->total_points();
    });
  });
  state.set_items_per_rep(static_cast<double>(points));
  state.info("ranks", static_cast<double>(nranks));
  state.info("points", static_cast<double>(points));
}

int report_fig8(const benchlib::RunReport& report) {
  bench::print_header("Fig. 8: strong scaling (level-4 OLG step, 16 states, d=59)");

  const benchlib::BenchResult* solve = report.find_measured("fig8/point_solve");
  if (solve == nullptr) {
    std::printf("(fig8/point_solve filtered out — scaling model needs its measurement)\n");
  } else {
    const olg::OlgModel& model = reduced_model();
    const double mean_seconds = solve->seconds_per_item();
    const std::string* cv_info = solve->find_info("cv");
    const double measured_cv = cv_info != nullptr ? std::stod(*cv_info) : 0.0;

    // Scale the measured per-point cost to the 59-dim system: the Newton
    // solve is dominated by Ns * d interpolations per residual and d
    // residuals per finite-difference Jacobian -> cost ~ Ns * d^2 per
    // iteration.
    const double dim_scale =
        (16.0 / model.num_shocks()) * std::pow(59.0 / model.state_dim(), 2.0);
    const double t_point = mean_seconds * dim_scale;
    std::printf("measured per-point solve on reduced instance (d=%d): %s, cv=%.2f\n",
                model.state_dim(), util::fmt_seconds(mean_seconds).c_str(), measured_cv);
    std::printf("extrapolated 59-dim per-point solve (x%.1f): %s\n", dim_scale,
                util::fmt_seconds(t_point).c_str());

    // The paper's workload: level-3 increment and level-4 increment per state
    // (restart from level 2 means levels 1-2 are already done).
    cluster::ScalingWorkload workload;
    workload.num_states = 16;
    workload.ndofs = 118;
    const std::uint64_t l3 = sg::count_level_increment(59, 3);   // 6,962
    const std::uint64_t l4 = sg::count_level_increment(59, 4);   // 273,996
    workload.points_per_level = {std::vector<std::uint64_t>(16, l3),
                                 std::vector<std::uint64_t>(16, l4)};
    std::printf("workload: level-3 increment %s pts/state, level-4 increment %s pts/state\n",
                util::fmt_count(static_cast<long long>(l3)).c_str(),
                util::fmt_count(static_cast<long long>(l4)).c_str());
    std::printf("total: %s points, %s unknowns (paper: 4,497,232 / 265,336,688)\n",
                util::fmt_count(16LL * 281077LL).c_str(),
                util::fmt_count(16LL * 281077LL * 59LL).c_str());

    cluster::ScalingMachine machine;
    machine.threads_per_node = 12;
    machine.seconds_per_point = t_point;
    machine.solve_time_cv = util::env_double("HDDM_FIG8_CV", std::max(0.3, measured_cv));
    std::printf("straggler model: solve-time cv = %.2f (override with HDDM_FIG8_CV)\n",
                machine.solve_time_cv);

    const std::vector<int> nodes{1, 4, 16, 64, 256, 1024, 4096};
    const auto results = cluster::simulate_strong_scaling(workload, machine, nodes);

    util::Table table({"# nodes", "norm. time level 3", "norm. time level 4", "norm. time total",
                       "efficiency", "ideal"});
    const double t0_l3 = results.front().levels[0].total();
    const double t0_l4 = results.front().levels[1].total();
    const double t0 = results.front().total_seconds;
    for (const auto& pt : results) {
      table.add_row({std::to_string(pt.nodes),
                     util::fmt_double(pt.levels[0].total() / t0_l3, 4),
                     util::fmt_double(pt.levels[1].total() / t0_l4, 4),
                     util::fmt_double(pt.total_seconds / t0, 4),
                     util::fmt_double(pt.efficiency, 3),
                     util::fmt_double(1.0 / pt.nodes, 4)});
    }
    bench::print_table(table);
    std::printf("modeled 1-node step time: %s (paper: 20,471 s on Piz Daint)\n",
                util::fmt_seconds(results.front().total_seconds).c_str());
    std::printf("modeled efficiency at 4,096 nodes: %.0f%% (paper: ~70%%)\n",
                100.0 * results.back().efficiency);
  }

  // --- Real distributed runs (in-process ranks) on the reduced instance ----
  bench::print_header("Real distributed time step (in-process SimComm ranks, reduced OLG)");
  const benchlib::BenchResult* base = report.find_measured("fig8/distributed/ranks=1");
  const double t1 = base != nullptr ? base->median() : 0.0;
  util::Table real({"# ranks", "step wall time", "speedup", "points"});
  for (int nranks = 1; nranks <= real_max_ranks(); nranks *= 2) {
    const benchlib::BenchResult* r =
        report.find_measured("fig8/distributed/ranks=" + std::to_string(nranks));
    if (r == nullptr) continue;
    const std::string* points = r->find_info("points");
    real.add_row({std::to_string(nranks), util::fmt_seconds(r->median()),
                  t1 > 0 ? util::fmt_double(t1 / r->median(), 3) : "n/a",
                  points != nullptr ? util::fmt_count(static_cast<long long>(std::stod(*points)))
                                    : "n/a"});
  }
  bench::print_table(real);
  std::printf("(In-process ranks share this machine's core(s); the speedup column shows\n"
              " control-flow overhead, not cluster scaling — that is what the model above is\n"
              " calibrated to predict. See DESIGN.md.)\n");
  return 0;
}

const bool registered = [] {
  benchlib::register_benchmark("fig8/point_solve", run_point_solve);
  for (int nranks = 1; nranks <= real_max_ranks(); nranks *= 2)
    benchlib::register_benchmark("fig8/distributed/ranks=" + std::to_string(nranks),
                                 [nranks](benchlib::State& s) { run_distributed(s, nranks); });
  benchlib::register_report(report_fig8);
  return true;
}();

}  // namespace

int main(int argc, char** argv) {
  return hddm::benchlib::run_main(argc, argv, "bench_fig8_strong_scaling");
}
