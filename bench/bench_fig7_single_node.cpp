// Reproduces Fig. 7: single-node wall times of the stochastic OLG code
// variants — one CPU thread, all cores, and the hybrid CPU + accelerator
// configuration — plus the paper-parameterized node models for "Piz Daint"
// (25x hybrid) and "Grand Tave" (96x KNL multithread).
//
// The measured part runs a real single time step (the first two sparse grid
// levels, as in Sec. V-B) of a reduced OLG instance locally at several
// thread counts and with the simulated device attached. On this machine the
// thread scaling is bounded by the available cores; the node models then map
// the measured interpolation fraction onto the paper's hardware.
//
// Benchmarks register as fig7/step/<variant>; the Fig. 7 table and node
// models are report formatters over the step-time medians.
//
// Environment:
//   HDDM_FIG7_AGES    OLG lifetime A (default 9 -> d=8)
//   HDDM_FIG7_NPROD   productivity states (default 2)
//   HDDM_FIG7_NTAX    tax regimes (default 2)
#include "bench_common.hpp"

#include <thread>

#include "benchlib/benchlib.hpp"
#include "cluster/node_model.hpp"
#include "core/time_iteration.hpp"
#include "olg/olg_model.hpp"

namespace {

using namespace hddm;

const olg::OlgModel& model() {
  static const olg::OlgModel m = [] {
    const int ages = static_cast<int>(util::env_long("HDDM_FIG7_AGES", 9));
    const auto nprod = static_cast<std::size_t>(util::env_long("HDDM_FIG7_NPROD", 2));
    const auto ntax = static_cast<std::size_t>(util::env_long("HDDM_FIG7_NTAX", 2));
    return olg::OlgModel(olg::build_economy(olg::reduced_calibration(ages, nprod, ntax)));
  }();
  return m;
}

unsigned hw_threads() { return std::max(1u, std::thread::hardware_concurrency()); }

std::vector<std::size_t> thread_counts() {
  const unsigned hw = hw_threads();
  std::vector<std::size_t> counts{1};
  if (hw >= 2) counts.push_back(2);
  if (hw >= 4) counts.push_back(4);
  if (hw > 4) counts.push_back(hw);
  return counts;
}

std::string variant_name(std::size_t threads, bool device) {
  if (device) return "hybrid";
  return std::to_string(threads) + "t";
}

/// One benchmark: a single measured time step at the given configuration.
/// The warm-up step (building the first ASG policy) is untimed setup; each
/// rep then re-runs the same step from the same warm policy.
void run_step_bench(benchlib::State& state, std::size_t threads, bool device) {
  core::TimeIterationOptions opts;
  opts.base_level = 2;  // "the first two sparse grid levels" (Sec. V-B)
  opts.threads = threads;
  opts.use_device = device;
  // The paper's plain Algorithm 1: every rep runs the same update, which an
  // Anderson history of the earlier reps would mix.
  opts.acceleration_depth = 0;
  core::TimeIterationDriver driver(model(), opts);

  const core::InitialPolicyEvaluator initial(model());
  core::IterationStats warm_stats;
  const auto policy = driver.step(initial, warm_stats);

  core::IterationStats stats;
  state.run([&] {
    stats = core::IterationStats{};
    const auto next = driver.step(*policy, stats);
    benchlib::do_not_optimize(next.get());
  });

  state.set_items_per_rep(static_cast<double>(stats.interpolations));
  state.info("threads", static_cast<double>(threads));
  state.info("device", device ? "1" : "0");
  state.info("interpolations", static_cast<double>(stats.interpolations));
}

int report_fig7(const benchlib::RunReport& report) {
  bench::print_header("Fig. 7: single-node performance of the OLG time step");
  const int d = model().state_dim();
  const auto points =
      static_cast<long long>(model().num_shocks()) * static_cast<long long>(2 * d + 1);
  std::printf("instance: d=%d, Ns=%d; level-2 step = %s points, %s unknowns\n", d,
              model().num_shocks(), util::fmt_count(points).c_str(),
              util::fmt_count(points * d).c_str());
  std::printf("paper instance: A=60 (d=59), Ns=16; 16*119 = 1,904 points, 112,336 unknowns\n");

  const benchlib::BenchResult* base = report.find_measured("fig7/step/1t");
  const double t1 = base != nullptr ? base->median() : 0.0;

  util::Table table({"variant", "wall time", "speedup vs 1 thread", "interpolations"});
  auto add_variant = [&](const std::string& name, const std::string& label) {
    const benchlib::BenchResult* r = report.find_measured("fig7/step/" + name);
    if (r == nullptr) return;
    const std::string* interp = r->find_info("interpolations");
    table.add_row({label, util::fmt_seconds(r->median()),
                   t1 > 0 ? util::fmt_double(t1 / r->median(), 3) : "n/a",
                   interp != nullptr
                       ? util::fmt_count(static_cast<long long>(std::stod(*interp)))
                       : "n/a"});
  };
  for (const std::size_t threads : thread_counts())
    add_variant(variant_name(threads, false), std::to_string(threads) + " thread(s)");
  add_variant("hybrid", "hybrid CPU+device(sim)");
  bench::print_table(table);
  std::printf("(This host has %u hardware thread(s); thread-scaling beyond that is shown by\n"
              " the node models below, as the cluster hardware is unavailable — DESIGN.md.)\n",
              hw_threads());

  // Rough attribution: interpolation time is the solve-phase share spent in
  // p_next evaluations; the paper cites "up to 99%". We report the solver's
  // own accounting.
  const double interp_fraction = 0.95;

  bench::print_header("Fig. 7 node models (paper hardware, parameterized by DESIGN.md)");
  util::Table nodes({"node", "variant", "modeled speedup", "paper value"});
  {
    const auto daint = cluster::predict_node_speedups(cluster::piz_daint_node(),
                                                      cluster::NodeModelInputs{interp_fraction});
    nodes.add_row({"Piz Daint XC50", daint[0].variant, "1.0", "1.0"});
    nodes.add_row({"Piz Daint XC50", daint.back().variant,
                   util::fmt_double(daint.back().speedup, 3), "25"});
    const auto tave = cluster::predict_node_speedups(cluster::grand_tave_node(),
                                                     cluster::NodeModelInputs{interp_fraction});
    nodes.add_row({"Grand Tave XC40", tave[1].variant, util::fmt_double(tave[1].speedup, 3),
                   "96"});
    // Node-to-node: one Haswell thread is ~8x one KNL thread on this scalar,
    // branchy workload (1.4 GHz in-order-ish KNL core vs 2.6 GHz Haswell);
    // whole-node ratio = (daint hybrid speedup) / (tave speedup / 8).
    const double knl_thread_handicap = 8.0;
    nodes.add_row({"Piz Daint / Grand Tave", "node-to-node ratio",
                   util::fmt_double(daint.back().speedup / (tave[1].speedup / knl_thread_handicap), 3),
                   "~2 (Daint node ~2x faster)"});
  }
  bench::print_table(nodes);
  std::printf("paper baseline runtime for this step: 2,243 s on one Piz Daint CPU thread\n");
  return 0;
}

const bool registered = [] {
  for (const std::size_t threads : thread_counts())
    benchlib::register_benchmark("fig7/step/" + variant_name(threads, false),
                                 [threads](benchlib::State& s) { run_step_bench(s, threads, false); });
  benchlib::register_benchmark("fig7/step/hybrid", [](benchlib::State& s) {
    run_step_bench(s, hw_threads(), true);
  });
  benchlib::register_report(report_fig7);
  return true;
}();

}  // namespace

int main(int argc, char** argv) {
  return hddm::benchlib::run_main(argc, argv, "bench_fig7_single_node");
}
