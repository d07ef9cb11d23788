// Restart of the time-iteration protocol from a snapshot: save a mid-run
// policy, reload it in a "fresh process" (new driver), and continue. The
// restart must keep converging from where it stopped, which is the paper's
// restart-from-coarser-grid workflow (Sec. V-C) made durable.
#include <gtest/gtest.h>

#include <sstream>

#include "core/time_iteration.hpp"
#include "olg/olg_model.hpp"
#include "serve/snapshot.hpp"

namespace hddm::serve {
namespace {

/// Saves `policy` and loads it back on the kernel it was built with (the
/// solve-side restart keeps its kernel; ISA revalidation is a serving
/// concern tested elsewhere).
std::shared_ptr<core::AsgPolicy> save_and_reload(const core::AsgPolicy& policy) {
  SnapshotMeta meta;
  meta.model = "olg";
  std::stringstream buffer;
  save_snapshot(policy, meta, buffer);
  return load_snapshot(buffer, policy.kernel_kind()).policy;
}

TEST(CheckpointIntegration, ResumeContinuesConverging) {
  const olg::OlgModel model(olg::build_economy(olg::reduced_calibration(4, 2, 1)));

  core::TimeIterationOptions opts;
  opts.base_level = 2;
  opts.tolerance = 0.0;  // fixed iteration counts

  // Phase 1: run 4 iterations, snapshot.
  core::TimeIterationDriver driver1(model, opts);
  const core::InitialPolicyEvaluator initial(model);
  std::shared_ptr<core::AsgPolicy> policy;
  double change_at_save = 0.0;
  {
    const core::PolicyEvaluator* p = &initial;
    for (int it = 0; it < 4; ++it) {
      core::IterationStats stats;
      policy = driver1.step(*p, stats);
      p = policy.get();
      change_at_save = stats.policy_change_linf;
    }
  }

  // Phase 2: reload into a fresh driver and continue.
  const std::shared_ptr<core::AsgPolicy> restored = save_and_reload(*policy);
  core::TimeIterationDriver driver2(model, opts);
  core::IterationStats stats;
  (void)driver2.step(*restored, stats);
  // One more step from the restored policy contracts further.
  EXPECT_LT(stats.policy_change_linf, change_at_save);

  // And it matches a continuation without the snapshot round trip.
  core::IterationStats direct_stats;
  (void)driver1.step(*policy, direct_stats);
  EXPECT_NEAR(stats.policy_change_linf, direct_stats.policy_change_linf, 1e-12);
}

TEST(CheckpointIntegration, RestartWithFinerGridsMatchesPaperProtocol) {
  // Sec. V-C: "a nonadaptive sparse grid of refinement level 4 that was
  // restarted from a sparse grid of level 2" — level-up restarts must work
  // from a snapshot of the coarse policy.
  const olg::OlgModel model(olg::build_economy(olg::reduced_calibration(4, 2, 1)));

  core::TimeIterationOptions coarse;
  coarse.base_level = 2;
  coarse.max_iterations = 6;
  coarse.tolerance = 0.0;
  const auto stage1 = core::solve_time_iteration(model, coarse);
  const std::shared_ptr<core::AsgPolicy> restored = save_and_reload(*stage1.policy);

  core::TimeIterationOptions fine;
  fine.base_level = 3;
  fine.tolerance = 0.0;
  core::TimeIterationDriver driver(model, fine);
  core::IterationStats stats;
  const auto refined = driver.step(*restored, stats);
  EXPECT_GT(refined->total_points(), stage1.policy->total_points());
  // Warm-started from the coarse solution, the fine grid's first update is
  // already small.
  EXPECT_LT(stats.policy_change_linf, 0.2);
}

}  // namespace
}  // namespace hddm::serve
