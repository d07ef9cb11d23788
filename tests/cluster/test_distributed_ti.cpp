#include "cluster/distributed_ti.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>

#include "cluster/sim_comm.hpp"
#include "olg/olg_model.hpp"

namespace hddm::cluster {
namespace {

olg::OlgModel small_model() {
  return olg::OlgModel(olg::build_economy(olg::reduced_calibration(4, 2, 1)));
}

core::TimeIterationOptions fixed_iterations(int iterations) {
  core::TimeIterationOptions opts;
  opts.base_level = 2;
  opts.max_iterations = iterations;
  opts.tolerance = 0.0;
  return opts;
}

core::TimeIterationOptions adaptive_iterations(int iterations) {
  core::TimeIterationOptions opts = fixed_iterations(iterations);
  opts.refine_epsilon = 1e-2;
  opts.max_level = 4;
  return opts;
}

/// Shock by shock, the same points in the same order (pairs compared field
/// by field: LevelIndex has padding bytes) and memcmp-equal surpluses.
void expect_identical_grids(const core::AsgPolicy& expected, const core::AsgPolicy& actual) {
  ASSERT_EQ(actual.num_shocks(), expected.num_shocks());
  for (int z = 0; z < expected.num_shocks(); ++z) {
    const sg::DenseGridData& e = expected.grid(z).dense();
    const sg::DenseGridData& a = actual.grid(z).dense();
    ASSERT_EQ(a.nno, e.nno) << "shock " << z;
    EXPECT_TRUE(a.pairs == e.pairs) << "shock " << z;
    ASSERT_EQ(a.surplus.size(), e.surplus.size()) << "shock " << z;
    EXPECT_EQ(std::memcmp(a.surplus.data(), e.surplus.data(), e.surplus.size() * sizeof(double)),
              0)
        << "shock " << z;
  }
}

/// Runs the distributed driver on `nranks` ranks and requires every rank to
/// reproduce the single-node driver (one pool thread) exactly: the same
/// grids bit for bit, the same policy change and point count per iteration.
void expect_matches_single_node(const core::DynamicModel& model,
                                const core::TimeIterationOptions& opts, int nranks) {
  core::TimeIterationOptions single = opts;
  single.threads = 1;
  const core::TimeIterationResult ref = core::solve_time_iteration(model, single);

  std::vector<DistributedResult> per_rank(static_cast<std::size_t>(nranks));
  SimCluster::run(nranks, [&](SimComm world) {
    per_rank[static_cast<std::size_t>(world.rank())] =
        run_distributed_time_iteration(world, model, opts);
  });

  for (int rank = 0; rank < nranks; ++rank) {
    const DistributedResult& r = per_rank[static_cast<std::size_t>(rank)];
    SCOPED_TRACE("rank " + std::to_string(rank) + " of " + std::to_string(nranks));
    ASSERT_EQ(r.history.size(), ref.history.size());
    for (std::size_t it = 0; it < ref.history.size(); ++it) {
      EXPECT_EQ(r.history[it].policy_change_linf, ref.history[it].policy_change_linf)
          << "iteration " << it;
      EXPECT_EQ(r.history[it].total_points, ref.history[it].total_points) << "iteration " << it;
    }
    expect_identical_grids(*ref.policy, *r.policy);
  }
}

TEST(DistributedTi, SingleRankMatchesSingleProcessDriver) {
  expect_matches_single_node(small_model(), fixed_iterations(6), 1);
}

class DistributedRankCountTest : public ::testing::TestWithParam<int> {};

TEST_P(DistributedRankCountTest, PolicyIndependentOfRankCount) {
  core::TimeIterationOptions pooled = adaptive_iterations(3);
  pooled.threads = 2;  // each rank solves its block on its own two-thread pool
  const std::pair<const char*, core::TimeIterationOptions> cases[] = {
      {"regular grid", fixed_iterations(4)},
      {"adaptive grid", adaptive_iterations(3)},
      {"adaptive grid, two pool threads per rank", pooled}};
  const olg::OlgModel model = small_model();
  for (const auto& [name, opts] : cases) {
    SCOPED_TRACE(name);
    expect_matches_single_node(model, opts, GetParam());
  }
}

TEST_P(DistributedRankCountTest, ConcurrentStatesMatchSingleNode) {
  // Four states: with fewer ranks than that, each rank builds its states
  // concurrently on its own four-thread pool.
  const olg::OlgModel model(olg::build_economy(olg::reduced_calibration(4, 2, 2)));
  ASSERT_EQ(model.num_shocks(), 4);
  core::TimeIterationOptions opts = adaptive_iterations(3);
  opts.threads = 4;
  expect_matches_single_node(model, opts, GetParam());
}

// 2 states: 1 rank (both states on its pool), 2 ranks (one per state), 3
// ranks (proportional split), 4 ranks (two per state).
INSTANTIATE_TEST_SUITE_P(RankCounts, DistributedRankCountTest, ::testing::Values(1, 2, 3, 4));

TEST(DistributedTi, ConvergesOnSmallOlg) {
  const olg::OlgModel model = small_model();
  core::TimeIterationOptions opts;
  opts.base_level = 2;
  opts.max_iterations = 80;
  opts.tolerance = 1e-3;
  SimCluster::run(2, [&](SimComm world) {
    const DistributedResult r = run_distributed_time_iteration(world, model, opts);
    EXPECT_TRUE(r.converged);
    EXPECT_EQ(r.policy->num_shocks(), model.num_shocks());
  });
}

TEST(DistributedTi, DeviceOffloadInheritsBatchedPipeline) {
  const olg::OlgModel model = small_model();
  core::TimeIterationOptions opts;
  opts.base_level = 2;
  opts.max_iterations = 4;
  opts.tolerance = 0.0;

  std::vector<double> cpu_policy;
  SimCluster::run(2, [&](SimComm world) {
    const DistributedResult r = run_distributed_time_iteration(world, model, opts);
    if (world.rank() == 0) {
      std::vector<double> v(static_cast<std::size_t>(model.ndofs()));
      r.policy->evaluate(0, std::vector<double>(3, 0.5), v);
      cpu_policy = v;
    }
  });

  core::TimeIterationOptions dopts = opts;
  dopts.use_device = true;
  dopts.offload.max_batch = 8;
  std::vector<double> dev_policy;
  std::uint64_t offloaded = 0, batches = 0;
  SimCluster::run(2, [&](SimComm world) {
    const DistributedResult r = run_distributed_time_iteration(world, model, dopts);
    if (world.rank() == 0) {
      std::vector<double> v(static_cast<std::size_t>(model.ndofs()));
      r.policy->evaluate(0, std::vector<double>(3, 0.5), v);
      dev_policy = v;
      for (const auto& st : r.history) {
        offloaded += st.device_offloaded;
        batches += st.device_batches;
      }
    }
  });

  // Same converged policy (device kernel is numerically equivalent), and the
  // per-rank dispatcher really served batched warm starts.
  ASSERT_EQ(dev_policy.size(), cpu_policy.size());
  for (std::size_t k = 0; k < cpu_policy.size(); ++k)
    EXPECT_NEAR(dev_policy[k], cpu_policy[k], 1e-8) << "dof " << k;
  EXPECT_GT(offloaded, 0u);
  EXPECT_GT(batches, 0u);
  EXPECT_GT(static_cast<double>(offloaded) / static_cast<double>(batches), 1.0);
}

TEST(DistributedTi, AdaptiveRefinementStaysConsistentAcrossRanks) {
  const olg::OlgModel model = small_model();
  core::TimeIterationOptions opts;
  opts.base_level = 2;
  opts.refine_epsilon = 1e-2;
  opts.max_level = 4;
  opts.max_iterations = 3;
  opts.tolerance = 0.0;

  std::vector<std::uint32_t> points_by_rank(4, 0);
  SimCluster::run(4, [&](SimComm world) {
    const DistributedResult r = run_distributed_time_iteration(world, model, opts);
    points_by_rank[static_cast<std::size_t>(world.rank())] = r.policy->total_points();
  });
  for (int rank = 1; rank < 4; ++rank)
    EXPECT_EQ(points_by_rank[static_cast<std::size_t>(rank)], points_by_rank[0]);
}

}  // namespace
}  // namespace hddm::cluster
