// Time iteration (Algorithm 1) with per-shock adaptive sparse grids and the
// single-node part of the hybrid parallelization scheme of Sec. IV-A.
//
// Each iteration rebuilds every shock's ASG level by level: solve the
// equilibrium system at the level's new points (work-stealing pool, optional
// device offload of p_next interpolations), hierarchize the new surpluses
// incrementally, refine adaptively where the surplus indicator exceeds the
// threshold epsilon, and stop at the level cap. Convergence is measured as
// the change between successive policies on the asset-demand coefficients.
//
// That per-shock level loop is written once, as level_step(). The
// distributed (multi-rank) driver in src/cluster/ calls the same function
// with a LevelShare naming its block of every level's points and the group
// merge; the single-node driver solves every point and merges nothing.
// Both drivers build their shocks concurrently through build_shocks(), and
// both return the Anderson-mixed policy of core::AndersonMixer (depth
// TimeIterationOptions::acceleration_depth; 0 is the plain Algorithm 1).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "core/anderson.hpp"
#include "core/model.hpp"
#include "core/policy.hpp"
#include "kernels/kernel_api.hpp"
#include "parallel/device_dispatcher.hpp"
#include "parallel/work_stealing_pool.hpp"
#include "sparse_grid/dense_format.hpp"
#include "util/function_ref.hpp"
#include "util/timer.hpp"

namespace hddm::util {
class Rng;
}

namespace hddm::core {

struct TimeIterationOptions {
  /// Regular sparse-grid level built unconditionally each iteration.
  int base_level = 2;
  /// Adaptive refinement threshold epsilon; <= 0 disables adaptivity.
  double refine_epsilon = 0.0;
  /// Level cap for adaptive refinement (the paper's Lmax = 6).
  int max_level = 6;

  int max_iterations = 100;
  /// Convergence tolerance on the sup-norm policy change (asset dofs).
  double tolerance = 1e-4;
  /// Anderson acceleration depth m: each step returns the mix of its solved
  /// policy with up to m difference columns of the previous steps (see
  /// core::AndersonMixer). 0 gives the paper's plain Algorithm 1.
  int acceleration_depth = 2;

  /// Worker threads of the driver's parallel::WorkStealingPool (0 =
  /// hardware_concurrency - 1). The calling thread also runs tasks while it
  /// waits on a parallel_for, so `threads = 1` solves on up to two threads.
  std::size_t threads = 1;
  kernels::KernelKind kernel = kernels::KernelKind::X86;
  /// Offload p_next interpolations to the simulated accelerator through the
  /// batched dispatcher pipeline (ticketed en-bloc submission per level).
  bool use_device = false;
  kernels::KernelKind device_kernel = kernels::KernelKind::SimGpu;
  /// Dispatcher configuration (single source of truth for the defaults):
  /// `offload.max_batch` is also the chunk size the warm-start collection
  /// submits per ticket; `offload.queue_capacity` is the outstanding-point
  /// bound past which chunks fall back to the CPU kernel.
  parallel::DispatcherOptions offload;

  /// Extra diagnostics: Euler residuals at `residual_samples` random
  /// off-grid points per shock each iteration (0 disables).
  int residual_samples = 0;
  std::uint64_t seed = 42;
};

/// Totals of one shock's level_step() over the points this caller solved.
struct ShockTotals {
  std::uint32_t solver_failures = 0;
  /// Non-converged point solves per PointSolveResult::status (indexed by
  /// solver::NewtonStatus); sums to solver_failures.
  std::array<std::uint32_t, solver::kNewtonStatusCount> failures_by_status{};
  std::uint64_t interpolations = 0;  ///< warm starts + the solves' p_next evaluations
  std::uint64_t gathers = 0;         ///< evaluate_gather calls inside the solves
  std::uint64_t jacobian_refreshes = 0;  ///< summed over the point solves
  double change_linf = 0.0;          ///< max normalized change vs. p_next
  double change_l2_sum = 0.0;        ///< sum of squared normalized changes
  double solve_seconds = 0.0;        ///< warm starts + point solves
  double hierarchize_seconds = 0.0;
};

/// Per-iteration statistics. Every field is a delta of exactly one step():
/// both drivers reset the struct at entry (keeping `iteration`) and report
/// dispatcher/gather counters as deltas of p_next's cumulative totals, so a
/// multi-step run never re-reports an earlier iteration's work — even when
/// the caller reuses one stats object across steps.
struct IterationStats {
  int iteration = 0;
  double policy_change_l2 = 0.0;    ///< RMS change over grid points (asset dofs)
  double policy_change_linf = 0.0;  ///< sup-norm change
  double euler_residual = 0.0;      ///< mean sampled residual (if enabled)
  std::uint32_t total_points = 0;
  std::vector<std::uint32_t> points_per_shock;
  std::uint32_t solver_failures = 0;  ///< non-converged point solves
  /// solver_failures split by the failed solves' solver::NewtonStatus
  /// (indexed by it; the Converged slot counts solves a model rejected
  /// despite a converged Newton run).
  std::array<std::uint32_t, solver::kNewtonStatusCount> failures_by_status{};
  std::uint64_t interpolations = 0;
  std::uint64_t solver_gathers = 0;      ///< gathers issued inside point solves
  std::uint64_t jacobian_refreshes = 0;  ///< Jacobian refreshes of the point solves
  /// This step's delta of p_next's gather counters (zero when p_next is not
  /// an AsgPolicy).
  GatherStats gather;
  /// This step's delta of p_next's offload counters (zero without a device).
  parallel::DispatcherStats device;
  /// Difference columns the Anderson mix used (0: the plain update).
  int acceleration_columns = 0;
  /// 1 when this step cleared a non-empty Anderson history (new point set
  /// or growing residual), else 0.
  int acceleration_restarts = 0;
  /// Accumulates one shock's level_step() totals (both drivers, every
  /// shock they build). policy_change_l2 holds the plain sum of squares
  /// until StepAccounting::finish() turns it into an RMS.
  void record_shock(const ShockTotals& t) {
    solver_failures += t.solver_failures;
    interpolations += t.interpolations;
    solver_gathers += t.gathers;
    policy_change_linf = std::max(policy_change_linf, t.change_linf);
    policy_change_l2 += t.change_l2_sum;
    solve_seconds += t.solve_seconds;
    hierarchize_seconds += t.hierarchize_seconds;
    for (std::size_t i = 0; i < failures_by_status.size(); ++i)
      failures_by_status[i] += t.failures_by_status[i];
    jacobian_refreshes += t.jacobian_refreshes;
  }
  /// Per-iteration reset: zero everything but the iteration index (called by
  /// the drivers at step entry so reused structs cannot accumulate).
  void reset_for_step() {
    IterationStats fresh;
    fresh.iteration = iteration;
    *this = std::move(fresh);
  }
  double seconds = 0.0;  ///< wall time of the step
  /// Summed over the shocks, which are built concurrently, so the two can
  /// add up to more than `seconds`.
  double solve_seconds = 0.0;
  double hierarchize_seconds = 0.0;
};

struct TimeIterationResult {
  std::shared_ptr<AsgPolicy> policy;
  std::vector<IterationStats> history;
  bool converged = false;
  int iterations = 0;
  double final_change = 0.0;
  [[nodiscard]] double total_seconds() const {
    double s = 0.0;
    for (const auto& st : history) s += st.seconds;
    return s;
  }
};

/// Half-open block [begin, end) of a partition of items over workers.
struct Range {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  [[nodiscard]] std::uint64_t size() const { return end - begin; }
};

/// Block partition of `count` items over `parts` workers: returns the block
/// of worker `index`; earlier parts get the remainder.
Range block_partition(std::uint64_t count, int parts, int index);

/// Which block of every level's new points one level_step() caller solves,
/// and how the solved rows of all callers come together. The defaults (one
/// caller, no merge) are the single-node driver; the distributed driver
/// passes its group rank/size and the group's allgatherv.
struct LevelShare {
  int rank = 0;
  int size = 1;
  /// Takes this caller's solved rows (its block, point-major, ndofs each)
  /// and returns every caller's rows of the level in point order. Empty:
  /// the caller solved all points itself.
  std::function<std::vector<double>(std::span<const double>)> merge;
};

/// One shock's finished grid, its nodal residual rows and the caller's
/// totals.
struct LevelStepResult {
  sg::DenseGridData grid;
  /// The nodal residual rows g - x (solved minus warm-start values on the
  /// indicator dofs), one per grid point in dense point order, of every
  /// caller's points: the Anderson mix's input.
  std::vector<double> residual;
  ShockTotals totals;
};

/// Builds shock z's ASG for the policy update given p_next, level by level
/// (the Fig. 2 inner loop): add the level's points (the regular increment up
/// to base_level, surplus-driven refinement above it), interpolate warm
/// starts for this caller's block through p_next.evaluate_batch in
/// offload.max_batch chunks, solve the block's points on `pool`, merge the
/// rows of all callers, hierarchize the new rows, and compute the next
/// round's refinement indicators. Hierarchization and refinement run
/// redundantly on every caller, so all callers end with bit-identical grids.
/// Per-point counters and policy changes are reduced once per level, in
/// point order, so the totals do not depend on the pool's thread count.
/// The merge carries the residual rows too (LevelStepResult::residual).
LevelStepResult level_step(const DynamicModel& model, int z, const PolicyEvaluator& p_next,
                           const TimeIterationOptions& opts, parallel::WorkStealingPool& pool,
                           const LevelShare& share = {});

/// Builds the grids of `shocks` for the policy update given p_next as the
/// tasks of one parallel_for on `pool`: task i runs level_step for
/// shocks[i], whose point loops nest inside on the same pool, and then
/// finish(i, result) (compression and kernel bind, or serialization). The
/// totals are recorded into `stats` after the loop in the order of
/// `shocks`, so statistics and grids do not depend on the schedule. A
/// merging share is a collective over its group, so it takes one shock.
///
/// Invariant: no pool wait happens inside a point solve. A waiting thread
/// runs other tasks, including other shocks' point solves, and a point
/// solve's buffers (core::executor_workspace()) are thread_local, so a wait
/// inside one would let another solve overwrite them.
void build_shocks(const DynamicModel& model, std::span<const int> shocks,
                  const PolicyEvaluator& p_next, const TimeIterationOptions& opts,
                  parallel::WorkStealingPool& pool, const LevelShare& share,
                  IterationStats& stats,
                  util::function_ref<void(std::size_t, LevelStepResult&)> finish);

/// The bookkeeping both drivers' policy updates share. Construction resets
/// `stats` (keeping the iteration index) and snapshots p_next's cumulative
/// offload and gather counters. finish() reports this step's deltas of them,
/// runs the Anderson mix over the shock grids (`residuals[z]` holds shock
/// z's LevelStepResult::residual), wraps the grids into the next policy
/// (attaching the device when opts.use_device), fills the point counts,
/// turns the summed squared change into an RMS over (points x indicator
/// dofs) and stamps the wall time.
class StepAccounting {
 public:
  StepAccounting(const PolicyEvaluator& p_next, IterationStats& stats);
  std::shared_ptr<AsgPolicy> finish(const DynamicModel& model, const TimeIterationOptions& opts,
                                    std::vector<std::unique_ptr<ShockGrid>> grids,
                                    std::span<const std::span<const double>> residuals,
                                    AndersonMixer& mixer);

 private:
  util::Timer timer_;
  IterationStats& stats_;
  const AsgPolicy* prev_;
  parallel::DispatcherStats device_before_;
  GatherStats gather_before_;
};

/// Mean Euler residual of `policy` at `samples` uniform random states per
/// shock — the IterationStats::euler_residual diagnostic of both run loops
/// (TimeIterationOptions::residual_samples, drawn from a seed-initialized
/// generator the run loop owns).
double sampled_euler_residual(const DynamicModel& model, const PolicyEvaluator& policy,
                              int samples, util::Rng& rng);

class TimeIterationDriver {
 public:
  TimeIterationDriver(const DynamicModel& model, TimeIterationOptions options);

  /// Runs Algorithm 1 to convergence (or the iteration cap), starting from
  /// an empty Anderson history.
  TimeIterationResult run();

  /// Performs exactly one policy update given p_next and returns it mixed
  /// with the driver's Anderson history of earlier step() calls; exposed for
  /// the single-node benchmark (Fig. 7 evaluates "a single time step") and
  /// for step-by-step callers (restarts, tracing). A fresh driver stepped
  /// from the initial policy reproduces run() bit for bit.
  std::shared_ptr<AsgPolicy> step(const PolicyEvaluator& p_next, IterationStats& stats);

  /// Optional per-iteration observer (progress logging in examples/benches).
  std::function<void(const IterationStats&)> on_iteration;

 private:
  const DynamicModel& model_;
  TimeIterationOptions opts_;
  std::unique_ptr<parallel::WorkStealingPool> pool_;
  AndersonMixer mixer_;
};

/// Convenience entry point.
TimeIterationResult solve_time_iteration(const DynamicModel& model,
                                         const TimeIterationOptions& options);

}  // namespace hddm::core
