#include "core/time_iteration.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <stdexcept>
#include <string>

#include "parallel/parallel_for.hpp"
#include "sparse_grid/adaptive.hpp"
#include "sparse_grid/hierarchize.hpp"
#include "sparse_grid/regular.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"

namespace hddm::core {

TimeIterationDriver::TimeIterationDriver(const DynamicModel& model, TimeIterationOptions options)
    : model_(model), opts_(std::move(options)), mixer_(opts_.acceleration_depth) {
  if (opts_.base_level < 1) throw std::invalid_argument("TimeIteration: base_level must be >= 1");
  if (opts_.max_level < opts_.base_level)
    throw std::invalid_argument("TimeIteration: max_level must be >= base_level");
  pool_ = std::make_unique<parallel::WorkStealingPool>(opts_.threads);
}

Range block_partition(std::uint64_t count, int parts, int index) {
  if (parts <= 0 || index < 0 || index >= parts)
    throw std::invalid_argument("block_partition: bad arguments");
  const std::uint64_t base = count / static_cast<std::uint64_t>(parts);
  const std::uint64_t extra = count % static_cast<std::uint64_t>(parts);
  const auto idx = static_cast<std::uint64_t>(index);
  const std::uint64_t begin = idx * base + std::min<std::uint64_t>(idx, extra);
  return {begin, begin + base + (idx < extra ? 1 : 0)};
}

LevelStepResult level_step(const DynamicModel& model, int z, const PolicyEvaluator& p_next,
                           const TimeIterationOptions& opts, parallel::WorkStealingPool& pool,
                           const LevelShare& share) {
  const int d = model.state_dim();
  const int nd = model.ndofs();
  const int nd_ind = model.indicator_dofs();
  const auto sd = static_cast<std::size_t>(d);
  const auto snd = static_cast<std::size_t>(nd);
  const auto snd_ind = static_cast<std::size_t>(nd_ind);

  LevelStepResult out;
  ShockTotals& totals = out.totals;
  sg::DenseGridData& dense = out.grid;
  std::vector<double>& residual = out.residual;
  dense.dim = d;
  dense.ndofs = nd;
  sg::GridStorage storage(d);

  // Per-dof normalization scales for the refinement indicator, measured from
  // the base-level nodal values (policy coefficients differ in magnitude
  // across ages). Only the leading indicator_dofs() drive refinement and the
  // convergence metric.
  std::vector<double> dof_scale(static_cast<std::size_t>(nd_ind), 0.0);
  bool scales_ready = false;

  std::vector<double> last_indicators;  // g(alpha) of the newest level's points
  std::uint32_t last_first = 0;         // first id of the newest level

  for (int level = 1; level <= opts.max_level; ++level) {
    const std::uint32_t n_known = storage.size();
    if (level <= opts.base_level) {
      sg::append_level_increment(storage, level);
    } else {
      if (opts.refine_epsilon <= 0.0) break;
      const sg::RefinementOptions ropts{opts.refine_epsilon, opts.max_level, true};
      sg::refine_by_surplus(storage, last_first, last_indicators, ropts);
    }
    if (storage.size() == n_known) break;  // nothing new -> done
    const std::uint32_t n_new = storage.size() - n_known;

    // Extend the dense mirror with the new points' pairs and empty rows.
    const auto flat = storage.flat_pairs();
    dense.pairs.assign(flat.begin(), flat.end());
    dense.nno = storage.size();
    dense.surplus.resize(static_cast<std::size_t>(dense.nno) * nd, 0.0);
    residual.resize(static_cast<std::size_t>(dense.nno) * snd_ind);

    // This caller's block of the level: point ids [first, first + nmine).
    const Range mine = block_partition(n_new, share.size, share.rank);
    const auto first = static_cast<std::uint32_t>(n_known + mine.begin);
    const auto nmine = static_cast<std::size_t>(mine.size());

    // --- Solve the equilibrium at the block's points (the Fig. 2 inner loop).
    {
      const util::ScopedAccumulator acc(totals.solve_seconds);

      // Warm starts = previous policy at the block's points, evaluated
      // through the batched entry point in offload.max_batch-sized chunks —
      // each chunk is one device ticket drained in a single launch
      // (CPU-kernel fallback when the queue is full) — instead of one
      // blocking per-point interpolation inside the workers. The coordinate
      // gather runs inside the chunk workers too, so no serial O(n) section
      // precedes the parallel solve.
      std::vector<double> xs(nmine * sd);
      std::vector<double> warm_values(nmine * snd);
      const std::size_t chunk = std::max<std::size_t>(opts.offload.max_batch, 1);
      const std::size_t nchunks = (nmine + chunk - 1) / chunk;
      parallel::parallel_for(
          pool, 0, nchunks,
          [&](std::size_t ci) {
            const std::size_t begin = ci * chunk;
            const std::size_t len = std::min(chunk, nmine - begin);
            for (std::size_t k = begin; k < begin + len; ++k)
              sg::point_coordinates(storage.point(first + static_cast<std::uint32_t>(k)),
                                    std::span<double>(xs).subspan(k * sd, sd));
            p_next.evaluate_batch(z, std::span<const double>(xs).subspan(begin * sd, len * sd),
                                  std::span<double>(warm_values).subspan(begin * snd, len * snd),
                                  len);
          },
          /*grain=*/1);
      totals.interpolations += nmine;

      std::vector<PointSolveResult> solved(nmine);
      parallel::parallel_for(
          pool, 0, nmine,
          [&](std::size_t k) {
            const std::span<const double> x_unit(xs.data() + k * sd, sd);
            const std::span<const double> warm(warm_values.data() + k * snd, snd);
            solved[k] = model.solve_point(z, x_unit, p_next, warm);
            std::copy(solved[k].dofs.begin(), solved[k].dofs.end(),
                      dense.surplus_row(first + static_cast<std::uint32_t>(k)));
          },
          /*grain=*/1);

      // Reduce the block once, in point order. Policy-change metric: the
      // normalized difference of the new nodal values to p_next's (the warm
      // starts) on the indicator dofs; the residual rows keep the plain
      // difference for the Anderson mix.
      for (std::size_t k = 0; k < nmine; ++k) {
        const PointSolveResult& res = solved[k];
        if (!res.converged) {
          ++totals.solver_failures;
          ++totals.failures_by_status[static_cast<std::size_t>(res.status)];
        }
        totals.interpolations += static_cast<std::uint64_t>(res.interpolations);
        totals.gathers += static_cast<std::uint64_t>(res.gathers);
        totals.jacobian_refreshes += static_cast<std::uint64_t>(res.jacobian_refreshes);

        const double* warm = warm_values.data() + k * snd;
        double* row = residual.data() + (first + k) * snd_ind;
        for (std::size_t dof = 0; dof < snd_ind; ++dof) row[dof] = res.dofs[dof] - warm[dof];
        double l2 = 0.0;
        for (int dof = 0; dof < nd_ind; ++dof) {
          const double diff = std::fabs(res.dofs[static_cast<std::size_t>(dof)] - warm[dof]) /
                              (1.0 + std::fabs(warm[dof]));
          totals.change_linf = std::max(totals.change_linf, diff);
          l2 += diff * diff;
        }
        totals.change_l2_sum += l2;
      }
    }

    // --- Merge every caller's rows of the level (Fig. 2 "merge"): the
    // nodal values, then the residual rows.
    if (share.merge) {
      const auto merge_rows = [&](double* level_rows, std::size_t width) {
        const std::vector<double> all = share.merge(
            std::span<const double>(level_rows + mine.begin * width, nmine * width));
        if (all.size() != static_cast<std::size_t>(n_new) * width)
          throw std::runtime_error("level_step: merged row count mismatch");
        std::copy(all.begin(), all.end(), level_rows);
      };
      merge_rows(dense.surplus_row(n_known), snd);
      merge_rows(residual.data() + n_known * snd_ind, snd_ind);
    }

    // --- Hierarchize the new nodal values into surpluses.
    {
      const util::ScopedAccumulator acc(totals.hierarchize_seconds);
      sg::hierarchize_tail(dense, n_known);
    }

    // --- Refinement indicators for the next round.
    if (!scales_ready) {
      for (std::uint32_t p = 0; p < dense.nno; ++p) {
        const double* row = dense.surplus_row(p);
        for (int dof = 0; dof < nd_ind; ++dof)
          dof_scale[static_cast<std::size_t>(dof)] =
              std::max(dof_scale[static_cast<std::size_t>(dof)], std::fabs(row[dof]));
      }
      for (double& s : dof_scale) s = std::max(s, 1e-8);
      scales_ready = true;
    }
    last_first = n_known;
    last_indicators.assign(n_new, 0.0);
    for (std::uint32_t k = 0; k < n_new; ++k) {
      const double* row = dense.surplus_row(n_known + k);
      double g = 0.0;
      for (int dof = 0; dof < nd_ind; ++dof)
        g = std::max(g, std::fabs(row[dof]) / dof_scale[static_cast<std::size_t>(dof)]);
      last_indicators[k] = g;
    }
  }
  return out;
}

StepAccounting::StepAccounting(const PolicyEvaluator& p_next, IterationStats& stats)
    : stats_(stats), prev_(dynamic_cast<const AsgPolicy*>(&p_next)) {
  // Strict per-iteration reporting: zero every accumulator up front (a
  // reused stats object must not carry earlier steps' counts into this one).
  stats_.reset_for_step();
  // Offload and gather counters are cumulative on p_next; the step reports
  // its contribution as a delta of the snapshots taken here.
  if (prev_ != nullptr) {
    device_before_ = prev_->device_stats();
    gather_before_ = prev_->gather_stats();
  }
}

std::shared_ptr<AsgPolicy> StepAccounting::finish(const DynamicModel& model,
                                                  const TimeIterationOptions& opts,
                                                  std::vector<std::unique_ptr<ShockGrid>> grids,
                                                  std::span<const std::span<const double>> residuals,
                                                  AndersonMixer& mixer) {
  if (prev_ != nullptr) {
    stats_.record_device_delta(prev_->device_stats().since(device_before_));
    stats_.record_gather_delta(prev_->gather_stats().since(gather_before_));
  }
  const MixOutcome mixed = mixer.mix(grids, residuals);
  stats_.acceleration_columns = mixed.columns;
  stats_.acceleration_restarts = mixed.restarted ? 1 : 0;

  auto policy = std::make_shared<AsgPolicy>(model.ndofs(), std::move(grids));
  // One dispatcher per driver instance (per rank in the distributed one):
  // each models a hybrid node with its own accelerator.
  if (opts.use_device) policy->attach_default_device(opts.device_kernel, opts.offload);

  stats_.total_points = policy->total_points();
  stats_.points_per_shock = policy->points_per_shock();
  // Normalize the accumulated L2 change into an RMS over (points x dofs).
  const double cells = static_cast<double>(stats_.total_points) * model.indicator_dofs();
  if (cells > 0.0) stats_.policy_change_l2 = std::sqrt(stats_.policy_change_l2 / cells);
  stats_.seconds = timer_.seconds();
  return policy;
}

double sampled_euler_residual(const DynamicModel& model, const PolicyEvaluator& policy,
                              int samples, util::Rng& rng) {
  util::RunningStats rs;
  std::vector<double> x(static_cast<std::size_t>(model.state_dim()));
  for (int z = 0; z < model.num_shocks(); ++z) {
    for (int s = 0; s < samples; ++s) {
      for (double& xi : x) xi = rng.uniform();
      rs.add(model.equilibrium_residual(z, x, policy));
    }
  }
  return rs.mean();
}

void build_shocks(const DynamicModel& model, std::span<const int> shocks,
                  const PolicyEvaluator& p_next, const TimeIterationOptions& opts,
                  parallel::WorkStealingPool& pool, const LevelShare& share,
                  IterationStats& stats,
                  util::function_ref<void(std::size_t, LevelStepResult&)> finish) {
  if (share.merge && shocks.size() > 1)
    throw std::invalid_argument("build_shocks: a merged share builds one shock at a time");
  std::vector<ShockTotals> totals(shocks.size());
  parallel::parallel_for(
      pool, 0, shocks.size(),
      [&](std::size_t i) {
        LevelStepResult built = level_step(model, shocks[i], p_next, opts, pool, share);
        totals[i] = built.totals;
        finish(i, built);
      },
      /*grain=*/1);
  for (const ShockTotals& t : totals) stats.record_shock(t);
}

std::shared_ptr<AsgPolicy> TimeIterationDriver::step(const PolicyEvaluator& p_next,
                                                     IterationStats& stats) {
  StepAccounting accounting(p_next, stats);
  // The top parallel layer (shocks -> MPI groups) lives in src/cluster/;
  // within one process the shocks are the tasks of one parallel_for, each
  // nesting its level's point loops on the same pool.
  const std::size_t Ns = static_cast<std::size_t>(model_.num_shocks());
  std::vector<int> shocks(Ns);
  std::iota(shocks.begin(), shocks.end(), 0);
  std::vector<std::unique_ptr<ShockGrid>> grids(Ns);
  std::vector<std::vector<double>> residuals(Ns);
  const auto bind = [&](std::size_t z, LevelStepResult& built) {
    grids[z] = std::make_unique<ShockGrid>(std::move(built.grid), opts_.kernel);
    residuals[z] = std::move(built.residual);
  };
  build_shocks(model_, shocks, p_next, opts_, *pool_, {}, stats, bind);
  const std::vector<std::span<const double>> views(residuals.begin(), residuals.end());
  return accounting.finish(model_, opts_, std::move(grids), views, mixer_);
}

namespace {

/// The non-zero entries of a step's failures_by_status as
/// " (line-search-failed=3 ...)", or "" when every point solve converged.
std::string failure_split(const IterationStats& stats) {
  std::string out;
  for (std::size_t i = 0; i < stats.failures_by_status.size(); ++i) {
    if (stats.failures_by_status[i] == 0) continue;
    out += out.empty() ? " (" : " ";
    out += solver::to_string(static_cast<solver::NewtonStatus>(i));
    out += '=';
    out += std::to_string(stats.failures_by_status[i]);
  }
  return out.empty() ? out : out + ")";
}

/// Chain walks per value or gradient gather p_next served this step (0
/// without gathers).
double walks_per_gather(const IterationStats& stats) {
  const std::uint64_t gathers = stats.policy_gathers + stats.gradient_gathers;
  return gathers == 0 ? 0.0
                      : static_cast<double>(stats.gather_walks) / static_cast<double>(gathers);
}

}  // namespace

TimeIterationResult TimeIterationDriver::run() {
  TimeIterationResult result;
  mixer_.clear();

  util::Rng residual_rng(opts_.seed);
  const InitialPolicyEvaluator initial(model_);
  const PolicyEvaluator* p_next = &initial;
  std::shared_ptr<AsgPolicy> current;

  for (int it = 0; it < opts_.max_iterations; ++it) {
    IterationStats stats;
    stats.iteration = it;
    std::shared_ptr<AsgPolicy> next = step(*p_next, stats);

    if (opts_.residual_samples > 0)
      stats.euler_residual =
          sampled_euler_residual(model_, *next, opts_.residual_samples, residual_rng);

    result.history.push_back(stats);
    if (on_iteration) on_iteration(stats);
    util::log_info("time-iteration it=", it, " points=", stats.total_points,
                   " dlinf=", stats.policy_change_linf, " dl2=", stats.policy_change_l2,
                   " fails=", stats.solver_failures, failure_split(stats),
                   " gathers=", stats.solver_gathers, " walks/gather=", walks_per_gather(stats),
                   " jac=", stats.jacobian_refreshes,
                   " anderson=", stats.acceleration_columns,
                   " restarts=", stats.acceleration_restarts,
                   " offl=", stats.device_offloaded, " batches=", stats.device_batches,
                   " secs=", stats.seconds);

    current = std::move(next);
    p_next = current.get();
    result.iterations = it + 1;
    result.final_change = stats.policy_change_linf;
    // Iteration 0 measures the distance to the analytic warm start, not to a
    // solved policy — never declare convergence on it.
    if (it > 0 && stats.policy_change_linf < opts_.tolerance) {
      result.converged = true;
      break;
    }
  }

  result.policy = std::move(current);
  return result;
}

TimeIterationResult solve_time_iteration(const DynamicModel& model,
                                         const TimeIterationOptions& options) {
  TimeIterationDriver driver(model, options);
  return driver.run();
}

}  // namespace hddm::core
