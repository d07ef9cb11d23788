#include "cluster/distributed_ti.hpp"

#include <cstring>
#include <span>
#include <stdexcept>

#include "cluster/group_assign.hpp"
#include "parallel/work_stealing_pool.hpp"
#include "sparse_grid/dense_format.hpp"
#include "util/rng.hpp"

namespace hddm::cluster {

namespace {

using core::AsgPolicy;
using core::PolicyEvaluator;

/// Appends one state's grid to the world merge payload: [state, nbytes,
/// nresidual], the sg::append_dense_grid_bytes block packed into
/// ceil(nbytes / 8) doubles (zero-padded), then the state's nresidual
/// residual doubles (core::level_step's residual rows, which the Anderson
/// mix on every rank needs).
void append_state_block(int state, const sg::DenseGridData& grid,
                        std::span<const double> residual, std::vector<double>& out) {
  std::vector<unsigned char> bytes;
  sg::append_dense_grid_bytes(grid, bytes);
  out.push_back(static_cast<double>(state));
  out.push_back(static_cast<double>(bytes.size()));
  out.push_back(static_cast<double>(residual.size()));
  const std::size_t at = out.size();
  out.resize(at + (bytes.size() + sizeof(double) - 1) / sizeof(double), 0.0);
  std::memcpy(out.data() + at, bytes.data(), bytes.size());
  out.insert(out.end(), residual.begin(), residual.end());
}

/// One grid per state, decoded from the merged payload, and its residual
/// rows, viewing the payload.
struct StateBlocks {
  std::vector<std::unique_ptr<core::ShockGrid>> grids;
  std::vector<std::span<const double>> residuals;
};

/// Decodes the merged payload, which must outlive the returned residual
/// views; every state must arrive exactly once.
StateBlocks parse_state_blocks(std::span<const double> payload, int nshocks,
                               kernels::KernelKind kind) {
  StateBlocks out;
  std::vector<std::unique_ptr<core::ShockGrid>>& grids = out.grids;
  grids.resize(static_cast<std::size_t>(nshocks));
  out.residuals.resize(static_cast<std::size_t>(nshocks));
  std::size_t pos = 0;
  while (pos < payload.size()) {
    if (payload.size() - pos < 3) throw std::runtime_error("distributed merge: truncated header");
    const double state = payload[pos];
    const double nbytes = payload[pos + 1];
    const double nresidual = payload[pos + 2];
    pos += 3;
    if (!(state >= 0.0 && state < nshocks) ||
        grids[static_cast<std::size_t>(state)] != nullptr)
      throw std::runtime_error("distributed merge: bad or repeated state");
    if (!(nbytes >= 0.0 && nbytes <= static_cast<double>((payload.size() - pos) * sizeof(double))))
      throw std::runtime_error("distributed merge: truncated grid block");
    const auto size = static_cast<std::size_t>(nbytes);
    const std::span<const unsigned char> bytes(
        reinterpret_cast<const unsigned char*>(payload.data() + pos), size);
    std::size_t offset = 0;
    sg::DenseGridData dense = sg::parse_dense_grid_bytes(bytes, offset);
    if (offset != size) throw std::runtime_error("distributed merge: grid block size mismatch");
    grids[static_cast<std::size_t>(state)] = std::make_unique<core::ShockGrid>(std::move(dense), kind);
    pos += (size + sizeof(double) - 1) / sizeof(double);
    if (!(nresidual >= 0.0 && nresidual <= static_cast<double>(payload.size() - pos)))
      throw std::runtime_error("distributed merge: truncated residual block");
    const std::span<const double> residual =
        payload.subspan(pos, static_cast<std::size_t>(nresidual));
    out.residuals[static_cast<std::size_t>(state)] = residual;
    pos += residual.size();
  }
  for (const auto& g : grids)
    if (g == nullptr) throw std::runtime_error("distributed merge: state missing");
  return out;
}

/// One distributed policy update (steps 1-4 of the header comment).
std::shared_ptr<AsgPolicy> distributed_step(SimComm world, const core::DynamicModel& model,
                                            const PolicyEvaluator& p_next,
                                            const std::vector<std::uint64_t>& workload,
                                            const core::TimeIterationOptions& opts,
                                            parallel::WorkStealingPool& pool,
                                            core::AndersonMixer& mixer,
                                            core::IterationStats& stats) {
  core::StepAccounting accounting(p_next, stats);
  const int Ns = model.num_shocks();
  const int nranks = world.size();

  // State-to-rank mapping: proportional groups when ranks are plentiful,
  // round-robin state sharing otherwise.
  std::vector<int> my_states;
  SimComm group = world;
  if (nranks >= Ns) {
    const std::vector<int> sizes = proportional_group_sizes(workload, nranks);
    const std::vector<int> colors = rank_colors(sizes);
    const int color = colors[static_cast<std::size_t>(world.rank())];
    group = world.split(color, world.rank());
    my_states.push_back(color);
  } else {
    const int color = world.rank();
    group = world.split(color, 0);  // singleton group
    for (int z = world.rank(); z < Ns; z += nranks) my_states.push_back(z);
  }

  core::LevelShare share{group.rank(), group.size(), nullptr};
  if (group.size() > 1)
    share.merge = [&group](std::span<const double> rows) { return group.allgatherv(rows); };

  // Build the owned states concurrently. Group rank 0 contributes each to
  // the world exchange; the others send nothing (their copy is identical).
  std::vector<std::vector<double>> state_blocks(my_states.size());
  const auto serialize = [&](std::size_t i, core::LevelStepResult& built) {
    if (group.rank() == 0)
      append_state_block(my_states[i], built.grid, built.residual, state_blocks[i]);
  };
  core::build_shocks(model, my_states, p_next, opts, pool, share, stats, serialize);
  std::vector<double> my_blocks;
  for (const std::vector<double>& block : state_blocks)
    my_blocks.insert(my_blocks.end(), block.begin(), block.end());

  // World-wide policy merge.
  const std::vector<double> payload = world.allgatherv(my_blocks);
  StateBlocks merged = parse_state_blocks(payload, Ns, opts.kernel);

  world.barrier();  // footnote 4's MPI_Barrier(MPI_COMM_WORLD)

  // Each rank saw only its share of the change; take the world max/sum.
  stats.policy_change_linf = world.allreduce_max(stats.policy_change_linf);
  stats.policy_change_l2 = world.allreduce_sum(stats.policy_change_l2);
  // Every rank holds every state's grid and residual rows, so each runs the
  // single-node driver's mix on the same data and gets its bits.
  return accounting.finish(model, opts, std::move(merged.grids), merged.residuals, mixer);
}

}  // namespace

DistributedResult run_distributed_time_iteration(SimComm world, const core::DynamicModel& model,
                                                 const core::TimeIterationOptions& options) {
  DistributedResult result;
  parallel::WorkStealingPool pool(options.threads);
  core::AndersonMixer mixer(options.acceleration_depth);
  util::Rng residual_rng(options.seed);
  const core::InitialPolicyEvaluator initial(model);
  const PolicyEvaluator* p_next = &initial;
  std::shared_ptr<AsgPolicy> current;

  std::vector<std::uint64_t> workload(static_cast<std::size_t>(model.num_shocks()), 1);
  for (int it = 0; it < options.max_iterations; ++it) {
    core::IterationStats stats;
    stats.iteration = it;
    std::shared_ptr<AsgPolicy> next =
        distributed_step(world, model, *p_next, workload, options, pool, mixer, stats);
    if (options.residual_samples > 0)
      stats.euler_residual =
          core::sampled_euler_residual(model, *next, options.residual_samples, residual_rng);
    result.history.push_back(stats);

    const auto per_shock = next->points_per_shock();
    workload.assign(per_shock.begin(), per_shock.end());

    current = std::move(next);
    p_next = current.get();
    // Iteration 0 measures the distance to the analytic warm start, not to a
    // solved policy — never declare convergence on it.
    if (it > 0 && stats.policy_change_linf < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.policy = std::move(current);
  return result;
}

}  // namespace hddm::cluster
