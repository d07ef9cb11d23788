// ASG-backed policy functions: one adaptive sparse grid per discrete shock
// (Sec. IV: "an individual ASG per discrete state z").
//
// AsgPolicy is the p_next object the equilibrium solves interpolate on. Each
// shock's grid carries the dense point set, the compressed index structure
// of Sec. IV-B and an optimized interpolation kernel; an optional device
// dispatcher partially offloads evaluations (Sec. IV-A's hybrid scheme).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/compression.hpp"
#include "core/model.hpp"
#include "kernels/kernel_api.hpp"
#include "parallel/device_dispatcher.hpp"
#include "sparse_grid/dense_format.hpp"

namespace hddm::core {

/// Monotonic counters of the per-solve gather entry point (evaluate_gather
/// traffic on one policy object) — the counterpart of DispatcherStats one
/// layer up: gathers collapsing to ~1 per residual evaluation while
/// gathered_requests stays at Ns x residual evaluations is the per-solve
/// amortization working.
struct GatherStats {
  std::uint64_t gathers = 0;            ///< evaluate_gather calls served
  std::uint64_t gathered_requests = 0;  ///< requests carried by those calls
  std::uint64_t gradient_gathers = 0;   ///< evaluate_gather_with_gradient calls
  std::uint64_t gradient_requests = 0;  ///< requests carried by those calls
  /// Chain walks the value and gradient gathers ran: one per request on the
  /// per-shock path, one per (coordinate row, shock class) on the class path
  /// — walks per gather falling below requests per gather is the class path
  /// working.
  std::uint64_t walks = 0;
  [[nodiscard]] double mean_requests() const {
    return gathers == 0 ? 0.0
                        : static_cast<double>(gathered_requests) / static_cast<double>(gathers);
  }
  /// Counter delta relative to an earlier snapshot of the same policy (how
  /// the per-iteration stats in core::IterationStats are derived).
  [[nodiscard]] GatherStats since(const GatherStats& before) const {
    return {gathers - before.gathers, gathered_requests - before.gathered_requests,
            gradient_gathers - before.gradient_gathers,
            gradient_requests - before.gradient_requests, walks - before.walks};
  }
};

/// One shock's ASG: points + surpluses in both storage formats + kernel.
class ShockGrid {
 public:
  /// Builds from a dense grid (points + final surpluses, e.g.
  /// sg::make_dense_grid of a GridStorage, or a snapshot's deserialized
  /// block), adopted as-is: no GridStorage hash index is ever rebuilt just
  /// to serve queries. Point order is preserved, hence the compressed layout
  /// and every kernel evaluation depend only on the dense grid.
  ShockGrid(sg::DenseGridData dense, kernels::KernelKind kind);

  [[nodiscard]] std::uint32_t num_points() const { return dense_.nno; }
  [[nodiscard]] int ndofs() const { return dense_.ndofs; }
  [[nodiscard]] const sg::DenseGridData& dense() const { return dense_; }
  [[nodiscard]] const CompressedGridData& compressed() const { return compressed_; }
  [[nodiscard]] const kernels::InterpolationKernel& kernel() const { return *kernel_; }

  void evaluate(std::span<const double> x_unit, std::span<double> out) const {
    kernel_->evaluate(x_unit.data(), out.data());
  }

  /// Replaces the surpluses (nno x ndofs, dense point order) on the same
  /// point set — the accelerated time iteration's mixed update. The
  /// compressed copy follows, and the bound kernel serves the new values.
  /// Not for a grid a published policy already serves.
  void replace_surpluses(std::span<const double> dense_order);

  /// Value + gradient on the compressed-format walk: out[0..ndofs) = p(x),
  /// grad[dof*dim + t] = d p_dof / d x_t (row-major per dof). Values are
  /// bit-identical to the x86 kernel's evaluate() (same chain walk — see
  /// kernels::evaluate_with_gradient), ULP-bounded vs the other kernels; the
  /// gradient is the exact a.e. derivative of the piecewise-multilinear
  /// interpolant (validated against sg::reference_interpolate_with_gradient).
  void evaluate_with_gradient(std::span<const double> x_unit, std::span<double> out,
                              std::span<double> grad) const;

 private:
  sg::DenseGridData dense_;
  CompressedGridData compressed_;
  std::unique_ptr<kernels::InterpolationKernel> kernel_;
};

/// The complete policy p = (p(z=1,.), ..., p(z=Ns,.)).
class AsgPolicy final : public PolicyEvaluator {
 public:
  AsgPolicy(int ndofs, std::vector<std::unique_ptr<ShockGrid>> grids);

  [[nodiscard]] int num_shocks() const override { return static_cast<int>(grids_.size()); }
  [[nodiscard]] int ndofs() const override { return ndofs_; }
  void evaluate(int z, std::span<const double> x_unit, std::span<double> out) const override;

  /// Batched evaluation through the offload pipeline: the point run is
  /// submitted to the device in max_batch-sized ticketed chunks (all
  /// submissions first, one wait per ticket afterwards); chunks the
  /// saturated device rejects are evaluated on the CPU kernel while the
  /// accepted ones drain. Without an attached device this is one CPU
  /// evaluate_batch call.
  void evaluate_batch(int z, std::span<const double> xs, std::span<double> out,
                      std::size_t npoints) const override;

  /// Gathered evaluation (see PolicyEvaluator::evaluate_gather for the
  /// bit-identity contract). When rows repeat (requests.size() > npoints),
  /// no device is attached and the grids are bound to the x86 kernel, the
  /// requests are grouped by (coordinate row, shock class) and each group is
  /// ONE shared chain walk (kernels::evaluate_shared) writing straight into
  /// the requests' out slots. Otherwise — serving's one-request-per-row
  /// gathers, the device route, the other kernel tiers — requests are
  /// bucketed by shock, stably, and each shock's bucket goes through
  /// evaluate_batch (one kernel batch on the CPU or ticketed chunks on the
  /// offload pipeline), then is scattered back. See DESIGN.md, "Shock
  /// classes".
  void evaluate_gather(std::span<const GatherRequest> requests, std::span<const double> xs,
                       std::size_t npoints, std::span<double> out,
                       std::size_t out_stride) const override;

  /// Gathered value + policy-gradient evaluation for the analytic Euler
  /// Jacobians: requests are grouped by (coordinate row, shock class) and
  /// each group is one shared value + gradient walk (kernels::
  /// evaluate_shared_with_gradient), bit-identical per request to
  /// ShockGrid::evaluate_with_gradient. It is the x86 arithmetic whatever the
  /// kernel tier, on the CPU only — the gradient walk never rides the device
  /// pipeline (see the contract on the base class and DESIGN.md, "Jacobian
  /// pipeline" and "Shock classes").
  void evaluate_gather_with_gradient(std::span<const GatherRequest> requests,
                                     std::span<const double> xs, std::size_t npoints,
                                     std::span<double> values, std::size_t value_stride,
                                     std::span<double> grads,
                                     std::size_t grad_stride) const override;

  /// Cumulative evaluate_gather traffic on this policy (thread-safe; the
  /// drivers report per-iteration deltas of these, like the device stats).
  [[nodiscard]] GatherStats gather_stats() const {
    return {gathers_.load(std::memory_order_relaxed),
            gathered_requests_.load(std::memory_order_relaxed),
            gradient_gathers_.load(std::memory_order_relaxed),
            gradient_requests_.load(std::memory_order_relaxed),
            walks_.load(std::memory_order_relaxed)};
  }

  /// Shock class of z: the first shock whose grid has the same compressed
  /// index (nno, nfreq, xps, chains, skip) — shocks of one class differ only
  /// in their surpluses, so one chain walk serves them all.
  [[nodiscard]] int shock_class(int z) const { return class_of_[static_cast<std::size_t>(z)]; }

  [[nodiscard]] const ShockGrid& grid(int z) const { return *grids_[static_cast<std::size_t>(z)]; }
  /// CPU interpolation backend of the shock grids (all grids share one kind
  /// by construction) — what the snapshot layer records as the ISA tier.
  [[nodiscard]] kernels::KernelKind kernel_kind() const { return grids_.front()->kernel().kind(); }
  [[nodiscard]] std::uint32_t total_points() const;
  [[nodiscard]] std::vector<std::uint32_t> points_per_shock() const;

  /// Attaches a device kernel (one per shock is wasteful; the dispatcher
  /// owns a single simulated accelerator shared by all shocks — mirroring
  /// one GPU per node). Subsequent evaluate()/evaluate_batch() calls try the
  /// device first and fall back to the CPU kernel when it is busy.
  void attach_device(std::vector<std::unique_ptr<kernels::InterpolationKernel>> device_kernels,
                     parallel::DispatcherOptions options = {});
  /// The standard hybrid-node setup both time-iteration drivers use: builds
  /// one `kind` kernel per shock bound to this policy's own grids and
  /// attaches the dispatcher.
  void attach_default_device(kernels::KernelKind kind, parallel::DispatcherOptions options = {});
  /// Offload counters (points offloaded/rejected, launches, mean batch);
  /// zeros when no device is attached.
  [[nodiscard]] parallel::DispatcherStats device_stats() const;

 private:
  int ndofs_;
  std::vector<std::unique_ptr<ShockGrid>> grids_;
  // class_of_[z]: representative shock of z's class (see shock_class).
  std::vector<int> class_of_;
  // Every grid is bound to the x86 kernel, whose values the shared walk
  // reproduces bit for bit.
  bool x86_grids_ = false;
  // Device path: one kernel per shock bound to that shock's compressed grid,
  // all sharing one dispatcher (one accelerator per node), whose queue the
  // waiting solver threads drive themselves.
  std::vector<std::unique_ptr<kernels::InterpolationKernel>> device_kernels_;
  std::unique_ptr<parallel::DeviceDispatcher> dispatcher_;
  // Gather traffic counters (relaxed: diagnostics, not synchronization).
  mutable std::atomic<std::uint64_t> gathers_{0};
  mutable std::atomic<std::uint64_t> gathered_requests_{0};
  mutable std::atomic<std::uint64_t> gradient_gathers_{0};
  mutable std::atomic<std::uint64_t> gradient_requests_{0};
  mutable std::atomic<std::uint64_t> walks_{0};
};

/// Per-point view of another evaluator: forwards evaluate() but keeps the
/// PolicyEvaluator default evaluate_batch/evaluate_gather loops — the
/// pre-gather scalar regime. Parity tests and bench_gather wrap the same
/// AsgPolicy in this view to pit gathered against per-shock scalar
/// evaluation bit for bit. The gradient entry point forwards to the inner
/// evaluator unchanged: it is not part of the scalar-vs-gathered value
/// contract under test, and forwarding keeps solve trajectories bit-
/// identical across the two views. The models' analytic Euler Jacobians
/// read p_next's gradients through this entry point; the base-class
/// finite-difference default would perturb them.
class ScalarPolicyView final : public PolicyEvaluator {
 public:
  explicit ScalarPolicyView(const PolicyEvaluator& inner) : inner_(inner) {}
  [[nodiscard]] int num_shocks() const override { return inner_.num_shocks(); }
  [[nodiscard]] int ndofs() const override { return inner_.ndofs(); }
  void evaluate(int z, std::span<const double> x_unit, std::span<double> out) const override {
    inner_.evaluate(z, x_unit, out);
  }
  void evaluate_gather_with_gradient(std::span<const GatherRequest> requests,
                                     std::span<const double> xs, std::size_t npoints,
                                     std::span<double> values, std::size_t value_stride,
                                     std::span<double> grads,
                                     std::size_t grad_stride) const override {
    inner_.evaluate_gather_with_gradient(requests, xs, npoints, values, value_stride, grads,
                                         grad_stride);
  }

 private:
  const PolicyEvaluator& inner_;
};

/// Iteration-0 policy: wraps DynamicModel::initial_policy.
class InitialPolicyEvaluator final : public PolicyEvaluator {
 public:
  explicit InitialPolicyEvaluator(const DynamicModel& model) : model_(model) {}
  [[nodiscard]] int num_shocks() const override { return model_.num_shocks(); }
  [[nodiscard]] int ndofs() const override { return model_.ndofs(); }
  void evaluate(int z, std::span<const double> x_unit, std::span<double> out) const override {
    const std::vector<double> dofs = model_.initial_policy(z, x_unit);
    std::copy(dofs.begin(), dofs.end(), out.begin());
  }

 private:
  const DynamicModel& model_;
};

}  // namespace hddm::core
