// Common interface of the interpolation kernels benchmarked in the paper's
// Table II / Fig. 6: gold, x86, avx, avx2, avx512, and the GPU-structured
// kernel (the paper's "cuda" row, executed here by the simulated device —
// see DESIGN.md substitutions).
//
// A kernel is bound to one grid (dense for `gold`, compressed for the rest)
// and evaluates the full ndofs-vector interpolant at points of [0,1]^d.
// evaluate() is const and safe to call concurrently from many threads; the
// scratch each call needs lives in thread-local storage sized to the grid.
#pragma once

#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "core/compression.hpp"
#include "sparse_grid/dense_format.hpp"

namespace hddm::kernels {

enum class KernelKind { Gold, X86, Avx, Avx2, Avx512, SimGpu };

/// All kinds in benchmark order (the row order of Table II).
inline constexpr KernelKind kAllKernelKinds[] = {KernelKind::Gold, KernelKind::X86,
                                                 KernelKind::Avx,  KernelKind::Avx2,
                                                 KernelKind::Avx512, KernelKind::SimGpu};

std::string_view kernel_name(KernelKind kind);

class InterpolationKernel {
 public:
  virtual ~InterpolationKernel() = default;

  [[nodiscard]] virtual KernelKind kind() const = 0;
  [[nodiscard]] std::string_view name() const { return kernel_name(kind()); }

  [[nodiscard]] virtual int dim() const = 0;
  [[nodiscard]] virtual int ndofs() const = 0;

  /// value[0..ndofs) = u(x); overwrites value.
  virtual void evaluate(const double* x, double* value) const = 0;

  /// Batched evaluation (npoints rows of x, npoints rows of value) — the
  /// primary entry point of the device-offload pipeline: the dispatcher
  /// (parallel::DeviceDispatcher) drains each accumulated batch through one
  /// call, amortizing per-launch cost over the batch. The default loops over
  /// evaluate(); kernels with per-launch setup cost (the GPU-structured
  /// kernel) override it to share one launch across all points. Overrides
  /// must produce results bit-identical to per-point evaluate() — the
  /// dispatcher's CPU fallback and the batched path are interchangeable
  /// mid-run (contract enforced by tests/parallel/test_dispatcher.cpp).
  virtual void evaluate_batch(const double* x, double* value, std::size_t npoints) const;
};

/// One surplus set of a shared chain walk and where its results go.
struct WalkTarget {
  const double* surplus = nullptr;  ///< nno x ndofs rows, in the index's point order
  double* value = nullptr;          ///< ndofs outputs
  double* grad = nullptr;           ///< ndofs x dim outputs (gradient walk only)
};

/// Shared value walk: several grids with one compressed index (equal nno,
/// nfreq, factors, chains and skip pointers; only their surplus matrices
/// differ) evaluated at one x by a single compute_xpv and chain walk over
/// `index`. Each target's value[0..ndofs) receives temp * surplus row in the
/// same point order with the same accumulate step as the x86 kernel, so it
/// is bit-identical to that grid's x86 evaluate(). The gathers run this once
/// per (coordinate row, shock class); see DESIGN.md, "Shock classes".
///
/// Only dofs [dof_begin, dof_end) are computed: value[dof] for dof in the
/// range is written (value still points at dof 0 of the row), the rest of
/// the row is left as it was. Each dof's sum is independent of the others,
/// so the range changes no bit of the dofs it computes.
void evaluate_shared(const core::CompressedGridData& index, const double* x,
                     std::span<const WalkTarget> targets, int dof_begin, int dof_end);

/// Shared value + gradient walk over one compressed index: each point's
/// prefix/suffix derivative products are formed once and applied to every
/// target, whose value and grad (layout of evaluate_with_gradient) are
/// bit-identical to a single-grid evaluate_with_gradient on its own grid.
/// The dof range is evaluate_shared's: grad[dof * dim + t] is written for
/// the dofs in range only, in the full row's dof-major layout.
void evaluate_shared_with_gradient(const core::CompressedGridData& index, const double* x,
                                   std::span<const WalkTarget> targets, int dof_begin,
                                   int dof_end);

/// Compressed-format value + gradient walk (scalar): value[0..ndofs) = u(x)
/// and grad[dof * dim + t] = d u_dof / d x_t (row-major, one dim-row per
/// dof). Walks the same xpv chains as the x86 kernel with one extra
/// derivative table and per-chain prefix/suffix products, so a refresh costs
/// a small constant times one x86 evaluation instead of dim+1 of them.
/// Values are bit-identical to the x86 kernel's evaluate() (same factors,
/// same multiplication and accumulation order); the gradient is the exact
/// a.e. derivative of the piecewise-multilinear interpolant with
/// sg::hat_derivative's kink convention. It is the one-target call of
/// evaluate_shared_with_gradient, whose gathers feed the analytic Euler
/// Jacobians (see DESIGN.md, "Jacobian pipeline"), and the walk behind
/// core::ShockGrid::evaluate_with_gradient.
void evaluate_with_gradient(const core::CompressedGridData& grid, const double* x,
                            double* value, double* grad);

/// True when the host CPU can execute the given kernel (CPUID check for the
/// vector ISAs; gold/x86/simgpu always run).
bool kernel_supported(KernelKind kind);

/// The widest-vector CPU kernel this host can execute (Avx512 > Avx2 > Avx >
/// X86), honoring both CPUID and the HDDM_WITH_AVX512 compile gate. The
/// benchmark harness records it as the host's ISA tier (benchlib/sysinfo.cpp).
KernelKind best_supported_kernel();

/// Creates a kernel bound to the given grids. `dense` may be null unless
/// kind == Gold; `compressed` may be null only for Gold. The caller keeps
/// the grid data alive for the kernel's lifetime.
std::unique_ptr<InterpolationKernel> make_kernel(KernelKind kind,
                                                 const sg::DenseGridData* dense,
                                                 const core::CompressedGridData* compressed);

}  // namespace hddm::kernels
