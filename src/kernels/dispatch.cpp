// Runtime kernel selection: name table, CPUID feature checks, factory. The
// compressed CPU tiers share one kernel class over their evaluate entry
// points (kernels_internal.hpp).
#include <stdexcept>

#include "kernels/kernel_api.hpp"
#include "kernels/kernels_internal.hpp"

namespace hddm::kernels {

namespace {

/// A compressed CPU kernel: one tier's evaluate entry point bound to a grid.
template <KernelKind Kind, detail::CompressedEvaluate Evaluate>
class CompressedKernel final : public InterpolationKernel {
 public:
  explicit CompressedKernel(const core::CompressedGridData& grid) : grid_(grid) {}

  [[nodiscard]] KernelKind kind() const override { return Kind; }
  [[nodiscard]] int dim() const override { return grid_.dim; }
  [[nodiscard]] int ndofs() const override { return grid_.ndofs; }

  void evaluate(const double* x, double* value) const override { Evaluate(grid_, x, value); }

 private:
  const core::CompressedGridData& grid_;
};

template <KernelKind Kind, detail::CompressedEvaluate Evaluate>
std::unique_ptr<InterpolationKernel> bind(const core::CompressedGridData& grid) {
  return std::make_unique<CompressedKernel<Kind, Evaluate>>(grid);
}

}  // namespace

std::string_view kernel_name(KernelKind kind) {
  switch (kind) {
    case KernelKind::Gold: return "gold";
    case KernelKind::X86: return "x86";
    case KernelKind::Avx: return "avx";
    case KernelKind::Avx2: return "avx2";
    case KernelKind::Avx512: return "avx512";
    case KernelKind::SimGpu: return "cuda(sim)";
  }
  return "unknown";
}

bool kernel_supported(KernelKind kind) {
  switch (kind) {
    case KernelKind::Gold:
    case KernelKind::X86:
    case KernelKind::SimGpu:
      return true;
    case KernelKind::Avx:
      return __builtin_cpu_supports("avx");
    case KernelKind::Avx2:
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
    case KernelKind::Avx512:
#ifdef HDDM_WITH_AVX512
      return __builtin_cpu_supports("avx512f");
#else
      return false;
#endif
  }
  return false;
}

KernelKind best_supported_kernel() {
  for (const KernelKind kind :
       {KernelKind::Avx512, KernelKind::Avx2, KernelKind::Avx, KernelKind::X86})
    if (kernel_supported(kind)) return kind;
  return KernelKind::X86;
}

void InterpolationKernel::evaluate_batch(const double* x, double* value,
                                         std::size_t npoints) const {
  const int d = dim();
  const int nd = ndofs();
  for (std::size_t k = 0; k < npoints; ++k)
    evaluate(x + k * static_cast<std::size_t>(d), value + k * static_cast<std::size_t>(nd));
}

std::unique_ptr<InterpolationKernel> make_kernel(KernelKind kind, const sg::DenseGridData* dense,
                                                 const core::CompressedGridData* compressed) {
  if (!kernel_supported(kind))
    throw std::runtime_error(std::string("kernel not supported on this host: ") +
                             std::string(kernel_name(kind)));
  switch (kind) {
    case KernelKind::Gold:
      if (dense == nullptr) throw std::invalid_argument("gold kernel requires dense grid data");
      return detail::make_gold_kernel(*dense);
    case KernelKind::X86:
    case KernelKind::Avx:
    case KernelKind::Avx2:
    case KernelKind::Avx512:
    case KernelKind::SimGpu:
      if (compressed == nullptr)
        throw std::invalid_argument("compressed kernels require compressed grid data");
      switch (kind) {
        case KernelKind::X86: return bind<KernelKind::X86, detail::evaluate_x86>(*compressed);
        case KernelKind::Avx: return bind<KernelKind::Avx, detail::evaluate_avx>(*compressed);
        case KernelKind::Avx2: return bind<KernelKind::Avx2, detail::evaluate_avx2>(*compressed);
        case KernelKind::Avx512:
#ifdef HDDM_WITH_AVX512
          return bind<KernelKind::Avx512, detail::evaluate_avx512>(*compressed);
#else
          throw std::runtime_error("avx512 kernel disabled at configure time");
#endif
        default: return detail::make_simgpu_kernel(*compressed);
      }
  }
  throw std::invalid_argument("unknown kernel kind");
}

}  // namespace hddm::kernels
