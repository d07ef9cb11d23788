// The `avx` kernel: compressed-format interpolation with the surplus
// accumulation loop manually vectorized for 256-bit AVX (4 doubles per
// vector); the chain walk is the shared scalar detail::walk_chains — a
// short, data-dependent loop. As the paper observes (Sec. V-A), the gain over
// `x86` is minimal because the kernel is memory-bound on the surplus matrix
// traffic.
#include <immintrin.h>

#include "kernels/kernels_internal.hpp"

namespace hddm::kernels::detail {

__attribute__((target("avx"), flatten)) void evaluate_avx(const core::CompressedGridData& grid,
                                                          const double* x, double* value) {
  const int nd = grid.ndofs;
  const int nd4 = nd & ~3;
  evaluate_compressed(
      grid, x, value, [&](std::uint32_t p, double temp, std::size_t) __attribute__((target("avx"))) {
        const double* srow = grid.surplus_row(p);
        const __m256d vtemp = _mm256_set1_pd(temp);
        int dof = 0;
        for (; dof < nd4; dof += 4) {
          const __m256d acc = _mm256_loadu_pd(value + dof);
          const __m256d s = _mm256_loadu_pd(srow + dof);
          // AVX has no FMA; multiply + add is the best available.
          _mm256_storeu_pd(value + dof, _mm256_add_pd(acc, _mm256_mul_pd(vtemp, s)));
        }
        for (; dof < nd; ++dof) value[dof] += temp * srow[dof];
      });
}

}  // namespace hddm::kernels::detail
