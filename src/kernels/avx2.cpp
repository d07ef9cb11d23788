// The `avx2` kernel: like `avx` but deploys 256-bit FMA instructions in the
// surplus accumulation (the paper: "the AVX2 additionally deploys vector FMA
// instructions where applicable"); walk and factors are the shared ones of
// kernels_internal.hpp.
#include <immintrin.h>

#include "kernels/kernels_internal.hpp"

namespace hddm::kernels::detail {

__attribute__((target("avx2,fma"), flatten)) void evaluate_avx2(
    const core::CompressedGridData& grid, const double* x, double* value) {
  const int nd = grid.ndofs;
  const int nd4 = nd & ~3;
  evaluate_compressed(
      grid, x, value,
      [&](std::uint32_t p, double temp, std::size_t) __attribute__((target("avx2,fma"))) {
        const double* srow = grid.surplus_row(p);
        const __m256d vtemp = _mm256_set1_pd(temp);
        int dof = 0;
        for (; dof < nd4; dof += 4) {
          const __m256d acc = _mm256_loadu_pd(value + dof);
          const __m256d s = _mm256_loadu_pd(srow + dof);
          _mm256_storeu_pd(value + dof, _mm256_fmadd_pd(vtemp, s, acc));
        }
        for (; dof < nd; ++dof) value[dof] += temp * srow[dof];
      });
}

}  // namespace hddm::kernels::detail
