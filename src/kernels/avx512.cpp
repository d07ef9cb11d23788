// The `avx512` kernel: the compressed chain walk with 512-bit wide FMA
// intrinsics for the surplus accumulation, the dof tail handled by a masked
// FMA instead of a scalar loop (Sec. V-A).
//
// Deviation from Sec. V-A: on the KNL target the paper also parallelizes
// *inside* the kernel with OpenMP, reducing per-thread partial vector sums.
// Here one evaluate() is a single-threaded walk accumulating straight into
// `value`. evaluate() already runs inside the work-stealing pool's workers
// and the PolicyServer's reader threads, so a thread team per point would
// oversubscribe the cores; the parallelism lives one level up, across
// points (see DESIGN.md, "Substitutions").
#include <immintrin.h>

#include "kernels/kernels_internal.hpp"

namespace hddm::kernels::detail {

__attribute__((target("avx512f"), flatten)) void evaluate_avx512(
    const core::CompressedGridData& grid, const double* x, double* value) {
  const int nd = grid.ndofs;
  const int nd8 = nd & ~7;
  const __mmask8 tail_mask = static_cast<__mmask8>((1u << (nd - nd8)) - 1u);
  evaluate_compressed(
      grid, x, value,
      [&](std::uint32_t p, double temp, std::size_t) __attribute__((target("avx512f"))) {
        const double* srow = grid.surplus_row(p);
        const __m512d vtemp = _mm512_set1_pd(temp);
        int dof = 0;
        for (; dof < nd8; dof += 8) {
          const __m512d acc = _mm512_loadu_pd(value + dof);
          const __m512d s = _mm512_loadu_pd(srow + dof);
          _mm512_storeu_pd(value + dof, _mm512_fmadd_pd(vtemp, s, acc));
        }
        if (dof < nd) {
          const __m512d acc = _mm512_maskz_loadu_pd(tail_mask, value + dof);
          const __m512d s = _mm512_maskz_loadu_pd(tail_mask, srow + dof);
          _mm512_mask_storeu_pd(value + dof, tail_mask, _mm512_fmadd_pd(vtemp, s, acc));
        }
      });
}

}  // namespace hddm::kernels::detail
