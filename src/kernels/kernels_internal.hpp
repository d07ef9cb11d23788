// Internal pieces of the kernels module: the factory hooks dispatch.cpp
// binds, and the one compressed chain walk every CPU tier specializes.
//
// Each ISA tier (x86.cpp, avx.cpp, avx2.cpp, avx512.cpp) contributes only its
// evaluate entry point: evaluate_compressed() instantiated with the tier's
// accumulate step (scalar, AVX mul+add, AVX2 FMA, AVX-512 masked FMA) inside
// a function carrying the tier's target attribute and `flatten`, so walk and
// accumulate compile into one loop of that ISA and every Table II row keeps
// its own arithmetic. compute_xpv is defined out of line in x86.cpp: the
// factors are then computed by the same baseline code for every tier, never
// contracted into an FMA by a wider target. See DESIGN.md, "Compressed chain
// walk".
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "kernels/kernel_api.hpp"

namespace hddm::kernels::detail {

std::unique_ptr<InterpolationKernel> make_gold_kernel(const sg::DenseGridData& dense);
std::unique_ptr<InterpolationKernel> make_simgpu_kernel(const core::CompressedGridData& grid);

/// One compressed CPU tier's evaluate(): value[0..ndofs) = u(x).
using CompressedEvaluate = void (*)(const core::CompressedGridData& grid, const double* x,
                                    double* value);
void evaluate_x86(const core::CompressedGridData& grid, const double* x, double* value);
void evaluate_avx(const core::CompressedGridData& grid, const double* x, double* value);
void evaluate_avx2(const core::CompressedGridData& grid, const double* x, double* value);
#ifdef HDDM_WITH_AVX512
void evaluate_avx512(const core::CompressedGridData& grid, const double* x, double* value);
#endif

/// Computes the xpv scratch (unique basis factors at x) shared by all
/// compressed kernels from the grid's factor table: xpv[0] = 1 (sentinel),
/// xpv[k] = max(0, phi_k(x)). `xpv` must have grid.xps_size() entries.
void compute_xpv(const core::CompressedGridData& grid, const double* x, double* xpv);

/// The compressed chain walk (Fig. 5, left) over points [begin, end): each
/// point multiplies its chain's factors in slot order, and
/// accumulate(p, temp, len) receives every point whose product temp is
/// nonzero, with len its chain length. A product that hits 0 at slot f jumps
/// to grid.skip[p * nfreq + f]: every point before that pointer shares the
/// prefix [0..f], multiplies the same factors in the same order and would be
/// exactly 0 too, so the skip changes no bit of the result.
template <class Accumulate>
inline void walk_chains(const core::CompressedGridData& grid, const double* xpv,
                        std::uint32_t begin, std::uint32_t end, Accumulate&& accumulate) {
  const auto nfreq = static_cast<std::size_t>(grid.nfreq);
  for (std::uint32_t p = begin; p < end;) {
    const std::uint32_t* chain = grid.chain_row(p);
    double temp = 1.0;
    std::size_t f = 0;
    for (; f < nfreq && chain[f] != 0; ++f) {
      temp *= xpv[chain[f]];
      if (temp == 0.0) break;
    }
    if (temp == 0.0) {
      p = grid.skip[p * nfreq + f];
      continue;
    }
    accumulate(p, temp, f);
    ++p;
  }
}

/// A compressed CPU tier's whole evaluate(): zeroes value, fills this
/// thread's xpv scratch and walks every point, accumulate(p, temp, len)
/// adding temp * surplus_row(p) into value.
template <class Accumulate>
inline void evaluate_compressed(const core::CompressedGridData& grid, const double* x,
                                double* value, Accumulate&& accumulate) {
  thread_local std::vector<double> xpv;
  xpv.resize(grid.xps_size());
  compute_xpv(grid, x, xpv.data());
  std::fill(value, value + grid.ndofs, 0.0);
  walk_chains(grid, xpv.data(), 0, grid.nno, accumulate);
}

}  // namespace hddm::kernels::detail
