// Property-style sweeps over the interpolation kernels: adaptive grids,
// surplus updates, determinism, and linearity — behaviours every backend
// must share regardless of ISA.
#include <gtest/gtest.h>

#include <cmath>

#include "kernels/kernel_api.hpp"
#include "sparse_grid/adaptive.hpp"
#include "sparse_grid/hierarchize.hpp"
#include "sparse_grid/regular.hpp"
#include "support/interpolate.hpp"
#include "util/rng.hpp"

namespace hddm::kernels {
namespace {

std::vector<KernelKind> supported() {
  std::vector<KernelKind> out;
  for (const KernelKind k : kAllKernelKinds)
    if (kernel_supported(k)) out.push_back(k);
  return out;
}

struct AdaptiveFixture {
  sg::GridStorage storage{3};
  sg::DenseGridData dense;
  core::CompressedGridData compressed;

  AdaptiveFixture() {
    // Ragged adaptive grid: refine a kinked function for two rounds.
    const auto f = [](std::span<const double> x) {
      return std::vector<double>{std::fabs(x[0] - 0.3) + 0.5 * x[1] * x[2],
                                 std::sin(4.0 * x[0]) + x[2]};
    };
    sg::build_regular_grid(storage, 3);
    for (int round = 0; round < 2; ++round) {
      const sg::DenseGridData grid = sg::hierarchize_function(storage, 2, f);
      const auto ind = sg::max_abs_indicator(
          std::span<const double>(grid.surplus.data(), grid.surplus.size()), grid.nno, 2);
      sg::RefinementOptions opts;
      opts.epsilon = 5e-3;
      opts.max_level = 7;
      sg::refine_by_surplus(storage, 0, ind, opts);
    }
    dense = sg::hierarchize_function(storage, 2, f);
    compressed = core::compress(dense);
  }
};

TEST(KernelProperties, AllKernelsAgreeOnAdaptiveGrid) {
  const AdaptiveFixture fx;
  util::Rng rng(71);
  std::vector<double> want(2), got(2);
  for (const KernelKind kind : supported()) {
    const auto kernel = make_kernel(kind, &fx.dense, &fx.compressed);
    for (int trial = 0; trial < 30; ++trial) {
      const auto x = rng.uniform_point(3);
      sg::reference_interpolate(fx.dense, x, want);
      kernel->evaluate(x.data(), got.data());
      for (int dof = 0; dof < 2; ++dof)
        EXPECT_NEAR(got[dof], want[dof], 1e-12) << kernel_name(kind);
    }
  }
}

TEST(KernelProperties, EvaluationIsDeterministic) {
  const AdaptiveFixture fx;
  const std::vector<double> x{0.31, 0.62, 0.47};
  for (const KernelKind kind : supported()) {
    const auto kernel = make_kernel(kind, &fx.dense, &fx.compressed);
    std::vector<double> a(2), b(2);
    kernel->evaluate(x.data(), a.data());
    kernel->evaluate(x.data(), b.data());
    EXPECT_EQ(a, b) << kernel_name(kind);
  }
}

TEST(KernelProperties, InterpolationIsLinearInSurpluses) {
  // u[alpha + beta](x) == u[alpha](x) + u[beta](x): kernels are linear maps
  // of the surplus matrix.
  sg::GridStorage storage(4);
  sg::build_regular_grid(storage, 3);
  util::Rng rng(5);
  sg::DenseGridData a = sg::make_dense_grid(storage, 3);
  sg::DenseGridData b = sg::make_dense_grid(storage, 3);
  sg::DenseGridData sum = sg::make_dense_grid(storage, 3);
  for (std::size_t k = 0; k < a.surplus.size(); ++k) {
    a.surplus[k] = rng.uniform(-1, 1);
    b.surplus[k] = rng.uniform(-1, 1);
    sum.surplus[k] = a.surplus[k] + b.surplus[k];
  }
  const auto ca = core::compress(a);
  const auto cb = core::compress(b);
  const auto cs = core::compress(sum);

  for (const KernelKind kind : supported()) {
    if (kind == KernelKind::Gold) continue;  // dense path covered separately
    const auto ka = make_kernel(kind, &a, &ca);
    const auto kb = make_kernel(kind, &b, &cb);
    const auto ks = make_kernel(kind, &sum, &cs);
    std::vector<double> va(3), vb(3), vs(3);
    for (int trial = 0; trial < 10; ++trial) {
      const auto x = rng.uniform_point(4);
      ka->evaluate(x.data(), va.data());
      kb->evaluate(x.data(), vb.data());
      ks->evaluate(x.data(), vs.data());
      for (int dof = 0; dof < 3; ++dof)
        EXPECT_NEAR(vs[dof], va[dof] + vb[dof], 1e-11) << kernel_name(kind);
    }
  }
}

TEST(KernelProperties, UpdateSurplusesReflectsInEvaluation) {
  // The time-iteration fast path: refresh coefficient values on a fixed
  // index structure and re-evaluate without re-running the compression.
  sg::GridStorage storage(3);
  sg::build_regular_grid(storage, 3);
  util::Rng rng(8);
  sg::DenseGridData dense = sg::make_dense_grid(storage, 2);
  for (auto& s : dense.surplus) s = rng.uniform(-1, 1);
  core::CompressedGridData compressed = core::compress(dense);
  const auto kernel = make_kernel(KernelKind::X86, &dense, &compressed);

  const std::vector<double> x{0.4, 0.6, 0.2};
  std::vector<double> before(2);
  kernel->evaluate(x.data(), before.data());

  // Scale all surpluses by 3 in dense order.
  std::vector<double> fresh(dense.surplus.size());
  for (std::size_t k = 0; k < fresh.size(); ++k) fresh[k] = 3.0 * dense.surplus[k];
  core::update_surpluses(compressed, fresh);

  std::vector<double> after(2);
  kernel->evaluate(x.data(), after.data());
  EXPECT_NEAR(after[0], 3.0 * before[0], 1e-12);
  EXPECT_NEAR(after[1], 3.0 * before[1], 1e-12);
}

TEST(KernelProperties, NoReorderCompressionIsEquivalent) {
  // Disabling the surplus reordering (ablation switch) must not change any
  // interpolated value — it is a pure layout permutation.
  sg::GridStorage storage(5);
  sg::build_regular_grid(storage, 3);
  util::Rng rng(13);
  sg::DenseGridData dense = sg::make_dense_grid(storage, 4);
  for (auto& s : dense.surplus) s = rng.uniform(-1, 1);

  const auto ordered = core::compress(dense);
  const auto unordered = core::compress(dense, core::CompressOptions{.reorder_points = false});
  // Identity order when reordering is off.
  for (std::uint32_t p = 0; p < unordered.nno; ++p) EXPECT_EQ(unordered.order[p], p);

  const auto ka = make_kernel(KernelKind::X86, &dense, &ordered);
  const auto kb = make_kernel(KernelKind::X86, &dense, &unordered);
  std::vector<double> va(4), vb(4);
  for (int trial = 0; trial < 25; ++trial) {
    const auto x = rng.uniform_point(5);
    ka->evaluate(x.data(), va.data());
    kb->evaluate(x.data(), vb.data());
    for (int dof = 0; dof < 4; ++dof) EXPECT_NEAR(va[dof], vb[dof], 1e-12);
  }
}

TEST(KernelProperties, ConstantFunctionReproducedEverywhere) {
  // A grid hierarchized from a constant has only the root surplus; every
  // kernel must return the constant at any x, including corners.
  sg::GridStorage storage(3);
  sg::build_regular_grid(storage, 4);
  const sg::DenseGridData dense = sg::hierarchize_function(
      storage, 1, [](std::span<const double>) { return std::vector<double>{4.2}; });
  const auto compressed = core::compress(dense);
  for (const KernelKind kind : supported()) {
    const auto kernel = make_kernel(kind, &dense, &compressed);
    double v = 0.0;
    for (const std::vector<double>& x :
         {std::vector<double>{0, 0, 0}, {1, 1, 1}, {0.123, 0.456, 0.789}}) {
      kernel->evaluate(x.data(), &v);
      EXPECT_NEAR(v, 4.2, 1e-12) << kernel_name(kind);
    }
  }
}

}  // namespace
}  // namespace hddm::kernels
