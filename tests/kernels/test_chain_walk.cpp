// Exactness of the compressed chain walk. The kernels evaluate factors from
// the compression's factor table and jump over zero-prefix runs with its
// skip pointers; neither may change a single bit. Five checks:
//   * every compressed CPU tier and evaluate_with_gradient against a
//     test-local reference walk that visits every point, evaluates factors
//     with sg::hat_value / sg::hat_derivative from (l, i), and accumulates in
//     the tier's own arithmetic (mul + add, or fused multiply-add);
//   * every compressed tier, cuda(sim) included, against itself on a copy of
//     the grid whose skip pointers are neutralized (skip = p + 1, i.e. no
//     point is ever jumped over);
//   * the skip-table invariants, directly;
//   * the shared walks (one walk, several surplus sets on one point set)
//     against one single-grid walk per surplus set, with and without skips;
//   * the shared walks over a dof range against the full-range walk: equal
//     bits inside the range, nothing written outside it.
// Grids are adaptive and shaped like the two models' (IRBC: d = 3, one dof
// per country; OLG: d = 7, 14 dofs), plus one built without the point
// reordering. Probes include hat kinks and support edges: 0, 1 and grid
// coordinates.
#include "kernels/kernel_api.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/compression.hpp"
#include "sparse_grid/basis.hpp"
#include "sparse_grid/grid_storage.hpp"
#include "sparse_grid/regular.hpp"
#include "util/rng.hpp"

namespace hddm::kernels {
namespace {

struct Shape {
  const char* name;
  int d;
  int base_level;
  int refinements;  ///< deep points inserted (with their ancestors) past the base
  int ndofs;
  bool reorder;
};

const Shape kShapes[] = {
    {"irbc", 3, 4, 60, 3, true},
    {"olg", 7, 3, 40, 14, true},
    {"irbc_noreorder", 3, 4, 60, 3, false},
};

// gtest prints the parameter into each listed test name. Without this it
// dumps the struct's raw bytes, `name` pointer included, so the names would
// change with the address-space layout of every run.
void PrintTo(const Shape& s, std::ostream* os) { *os << s.name; }

struct Fixture {
  sg::GridStorage storage;
  sg::DenseGridData dense;
  core::CompressedGridData grid;
};

/// A regular base grid refined at random deep points (each with 1-3 non-root
/// dimensions at levels past the base), with random surpluses.
Fixture build(const Shape& s) {
  Fixture fx{sg::GridStorage(s.d), {}, {}};
  sg::build_regular_grid(fx.storage, s.base_level);
  util::Rng rng(0xC4A1 + static_cast<std::uint64_t>(s.d));
  for (int k = 0; k < s.refinements; ++k) {
    sg::MultiIndex mi(static_cast<std::size_t>(s.d), sg::kRootPair);
    const int active = 1 + static_cast<int>(rng.uniform_index(3));
    for (int a = 0; a < active; ++a) {
      const auto t = static_cast<std::size_t>(rng.uniform_index(static_cast<std::uint64_t>(s.d)));
      const auto l = static_cast<sg::level_t>(s.base_level + 1 + rng.uniform_index(3));
      const sg::index_t odd = 2 * static_cast<sg::index_t>(rng.uniform_index(
                                      std::uint64_t{1} << (l - 2))) + 1;
      mi[t] = {l, odd};
    }
    fx.storage.close_ancestors(fx.storage.insert(mi).id);
  }
  fx.dense = sg::make_dense_grid(fx.storage, s.ndofs);
  for (auto& v : fx.dense.surplus) v = rng.uniform(-1.0, 1.0);
  fx.grid = core::compress(fx.dense, core::CompressOptions{.reorder_points = s.reorder});
  return fx;
}

/// Random interior points, corners, and grid coordinates with some
/// coordinates pinned to 0 or 1 — every kink and support edge of the hats.
std::vector<std::vector<double>> probes(const Fixture& fx, int d) {
  std::vector<std::vector<double>> xs;
  util::Rng rng(0x9F0B);
  for (int k = 0; k < 20; ++k) xs.push_back(rng.uniform_point(d));
  xs.emplace_back(static_cast<std::size_t>(d), 0.0);
  xs.emplace_back(static_cast<std::size_t>(d), 1.0);
  for (std::uint32_t p = 0; p < fx.storage.size(); p += 3) {
    std::vector<double> x = fx.storage.coordinates(p);
    xs.push_back(x);
    x[p % static_cast<std::uint32_t>(d)] = (p % 2 == 0) ? 0.0 : 1.0;
    xs.push_back(x);
  }
  return xs;
}

enum class Arith { MulAdd, Fma };

/// The chain walk with no skip and factors from (l, i): value[0..ndofs) and,
/// when grad is non-null, the gradient in evaluate_with_gradient's layout.
/// Accumulation uses `arith` for dofs below fma_end and mul + add above.
void reference_walk(const core::CompressedGridData& g, const double* x, Arith arith, int fma_end,
                    double* value, double* grad) {
  const std::size_t n = g.xps_size();
  const auto d = static_cast<std::size_t>(g.dim);
  std::vector<double> xpv(n, 1.0), xpd(n, 0.0), pre(static_cast<std::size_t>(g.nfreq));
  for (std::size_t k = 1; k < n; ++k) {
    const core::XpsEntry& e = g.xps[k];
    xpv[k] = sg::hat_value({e.l, e.i}, x[e.j]);
    xpd[k] = sg::hat_derivative({e.l, e.i}, x[e.j]);
  }
  std::fill(value, value + g.ndofs, 0.0);
  if (grad != nullptr) std::fill(grad, grad + static_cast<std::size_t>(g.ndofs) * d, 0.0);
  for (std::uint32_t p = 0; p < g.nno; ++p) {
    const std::uint32_t* chain = g.chain_row(p);
    double temp = 1.0;
    int len = 0;
    for (; len < g.nfreq && chain[len] != 0; ++len) {
      pre[static_cast<std::size_t>(len)] = temp;
      temp *= xpv[chain[len]];
      if (temp == 0.0) break;
    }
    if (temp == 0.0) continue;
    const double* srow = g.surplus_row(p);
    for (int dof = 0; dof < g.ndofs; ++dof) {
      if (arith == Arith::Fma && dof < fma_end)
        value[dof] = std::fma(temp, srow[dof], value[dof]);
      else
        value[dof] = value[dof] + temp * srow[dof];
    }
    if (grad == nullptr) continue;
    double suf = 1.0;
    for (int f = len - 1; f >= 0; --f) {
      const std::uint32_t idx = chain[f];
      const double dtemp = pre[static_cast<std::size_t>(f)] * suf * xpd[idx];
      suf *= xpv[idx];
      if (dtemp == 0.0) continue;
      for (int dof = 0; dof < g.ndofs; ++dof)
        grad[static_cast<std::size_t>(dof) * d + g.xps[idx].j] += dtemp * srow[dof];
    }
  }
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() && std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

class ChainWalkExactness : public ::testing::TestWithParam<Shape> {};

TEST_P(ChainWalkExactness, TiersMatchReferenceWalkBitForBit) {
  const Shape& s = GetParam();
  const Fixture fx = build(s);
  const int nd = s.ndofs;
  // The arithmetic each tier's accumulate step performs: scalar and AVX
  // multiply then add; AVX-512 fuses every dof (masked tail included);
  // AVX2 fuses the 4-wide vector part, while its scalar tail is left to the
  // compiler (covered by the neutralized-skip check below instead).
  struct Tier {
    KernelKind kind;
    Arith arith;
    int fma_end;
  };
  const Tier tiers[] = {{KernelKind::X86, Arith::MulAdd, 0},
                        {KernelKind::Avx, Arith::MulAdd, 0},
                        {KernelKind::Avx2, Arith::Fma, nd & ~3},
                        {KernelKind::Avx512, Arith::Fma, nd}};
  std::vector<double> want(static_cast<std::size_t>(nd)), got(want.size());
  for (const Tier& tier : tiers) {
    if (!kernel_supported(tier.kind)) continue;
    const auto kernel = make_kernel(tier.kind, nullptr, &fx.grid);
    for (const auto& x : probes(fx, s.d)) {
      reference_walk(fx.grid, x.data(), tier.arith, tier.fma_end, want.data(), nullptr);
      kernel->evaluate(x.data(), got.data());
      const int checked = tier.kind == KernelKind::Avx2 ? (nd & ~3) : nd;
      EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                               static_cast<std::size_t>(checked) * sizeof(double)))
          << kernel_name(tier.kind) << " differs from the reference walk on " << s.name;
    }
  }
}

TEST_P(ChainWalkExactness, GradientWalkMatchesReferenceBitForBit) {
  const Shape& s = GetParam();
  const Fixture fx = build(s);
  const auto nd = static_cast<std::size_t>(s.ndofs);
  std::vector<double> want(nd), got(nd);
  std::vector<double> want_grad(nd * static_cast<std::size_t>(s.d)), got_grad(want_grad.size());
  for (const auto& x : probes(fx, s.d)) {
    reference_walk(fx.grid, x.data(), Arith::MulAdd, 0, want.data(), want_grad.data());
    evaluate_with_gradient(fx.grid, x.data(), got.data(), got_grad.data());
    EXPECT_TRUE(bitwise_equal(want, got)) << "value differs on " << s.name;
    EXPECT_TRUE(bitwise_equal(want_grad, got_grad)) << "gradient differs on " << s.name;
  }
}

TEST_P(ChainWalkExactness, SkipChangesNoBitOfAnyTier) {
  const Shape& s = GetParam();
  const Fixture fx = build(s);
  core::CompressedGridData noskip = fx.grid;
  const auto nfreq = static_cast<std::size_t>(fx.grid.nfreq);
  for (std::uint32_t p = 0; p < noskip.nno; ++p)
    for (std::size_t f = 0; f < nfreq; ++f) noskip.skip[p * nfreq + f] = p + 1;

  const auto nd = static_cast<std::size_t>(s.ndofs);
  std::vector<double> want(nd), got(nd);
  for (const KernelKind kind : {KernelKind::X86, KernelKind::Avx, KernelKind::Avx2,
                                KernelKind::Avx512, KernelKind::SimGpu}) {
    if (!kernel_supported(kind)) continue;
    const auto walked = make_kernel(kind, nullptr, &noskip);
    const auto skipped = make_kernel(kind, nullptr, &fx.grid);
    for (const auto& x : probes(fx, s.d)) {
      walked->evaluate(x.data(), want.data());
      skipped->evaluate(x.data(), got.data());
      EXPECT_TRUE(bitwise_equal(want, got)) << kernel_name(kind) << " on " << s.name;
    }
  }
}

TEST_P(ChainWalkExactness, SharedWalksMatchSeparateWalksBitForBit) {
  const Shape& s = GetParam();
  const Fixture fx = build(s);
  const auto nd = static_cast<std::size_t>(s.ndofs);
  const auto gn = nd * static_cast<std::size_t>(s.d);
  // Three grids on the fixture's point set with their own surpluses (what
  // compress() gives shocks of one class), plus grid 0 once more: a
  // duplicate request.
  constexpr std::size_t kGrids = 3;
  constexpr std::size_t kTargets = kGrids + 1;
  std::vector<core::CompressedGridData> grids(kGrids, fx.grid);
  util::Rng rng(0x5EED);
  for (auto& g : grids)
    for (auto& v : g.surplus) v = rng.uniform(-1.0, 1.0);
  std::vector<std::unique_ptr<InterpolationKernel>> x86;
  for (const auto& g : grids) x86.push_back(make_kernel(KernelKind::X86, nullptr, &g));
  core::CompressedGridData noskip = fx.grid;
  const auto nfreq = static_cast<std::size_t>(fx.grid.nfreq);
  for (std::uint32_t p = 0; p < noskip.nno; ++p)
    for (std::size_t f = 0; f < nfreq; ++f) noskip.skip[p * nfreq + f] = p + 1;

  std::vector<std::vector<double>> want(kTargets, std::vector<double>(nd));
  std::vector<std::vector<double>> want_value(want), got(want);
  std::vector<std::vector<double>> want_grad(kTargets, std::vector<double>(gn));
  std::vector<std::vector<double>> got_grad(want_grad);
  std::vector<WalkTarget> targets;
  for (std::size_t c = 0; c < kTargets; ++c)
    targets.push_back({grids[c % kGrids].surplus.data(), got[c].data(), got_grad[c].data()});

  for (const core::CompressedGridData* index : {&fx.grid, &std::as_const(noskip)}) {
    const char* walk = index == &noskip ? "without skips" : "with skips";
    for (const auto& x : probes(fx, s.d)) {
      for (std::size_t c = 0; c < kTargets; ++c) {
        x86[c % kGrids]->evaluate(x.data(), want[c].data());
        evaluate_with_gradient(grids[c % kGrids], x.data(), want_value[c].data(),
                               want_grad[c].data());
      }
      evaluate_shared(*index, x.data(), targets, 0, s.ndofs);
      for (std::size_t c = 0; c < kTargets; ++c)
        EXPECT_TRUE(bitwise_equal(want[c], got[c]))
            << "shared value walk " << walk << ", target " << c << " on " << s.name;
      evaluate_shared_with_gradient(*index, x.data(), targets, 0, s.ndofs);
      for (std::size_t c = 0; c < kTargets; ++c) {
        EXPECT_TRUE(bitwise_equal(want_value[c], got[c]))
            << "shared gradient walk value " << walk << ", target " << c << " on " << s.name;
        EXPECT_TRUE(bitwise_equal(want_grad[c], got_grad[c]))
            << "shared gradient walk gradient " << walk << ", target " << c << " on " << s.name;
      }
    }
  }
}

TEST_P(ChainWalkExactness, RangedSharedWalksMatchFullWalksBitForBit) {
  // The dof range the gathers pass down: in-range outputs equal the full
  // walk's bit for bit, and nothing outside the range is written, for the
  // models' ranges ([1, d) and [d + 1, 2d) of OLG's 2d dofs), single dofs at
  // either end and the full range.
  const Shape& s = GetParam();
  const Fixture fx = build(s);
  const int nd = s.ndofs;
  const auto und = static_cast<std::size_t>(nd);
  const auto ud = static_cast<std::size_t>(s.d);
  constexpr double kPad = -99.0;
  // Two grids on the fixture's point set and grid 0 once more (a duplicate
  // target).
  std::vector<core::CompressedGridData> grids(2, fx.grid);
  util::Rng rng(0x7A46);
  for (auto& g : grids)
    for (auto& v : g.surplus) v = rng.uniform(-1.0, 1.0);
  constexpr std::size_t kTargets = 3;
  std::vector<std::vector<double>> full(kTargets, std::vector<double>(und));
  std::vector<std::vector<double>> full_grad(kTargets, std::vector<double>(und * ud));
  std::vector<std::vector<double>> got(full), got_grad(full_grad);
  std::vector<WalkTarget> full_targets, ranged_targets;
  for (std::size_t c = 0; c < kTargets; ++c) {
    const double* surplus = grids[c % 2].surplus.data();
    full_targets.push_back({surplus, full[c].data(), full_grad[c].data()});
    ranged_targets.push_back({surplus, got[c].data(), got_grad[c].data()});
  }
  const int half = nd / 2;
  // {1, half} is empty for the 3-dof shapes: such a walk writes nothing.
  const std::pair<int, int> ranges[] = {{1, half},  {half + 1, nd}, {1, nd},
                                        {0, 1},     {nd - 1, nd},   {0, nd}};
  for (const auto& x : probes(fx, s.d)) {
    evaluate_shared(fx.grid, x.data(), full_targets, 0, nd);
    const std::vector<std::vector<double>> full_value = full;
    evaluate_shared_with_gradient(fx.grid, x.data(), full_targets, 0, nd);
    for (const auto& [b, e] : ranges) {
      for (std::size_t c = 0; c < kTargets; ++c) std::fill(got[c].begin(), got[c].end(), kPad);
      evaluate_shared(fx.grid, x.data(), ranged_targets, b, e);
      for (std::size_t c = 0; c < kTargets; ++c)
        for (int dof = 0; dof < nd; ++dof) {
          const auto k = static_cast<std::size_t>(dof);
          const double want = dof >= b && dof < e ? full_value[c][k] : kPad;
          EXPECT_EQ(std::memcmp(&got[c][k], &want, sizeof(double)), 0)
              << "value walk [" << b << ", " << e << ") dof " << dof << ", target " << c
              << " on " << s.name;
        }
      for (std::size_t c = 0; c < kTargets; ++c) {
        std::fill(got[c].begin(), got[c].end(), kPad);
        std::fill(got_grad[c].begin(), got_grad[c].end(), kPad);
      }
      evaluate_shared_with_gradient(fx.grid, x.data(), ranged_targets, b, e);
      for (std::size_t c = 0; c < kTargets; ++c)
        for (int dof = 0; dof < nd; ++dof) {
          const auto k = static_cast<std::size_t>(dof);
          const bool in = dof >= b && dof < e;
          const double want = in ? full[c][k] : kPad;
          EXPECT_EQ(std::memcmp(&got[c][k], &want, sizeof(double)), 0)
              << "gradient walk value [" << b << ", " << e << ") dof " << dof << ", target "
              << c << " on " << s.name;
          for (std::size_t t = 0; t < ud; ++t) {
            const double want_grad = in ? full_grad[c][k * ud + t] : kPad;
            EXPECT_EQ(std::memcmp(&got_grad[c][k * ud + t], &want_grad, sizeof(double)), 0)
                << "gradient walk [" << b << ", " << e << ") d/dx" << t << " of dof " << dof
                << ", target " << c << " on " << s.name;
          }
        }
    }
  }
}

TEST_P(ChainWalkExactness, SkipPointersHoldTheirInvariants) {
  const Shape& s = GetParam();
  const Fixture fx = build(s);
  const core::CompressedGridData& g = fx.grid;
  const auto nfreq = static_cast<std::size_t>(g.nfreq);
  ASSERT_EQ(g.skip.size(), static_cast<std::size_t>(g.nno) * nfreq);
  const auto same_prefix = [&](std::uint32_t a, std::uint32_t b, std::size_t f) {
    return std::equal(g.chain_row(a), g.chain_row(a) + f + 1, g.chain_row(b));
  };
  std::size_t long_jumps = 0;
  for (std::uint32_t p = 0; p < g.nno; ++p) {
    for (std::size_t f = 0; f < nfreq; ++f) {
      const std::uint32_t next = g.skip[p * nfreq + f];
      ASSERT_GT(next, p);
      ASSERT_LE(next, g.nno);
      for (std::uint32_t q = p + 1; q < next; ++q) {
        ASSERT_TRUE(same_prefix(p, q, f)) << "point " << q << " inside skip(" << p << ", " << f
                                          << ") has a different prefix";
      }
      if (next < g.nno) {
        ASSERT_FALSE(same_prefix(p, next, f)) << "skip(" << p << ", " << f << ") stops early";
      }
      long_jumps += next > p + 1;
    }
  }
  // The reordered grids group shared prefixes, so the skip has runs to jump.
  if (s.reorder) {
    EXPECT_GT(long_jumps, 0u);
  }
}

TEST_P(ChainWalkExactness, FactorTableMatchesHatFunctions) {
  const Fixture fx = build(GetParam());
  const core::CompressedGridData& g = fx.grid;
  ASSERT_EQ(g.factors.size(), g.xps_size());
  for (std::size_t k = 1; k < g.xps_size(); ++k) {
    const core::XpsEntry& e = g.xps[k];
    EXPECT_EQ(g.factors[k].j, e.j);
    EXPECT_EQ(g.factors[k].center, sg::point_coordinate({e.l, e.i}));
    EXPECT_EQ(g.factors[k].scale, std::ldexp(1.0, e.l - 1));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ChainWalkExactness, ::testing::ValuesIn(kShapes),
                         [](const ::testing::TestParamInfo<Shape>& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
}  // namespace hddm::kernels
