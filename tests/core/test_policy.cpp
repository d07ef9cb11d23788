#include "core/policy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <set>
#include <utility>

#include "converged_policies.hpp"
#include "sparse_grid/hierarchize.hpp"
#include "sparse_grid/regular.hpp"
#include "util/rng.hpp"

namespace hddm::core {
namespace {

std::unique_ptr<ShockGrid> make_shock_grid(int d, int level, int ndofs, std::uint64_t seed,
                                           kernels::KernelKind kind = kernels::KernelKind::X86) {
  sg::GridStorage storage(d);
  sg::build_regular_grid(storage, level);
  util::Rng rng(seed);
  std::vector<double> surpluses(static_cast<std::size_t>(storage.size()) * ndofs);
  for (auto& s : surpluses) s = rng.uniform(-1, 1);
  return std::make_unique<ShockGrid>(sg::make_dense_grid(storage, ndofs, surpluses), kind);
}

TEST(ShockGrid, ExposesBothFormats) {
  const auto grid = make_shock_grid(3, 3, 4, 1);
  EXPECT_EQ(grid->dense().nno, grid->compressed().nno);
  EXPECT_EQ(grid->num_points(), grid->dense().nno);
  EXPECT_EQ(grid->ndofs(), 4);
}

TEST(ShockGrid, EvaluateMatchesKernel) {
  const auto grid = make_shock_grid(2, 3, 3, 2);
  util::Rng rng(5);
  const std::vector<double> x = rng.uniform_point(2);
  std::vector<double> a(3), b(3);
  grid->evaluate(x, a);
  grid->kernel().evaluate(x.data(), b.data());
  EXPECT_EQ(a, b);
}

TEST(AsgPolicy, RoutesToTheRightShock) {
  std::vector<std::unique_ptr<ShockGrid>> grids;
  grids.push_back(make_shock_grid(2, 2, 2, 10));
  grids.push_back(make_shock_grid(2, 3, 2, 20));
  const AsgPolicy policy(2, std::move(grids));

  EXPECT_EQ(policy.num_shocks(), 2);
  const std::vector<double> x{0.3, 0.6};
  std::vector<double> v0(2), v1(2), direct(2);
  policy.evaluate(0, x, v0);
  policy.evaluate(1, x, v1);
  policy.grid(0).evaluate(x, direct);
  EXPECT_EQ(v0, direct);
  policy.grid(1).evaluate(x, direct);
  EXPECT_EQ(v1, direct);
  EXPECT_NE(v0, v1);  // different grids, different random surpluses
}

TEST(AsgPolicy, TotalPointsSumsShocks) {
  const auto n2 = static_cast<std::uint32_t>(sg::count_regular_points(2, 2));  // 5
  const auto n3 = static_cast<std::uint32_t>(sg::count_regular_points(2, 3));  // 13
  std::vector<std::unique_ptr<ShockGrid>> grids;
  grids.push_back(make_shock_grid(2, 2, 1, 1));
  grids.push_back(make_shock_grid(2, 3, 1, 2));
  const AsgPolicy policy(1, std::move(grids));
  EXPECT_EQ(policy.total_points(), n2 + n3);
  const auto per = policy.points_per_shock();
  EXPECT_EQ(per[0], n2);
  EXPECT_EQ(per[1], n3);
}

TEST(AsgPolicy, RejectsInconsistentGrids) {
  std::vector<std::unique_ptr<ShockGrid>> grids;
  grids.push_back(make_shock_grid(2, 2, 1, 1));
  grids.push_back(make_shock_grid(2, 2, 3, 2));  // different ndofs
  EXPECT_THROW(AsgPolicy(1, std::move(grids)), std::invalid_argument);
  std::vector<std::unique_ptr<ShockGrid>> empty;
  EXPECT_THROW(AsgPolicy(1, std::move(empty)), std::invalid_argument);
}

TEST(AsgPolicy, DeviceOffloadGivesIdenticalValues) {
  std::vector<std::unique_ptr<ShockGrid>> grids;
  grids.push_back(make_shock_grid(3, 3, 4, 31));
  grids.push_back(make_shock_grid(3, 3, 4, 32));
  AsgPolicy policy(4, std::move(grids));

  // Reference values before attaching the device.
  util::Rng rng(9);
  std::vector<std::vector<double>> xs;
  std::vector<std::vector<double>> expected;
  for (int k = 0; k < 20; ++k) {
    xs.push_back(rng.uniform_point(3));
    std::vector<double> v(4);
    policy.evaluate(k % 2, xs.back(), v);
    expected.push_back(v);
  }

  std::vector<std::unique_ptr<kernels::InterpolationKernel>> dev;
  for (int z = 0; z < 2; ++z)
    dev.push_back(kernels::make_kernel(kernels::KernelKind::SimGpu, &policy.grid(z).dense(),
                                       &policy.grid(z).compressed()));
  policy.attach_device(std::move(dev), {.queue_capacity = 4, .max_batch = 2});

  for (int k = 0; k < 20; ++k) {
    std::vector<double> v(4);
    policy.evaluate(k % 2, xs[static_cast<std::size_t>(k)], v);
    for (int dof = 0; dof < 4; ++dof)
      EXPECT_NEAR(v[dof], expected[static_cast<std::size_t>(k)][dof], 1e-12);
  }
  // With an idle queue every request should have been offloaded.
  EXPECT_GT(policy.device_stats().offloaded_points, 0u);
}

TEST(AsgPolicy, EvaluateBatchMatchesEvaluateBitIdentical) {
  std::vector<std::unique_ptr<ShockGrid>> grids;
  grids.push_back(make_shock_grid(3, 3, 4, 41));
  const AsgPolicy policy(4, std::move(grids));

  constexpr std::size_t kPoints = 30;
  util::Rng rng(11);
  std::vector<double> xs(kPoints * 3);
  for (auto& xi : xs) xi = rng.uniform();
  std::vector<double> batched(kPoints * 4), single(4);

  // CPU path (no device attached): one kernel evaluate_batch call.
  policy.evaluate_batch(0, xs, batched, kPoints);
  for (std::size_t k = 0; k < kPoints; ++k) {
    policy.evaluate(0, std::span<const double>(xs).subspan(k * 3, 3), single);
    for (int dof = 0; dof < 4; ++dof)
      EXPECT_EQ(batched[k * 4 + static_cast<std::size_t>(dof)],
                single[static_cast<std::size_t>(dof)]) << "point " << k;
  }
}

TEST(AsgPolicy, DeviceBatchPathIsBitIdenticalAndCounted) {
  std::vector<std::unique_ptr<ShockGrid>> grids;
  grids.push_back(make_shock_grid(3, 3, 4, 51));
  AsgPolicy policy(4, std::move(grids));

  std::vector<std::unique_ptr<kernels::InterpolationKernel>> dev;
  dev.push_back(kernels::make_kernel(kernels::KernelKind::SimGpu, &policy.grid(0).dense(),
                                     &policy.grid(0).compressed()));
  // Reference device kernel bound to the same grid, evaluated point by point.
  const auto ref_dev = kernels::make_kernel(kernels::KernelKind::SimGpu, &policy.grid(0).dense(),
                                            &policy.grid(0).compressed());
  policy.attach_device(std::move(dev), {.queue_capacity = 256, .max_batch = 8});

  constexpr std::size_t kPoints = 40;  // 5 chunks of max_batch = 8
  util::Rng rng(13);
  std::vector<double> xs(kPoints * 3);
  for (auto& xi : xs) xi = rng.uniform();
  std::vector<double> got(kPoints * 4);
  policy.evaluate_batch(0, xs, got, kPoints);

  // With an idle dispatcher every chunk lands on the device; the batched
  // results must be bitwise what per-point device evaluation produces.
  const parallel::DispatcherStats stats = policy.device_stats();
  EXPECT_EQ(stats.offloaded_points + stats.rejected_points, kPoints);
  EXPECT_GE(stats.batches, 1u);
  EXPECT_GE(stats.mean_batch(), 1.0);
  ASSERT_EQ(stats.rejected_points, 0u) << "idle queue rejected a chunk";
  for (std::size_t k = 0; k < kPoints; ++k) {
    std::vector<double> want(4);
    ref_dev->evaluate(xs.data() + k * 3, want.data());
    for (int dof = 0; dof < 4; ++dof)
      EXPECT_EQ(got[k * 4 + static_cast<std::size_t>(dof)], want[static_cast<std::size_t>(dof)])
          << "point " << k;
  }
}

TEST(AsgPolicy, EvaluateGatherMatchesEvaluateBitIdentical) {
  std::vector<std::unique_ptr<ShockGrid>> grids;
  grids.push_back(make_shock_grid(3, 3, 4, 61));
  grids.push_back(make_shock_grid(3, 3, 4, 62));
  grids.push_back(make_shock_grid(3, 4, 4, 63));
  const AsgPolicy policy(4, std::move(grids));

  // The Newton-internal request pattern: a handful of coordinate rows, each
  // requested by several shocks, in interleaved (non-bucketed) order — plus
  // a strided output block wider than ndofs.
  constexpr std::size_t kPoints = 7;
  constexpr std::size_t kStride = 6;  // > ndofs: strided output
  util::Rng rng(17);
  std::vector<double> xs(kPoints * 3);
  for (auto& xi : xs) xi = rng.uniform();
  std::vector<GatherRequest> requests;
  for (std::size_t p = 0; p < kPoints; ++p)
    for (int z = 0; z < 3; ++z)
      requests.push_back({(z + static_cast<int>(p)) % 3, static_cast<std::uint32_t>(p)});

  std::vector<double> gathered(requests.size() * kStride, -99.0);
  policy.evaluate_gather(requests, xs, kPoints, gathered, kStride);

  std::vector<double> want(4);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    policy.evaluate(requests[i].z, std::span<const double>(xs).subspan(requests[i].point * 3, 3),
                    want);
    for (int dof = 0; dof < 4; ++dof)
      EXPECT_EQ(gathered[i * kStride + static_cast<std::size_t>(dof)],
                want[static_cast<std::size_t>(dof)])
          << "request " << i;
    // The stride padding must stay untouched.
    for (std::size_t pad = 4; pad < kStride; ++pad)
      EXPECT_EQ(gathered[i * kStride + pad], -99.0);
  }

  const GatherStats stats = policy.gather_stats();
  EXPECT_EQ(stats.gathers, 1u);
  EXPECT_EQ(stats.gathered_requests, requests.size());
  EXPECT_DOUBLE_EQ(stats.mean_requests(), static_cast<double>(requests.size()));
}

TEST(AsgPolicy, EvaluateGatherDevicePathBitIdenticalAndCounted) {
  std::vector<std::unique_ptr<ShockGrid>> grids;
  grids.push_back(make_shock_grid(3, 3, 4, 71));
  grids.push_back(make_shock_grid(3, 3, 4, 72));
  AsgPolicy policy(4, std::move(grids));

  // Reference device kernels bound to the same grids, evaluated per point.
  std::vector<std::unique_ptr<kernels::InterpolationKernel>> refs;
  for (int z = 0; z < 2; ++z)
    refs.push_back(kernels::make_kernel(kernels::KernelKind::SimGpu, &policy.grid(z).dense(),
                                        &policy.grid(z).compressed()));
  policy.attach_default_device(kernels::KernelKind::SimGpu,
                               {.queue_capacity = 1024, .max_batch = 16});

  constexpr std::size_t kPoints = 5;
  util::Rng rng(19);
  std::vector<double> xs(kPoints * 3);
  for (auto& xi : xs) xi = rng.uniform();
  std::vector<GatherRequest> requests;  // every shock at every point
  for (int z = 0; z < 2; ++z)
    for (std::size_t p = 0; p < kPoints; ++p)
      requests.push_back({z, static_cast<std::uint32_t>(p)});

  std::vector<double> gathered(requests.size() * 4);
  policy.evaluate_gather(requests, xs, kPoints, gathered, 4);

  // Counter accounting: one gather, one ticketed run per shock bucket (the
  // idle queue accepts both), every request offloaded in one launch each.
  const parallel::DispatcherStats dev = policy.device_stats();
  EXPECT_EQ(dev.offloaded_points + dev.rejected_points, requests.size());
  ASSERT_EQ(dev.rejected_points, 0u) << "idle queue rejected a run";
  EXPECT_EQ(dev.submitted_runs, 2u);
  EXPECT_DOUBLE_EQ(dev.mean_run(), static_cast<double>(kPoints));
  EXPECT_LE(dev.batches, 2u);
  EXPECT_EQ(policy.gather_stats().gathers, 1u);
  // Both shocks share a point set and rows repeat, yet the device route
  // keeps the per-shock buckets: one walk per request.
  EXPECT_EQ(policy.shock_class(1), 0);
  EXPECT_EQ(policy.gather_stats().walks, requests.size());

  std::vector<double> want(4);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    refs[static_cast<std::size_t>(requests[i].z)]->evaluate(
        xs.data() + requests[i].point * 3, want.data());
    for (int dof = 0; dof < 4; ++dof)
      EXPECT_EQ(gathered[i * 4 + static_cast<std::size_t>(dof)],
                want[static_cast<std::size_t>(dof)])
          << "request " << i;
  }
}

TEST(AsgPolicy, GatherStatsDeltaIsolatesNewTraffic) {
  std::vector<std::unique_ptr<ShockGrid>> grids;
  grids.push_back(make_shock_grid(2, 3, 2, 81));
  const AsgPolicy policy(2, std::move(grids));

  const std::vector<double> xs{0.3, 0.6};
  const std::vector<GatherRequest> requests{{0, 0}, {0, 0}};
  std::vector<double> out(requests.size() * 2);
  policy.evaluate_gather(requests, xs, 1, out, 2);

  const GatherStats before = policy.gather_stats();
  policy.evaluate_gather(requests, xs, 1, out, 2);
  policy.evaluate_gather(requests, xs, 1, out, 2);
  const GatherStats delta = policy.gather_stats().since(before);
  EXPECT_EQ(delta.gathers, 2u);
  EXPECT_EQ(delta.gathered_requests, 4u);
  EXPECT_DOUBLE_EQ(delta.mean_requests(), 2.0);
}

// Gathers `requests` over the first `npoints` rows of `xs` (`dim` doubles per
// row) into a block of `stride` doubles per request, checks every value
// bitwise against evaluate() and the stride padding untouched, and returns
// the chain walks the gather ran.
std::uint64_t gather_walks_checked(const AsgPolicy& policy,
                                   const std::vector<GatherRequest>& requests,
                                   std::span<const double> xs, std::size_t npoints,
                                   std::size_t dim, std::size_t stride) {
  const std::size_t ndofs = static_cast<std::size_t>(policy.ndofs());
  std::vector<double> gathered(requests.size() * stride, -7.0);
  const GatherStats before = policy.gather_stats();
  policy.evaluate_gather(requests, xs.first(npoints * dim), npoints, gathered, stride);
  const GatherStats delta = policy.gather_stats().since(before);
  EXPECT_EQ(delta.gathers, 1u);
  EXPECT_EQ(delta.gathered_requests, requests.size());
  std::vector<double> want(ndofs);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    policy.evaluate(requests[i].z, xs.subspan(requests[i].point * dim, dim), want);
    for (std::size_t dof = 0; dof < ndofs; ++dof)
      EXPECT_EQ(gathered[i * stride + dof], want[dof]) << "request " << i;
    for (std::size_t pad = ndofs; pad < stride; ++pad)
      EXPECT_EQ(gathered[i * stride + pad], -7.0) << "request " << i;
  }
  return delta.walks;
}

// Single-shock gathers have no route of their own: they take the route their
// rows select, bit-identical to evaluate() on both.
TEST(AsgPolicy, SingleShockGatherFastPathBitIdenticalAndCounted) {
  std::vector<std::unique_ptr<ShockGrid>> grids;
  grids.push_back(make_shock_grid(3, 3, 4, 101));
  grids.push_back(make_shock_grid(3, 3, 4, 102));
  const AsgPolicy policy(4, std::move(grids));
  ASSERT_EQ(policy.shock_class(1), 0);  // shock 1 walks shock 0's index

  constexpr std::size_t kPoints = 9;
  util::Rng rng(29);
  std::vector<double> xs(kPoints * 3);
  for (auto& xi : xs) xi = rng.uniform();

  // Identity rows into a contiguous block: one bucket, one walk per request.
  std::vector<GatherRequest> identity;
  for (std::size_t p = 0; p < kPoints; ++p) identity.push_back({1, static_cast<std::uint32_t>(p)});
  EXPECT_EQ(gather_walks_checked(policy, identity, xs, kPoints, 3, 4), identity.size());

  // Rows repeat (more requests than rows): the class walk, one walk per
  // distinct row.
  const std::vector<GatherRequest> repeated{{1, 2}, {1, 0}, {1, 2}, {1, 1}, {1, 0}, {1, 2}};
  EXPECT_EQ(gather_walks_checked(policy, repeated, xs, 3, 3, 4), 3u);

  // Mixed shocks take the same rule.
  const std::vector<GatherRequest> mixed{{0, 0}, {1, 1}, {0, 2}};
  EXPECT_EQ(gather_walks_checked(policy, mixed, xs, kPoints, 3, 4), mixed.size());
}

TEST(AsgPolicy, SingleShockFastPathHandlesShuffledRowsAndStride) {
  std::vector<std::unique_ptr<ShockGrid>> grids;
  grids.push_back(make_shock_grid(2, 3, 3, 111));
  const AsgPolicy policy(3, std::move(grids));

  constexpr std::size_t kPoints = 6;
  constexpr std::size_t kStride = 5;  // > ndofs: strided output
  util::Rng rng(31);
  std::vector<double> xs(kPoints * 2);
  for (auto& xi : xs) xi = rng.uniform();

  // Shuffled rows, one repeated, into a strided block: as many requests as
  // rows, so the bucket route, one walk per request.
  const std::vector<GatherRequest> shuffled{{0, 4}, {0, 1}, {0, 1}, {0, 3}, {0, 0}};
  EXPECT_EQ(gather_walks_checked(policy, shuffled, xs, 5, 2, kStride), shuffled.size());

  // Out-of-order rows with more requests than rows: the class walk.
  const std::vector<GatherRequest> repeated{{0, 4}, {0, 1}, {0, 1}, {0, 5}, {0, 0}, {0, 4},
                                            {0, 2}};
  EXPECT_EQ(gather_walks_checked(policy, repeated, xs, kPoints, 2, kStride), 5u);
}

TEST(AsgPolicy, GatherWithGradientValuesBitIdenticalAndCounted) {
  std::vector<std::unique_ptr<ShockGrid>> grids;
  grids.push_back(make_shock_grid(3, 3, 4, 121));
  grids.push_back(make_shock_grid(3, 3, 4, 122));
  const AsgPolicy policy(4, std::move(grids));

  constexpr std::size_t kPoints = 5;
  util::Rng rng(37);
  std::vector<double> xs(kPoints * 3);
  for (auto& xi : xs) xi = rng.uniform();
  std::vector<GatherRequest> requests;
  for (std::size_t p = 0; p < kPoints; ++p)
    for (int z = 0; z < 2; ++z) requests.push_back({z, static_cast<std::uint32_t>(p)});

  std::vector<double> values(requests.size() * 4);
  std::vector<double> grads(requests.size() * 4 * 3);
  const GatherStats before = policy.gather_stats();
  policy.evaluate_gather_with_gradient(requests, xs, kPoints, values, 4, grads, 4 * 3);
  const GatherStats delta = policy.gather_stats().since(before);
  EXPECT_EQ(delta.gradient_gathers, 1u);
  EXPECT_EQ(delta.gradient_requests, requests.size());
  EXPECT_EQ(delta.gathers, 0u);  // the value-gather counters stay untouched

  // Values: bit-identical to the x86 kernel behind evaluate() (the documented
  // compressed chain-walk contract).
  std::vector<double> want(4);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    policy.evaluate(requests[i].z, std::span<const double>(xs).subspan(requests[i].point * 3, 3),
                    want);
    for (int dof = 0; dof < 4; ++dof)
      EXPECT_EQ(values[i * 4 + static_cast<std::size_t>(dof)], want[static_cast<std::size_t>(dof)])
          << "request " << i;
  }
}

TEST(AsgPolicy, GatherGradientMatchesFiniteDifferences) {
  std::vector<std::unique_ptr<ShockGrid>> grids;
  grids.push_back(make_shock_grid(3, 4, 2, 131));
  const AsgPolicy policy(2, std::move(grids));

  // Generic (non-dyadic) points: the interpolant is piecewise multilinear,
  // so away from the kink null set a central difference matches the analytic
  // gradient to the difference's own rounding error.
  util::Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    const std::vector<double> x = rng.uniform_point(3);
    std::vector<double> value(2), grad(2 * 3);
    const std::vector<GatherRequest> requests{{0, 0}};
    policy.evaluate_gather_with_gradient(requests, x, 1, value, 2, grad, 2 * 3);

    const double h = 1e-7;
    std::vector<double> xp(3), vp(2), vm(2);
    for (int t = 0; t < 3; ++t) {
      xp = x;
      xp[static_cast<std::size_t>(t)] += h;
      policy.evaluate(0, xp, vp);
      xp[static_cast<std::size_t>(t)] -= 2 * h;
      policy.evaluate(0, xp, vm);
      for (int dof = 0; dof < 2; ++dof) {
        const double fd = (vp[static_cast<std::size_t>(dof)] - vm[static_cast<std::size_t>(dof)]) /
                          (2 * h);
        EXPECT_NEAR(grad[static_cast<std::size_t>(dof) * 3 + static_cast<std::size_t>(t)], fd,
                    1e-5)
            << "trial " << trial << " dof " << dof << " dim " << t;
      }
    }
  }
}

// ------------------------------------------------------------ shock classes

/// Distinct (shock class, coordinate row) pairs of a gather: the chain walks
/// the class path runs for it.
std::uint64_t class_rows(const AsgPolicy& policy, std::span<const GatherRequest> requests) {
  std::set<std::pair<int, std::uint32_t>> pairs;
  for (const GatherRequest& r : requests) pairs.insert({policy.shock_class(r.z), r.point});
  return pairs.size();
}

int count_classes(const AsgPolicy& policy) {
  std::set<int> classes;
  for (int z = 0; z < policy.num_shocks(); ++z) classes.insert(policy.shock_class(z));
  return static_cast<int>(classes.size());
}

bool same_bits(const double* a, const double* b, std::size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

/// Runs one value gather and one gradient gather of `requests` into strided
/// outputs and checks every request bit for bit against per-request
/// evaluate() and ShockGrid::evaluate_with_gradient, with the stride padding
/// untouched. Returns the chain walks each gather ran.
std::pair<std::uint64_t, std::uint64_t> expect_gathers_match_per_request(
    const AsgPolicy& policy, std::span<const GatherRequest> requests,
    std::span<const double> xs, std::size_t npoints) {
  constexpr double kPad = -99.0;
  const auto nd = static_cast<std::size_t>(policy.ndofs());
  const std::size_t d = xs.size() / npoints;
  const std::size_t vstride = nd + 2;
  const std::size_t gstride = nd * d + 3;
  const std::size_t n = requests.size();

  std::vector<double> values(n * vstride, kPad);
  const GatherStats before = policy.gather_stats();
  policy.evaluate_gather(requests, xs, npoints, values, vstride);
  const std::uint64_t value_walks = policy.gather_stats().since(before).walks;
  std::vector<double> want(nd), want_grad(nd * d);
  for (std::size_t i = 0; i < n; ++i) {
    const auto x = xs.subspan(requests[i].point * d, d);
    policy.evaluate(requests[i].z, x, want);
    EXPECT_TRUE(same_bits(values.data() + i * vstride, want.data(), nd)) << "value, request " << i;
    for (std::size_t k = nd; k < vstride; ++k) EXPECT_EQ(values[i * vstride + k], kPad);
  }

  std::fill(values.begin(), values.end(), kPad);
  std::vector<double> grads(n * gstride, kPad);
  const GatherStats before_grad = policy.gather_stats();
  policy.evaluate_gather_with_gradient(requests, xs, npoints, values, vstride, grads, gstride);
  const std::uint64_t gradient_walks = policy.gather_stats().since(before_grad).walks;
  for (std::size_t i = 0; i < n; ++i) {
    const auto x = xs.subspan(requests[i].point * d, d);
    policy.grid(requests[i].z).evaluate_with_gradient(x, want, want_grad);
    EXPECT_TRUE(same_bits(values.data() + i * vstride, want.data(), nd))
        << "gradient gather value, request " << i;
    EXPECT_TRUE(same_bits(grads.data() + i * gstride, want_grad.data(), nd * d))
        << "gradient, request " << i;
    for (std::size_t k = nd; k < vstride; ++k) EXPECT_EQ(values[i * vstride + k], kPad);
    for (std::size_t k = nd * d; k < gstride; ++k) EXPECT_EQ(grads[i * gstride + k], kPad);
  }
  return {value_walks, gradient_walks};
}

/// Shocks 0, 2, 4 on one level-3 point set, shocks 1, 3 on a level-4 set;
/// every shock has its own random surpluses.
AsgPolicy two_class_policy(kernels::KernelKind kind = kernels::KernelKind::X86) {
  std::vector<std::unique_ptr<ShockGrid>> grids;
  for (int z = 0; z < 5; ++z)
    grids.push_back(make_shock_grid(3, z % 2 == 0 ? 3 : 4, 4, 201 + static_cast<std::uint64_t>(z),
                                    kind));
  return AsgPolicy(4, std::move(grids));
}

TEST(AsgPolicy, ShockClassesFollowThePointSet) {
  const AsgPolicy policy = two_class_policy();
  EXPECT_EQ(policy.shock_class(0), 0);
  EXPECT_EQ(policy.shock_class(1), 1);
  EXPECT_EQ(policy.shock_class(2), 0);
  EXPECT_EQ(policy.shock_class(3), 1);
  EXPECT_EQ(policy.shock_class(4), 0);
  // One class shares the walk, not the surpluses.
  EXPECT_NE(policy.grid(0).compressed().surplus, policy.grid(2).compressed().surplus);
  EXPECT_EQ(count_classes(policy), 2);
}

TEST(AsgPolicy, MirroredPointSetsAreDifferentClasses) {
  // A level-2 grid refined once in dimension 0, and its mirror refined in
  // dimension 1: same point count and chain structure, different factors.
  const auto refined = [](std::size_t t, std::uint64_t seed) {
    sg::GridStorage storage(2);
    sg::build_regular_grid(storage, 2);
    sg::MultiIndex mi(2, sg::kRootPair);
    mi[t] = {3, 1};
    storage.close_ancestors(storage.insert(mi).id);
    util::Rng rng(seed);
    std::vector<double> surpluses(static_cast<std::size_t>(storage.size()) * 2);
    for (auto& v : surpluses) v = rng.uniform(-1, 1);
    return std::make_unique<ShockGrid>(sg::make_dense_grid(storage, 2, surpluses),
                                       kernels::KernelKind::X86);
  };
  std::vector<std::unique_ptr<ShockGrid>> grids;
  grids.push_back(refined(0, 231));
  grids.push_back(refined(1, 232));
  const AsgPolicy policy(2, std::move(grids));
  ASSERT_EQ(policy.grid(0).num_points(), policy.grid(1).num_points());
  EXPECT_EQ(policy.shock_class(1), 1);

  const std::vector<double> xs{0.2, 0.7};
  const std::vector<GatherRequest> requests{{0, 0}, {1, 0}};
  expect_gathers_match_per_request(policy, requests, xs, 1);
}

TEST(AsgPolicy, ClassGathersBitIdenticalOnInterleavedClassesAndDuplicates) {
  const AsgPolicy policy = two_class_policy();
  constexpr std::size_t kPoints = 4;
  util::Rng rng(211);
  std::vector<double> xs(kPoints * 3);
  for (auto& xi : xs) xi = rng.uniform();
  // Classes interleaved within and across rows, a duplicate request (shock
  // 2 at row 1 twice), and a row requested by one shock only.
  const std::vector<GatherRequest> requests{{0, 1}, {1, 1}, {2, 1}, {2, 0}, {3, 0}, {4, 1},
                                            {2, 1}, {1, 3}, {4, 0}, {0, 2}, {3, 1}};
  const auto [value_walks, gradient_walks] =
      expect_gathers_match_per_request(policy, requests, xs, kPoints);
  EXPECT_EQ(value_walks, class_rows(policy, requests));
  EXPECT_EQ(gradient_walks, class_rows(policy, requests));
  EXPECT_LT(value_walks, requests.size());
}

TEST(AsgPolicy, ClassGathersBitIdenticalOnFdSweepPattern) {
  // The n-column finite-difference sweep: every successor shock with mass
  // at each of n trial columns, shock-major.
  const AsgPolicy policy = two_class_policy();
  constexpr std::size_t kColumns = 3;
  util::Rng rng(223);
  std::vector<double> xs(kColumns * 3);
  for (auto& xi : xs) xi = rng.uniform();
  const std::vector<double> pi{0.2, 0.3, 0.0, 0.4, 0.1};
  std::vector<GatherRequest> requests;
  successor_requests(pi, kColumns, requests);
  const auto [value_walks, gradient_walks] =
      expect_gathers_match_per_request(policy, requests, xs, kColumns);
  EXPECT_EQ(value_walks, 2 * kColumns);
  EXPECT_EQ(gradient_walks, 2 * kColumns);
}

TEST(AsgPolicy, VectorTierValueGathersKeepThePerShockPath) {
  // The shared value walk is the x86 arithmetic, so policies bound to the
  // FMA tiers bucket by shock as before (one walk per request); the gradient
  // gather is x86 arithmetic on every tier and still shares walks.
  for (const kernels::KernelKind kind : {kernels::KernelKind::Avx2, kernels::KernelKind::Avx512}) {
    if (!kernels::kernel_supported(kind)) continue;
    const AsgPolicy policy = two_class_policy(kind);
    constexpr std::size_t kPoints = 2;
    util::Rng rng(227);
    std::vector<double> xs(kPoints * 3);
    for (auto& xi : xs) xi = rng.uniform();
    const std::vector<double> pi(5, 0.2);
    std::vector<GatherRequest> requests;
    successor_requests(pi, kPoints, requests);
    const auto [value_walks, gradient_walks] =
        expect_gathers_match_per_request(policy, requests, xs, kPoints);
    EXPECT_EQ(value_walks, requests.size()) << kernels::kernel_name(kind);
    EXPECT_EQ(gradient_walks, class_rows(policy, requests)) << kernels::kernel_name(kind);
  }
}

TEST(AsgPolicy, TwoConvergedIrbcGridSetsGiveTwoShockClassesAndExactClassGathers) {
  // A converged adaptive IRBC N=3 solve refines every shock alike (one
  // class), so the two-class policy takes shocks 0-3 from it and shocks 4-7
  // from a converged solve on the regular base grid.
  const irbc::IrbcModel model = testing::irbc_model(3);
  const TimeIterationResult adaptive = solve_time_iteration(model, testing::irbc_options());
  TimeIterationOptions regular_options = testing::irbc_options();
  regular_options.refine_epsilon = 0.0;
  const TimeIterationResult regular = solve_time_iteration(model, regular_options);
  ASSERT_TRUE(adaptive.converged);
  ASSERT_TRUE(regular.converged);
  EXPECT_EQ(count_classes(*adaptive.policy), 1);
  std::vector<std::unique_ptr<ShockGrid>> grids;
  for (int z = 0; z < model.num_shocks(); ++z) {
    const AsgPolicy& source = z < 4 ? *adaptive.policy : *regular.policy;
    grids.push_back(std::make_unique<ShockGrid>(source.grid(z).dense(), kernels::KernelKind::X86));
  }
  const AsgPolicy policy(model.ndofs(), std::move(grids));
  EXPECT_EQ(count_classes(policy), 2);

  // The models' own request patterns on this mixed adaptive policy: all
  // successors at one row (residual, Jacobian) and at n trial columns.
  util::Rng rng(229);
  for (const std::size_t columns : {std::size_t{1}, std::size_t{3}}) {
    for (int z = 0; z < model.num_shocks(); z += 3) {
      std::vector<double> xs(columns * 3);
      for (auto& xi : xs) xi = rng.uniform();
      std::vector<GatherRequest> requests;
      successor_requests(model.chain().row(static_cast<std::size_t>(z)), columns, requests);
      const auto [value_walks, gradient_walks] =
          expect_gathers_match_per_request(policy, requests, xs, columns);
      EXPECT_EQ(value_walks, 2 * columns);
      EXPECT_EQ(gradient_walks, 2 * columns);
    }
  }
}

TEST(AsgPolicy, ConvergedOlgPolicyHasOneShockClass) {
  const olg::OlgModel model = testing::olg_model();
  const TimeIterationResult result = solve_time_iteration(model, testing::olg_options());
  ASSERT_TRUE(result.converged);
  EXPECT_EQ(count_classes(*result.policy), 1);
}

TEST(PolicyEvaluatorDefault, GatherWithGradientFdFallbackApproximates) {
  std::vector<std::unique_ptr<ShockGrid>> grids;
  grids.push_back(make_shock_grid(2, 3, 2, 141));
  const AsgPolicy policy(2, std::move(grids));

  // Minimal evaluator exposing only evaluate(): exercises the base-class
  // finite-difference default, which must approximate the analytic override.
  class EvalOnly final : public PolicyEvaluator {
   public:
    explicit EvalOnly(const PolicyEvaluator& inner) : inner_(inner) {}
    [[nodiscard]] int num_shocks() const override { return inner_.num_shocks(); }
    [[nodiscard]] int ndofs() const override { return inner_.ndofs(); }
    void evaluate(int z, std::span<const double> x, std::span<double> out) const override {
      inner_.evaluate(z, x, out);
    }

   private:
    const PolicyEvaluator& inner_;
  };
  const EvalOnly fallback(policy);

  util::Rng rng(43);
  const std::vector<double> x = rng.uniform_point(2);
  const std::vector<GatherRequest> requests{{0, 0}};
  std::vector<double> v_an(2), g_an(2 * 2), v_fd(2), g_fd(2 * 2);
  policy.evaluate_gather_with_gradient(requests, x, 1, v_an, 2, g_an, 2 * 2);
  fallback.evaluate_gather_with_gradient(requests, x, 1, v_fd, 2, g_fd, 2 * 2);
  EXPECT_EQ(v_an, v_fd);  // values go through evaluate() on both paths
  for (std::size_t k = 0; k < g_an.size(); ++k) EXPECT_NEAR(g_fd[k], g_an[k], 1e-4);
}

TEST(PolicyEvaluatorDefault, EvaluateGatherLoopsEvaluate) {
  std::vector<std::unique_ptr<ShockGrid>> grids;
  grids.push_back(make_shock_grid(2, 3, 3, 91));
  grids.push_back(make_shock_grid(2, 3, 3, 92));
  const AsgPolicy policy(3, std::move(grids));

  // Scalar-only view: forwards evaluate() but keeps the PolicyEvaluator
  // default gather (the pre-gather regime models are tested against).
  const ScalarPolicyView scalar_view(policy);

  util::Rng rng(23);
  std::vector<double> xs(3 * 2);
  for (auto& xi : xs) xi = rng.uniform();
  const std::vector<GatherRequest> requests{{1, 2}, {0, 0}, {1, 1}, {0, 2}};
  std::vector<double> via_default(requests.size() * 3);
  std::vector<double> via_override(requests.size() * 3);
  scalar_view.evaluate_gather(requests, xs, 3, via_default, 3);
  policy.evaluate_gather(requests, xs, 3, via_override, 3);
  EXPECT_EQ(via_default, via_override);  // the documented bit-identity contract
}

TEST(InitialPolicyEvaluatorTest, DelegatesToModel) {
  // Minimal model stub.
  class Stub final : public DynamicModel {
   public:
    Stub() : box_({0.0, 0.0}, {1.0, 1.0}) {}
    [[nodiscard]] int state_dim() const override { return 2; }
    [[nodiscard]] int num_shocks() const override { return 3; }
    [[nodiscard]] int ndofs() const override { return 2; }
    [[nodiscard]] const sg::BoxDomain& domain() const override { return box_; }
    [[nodiscard]] std::vector<double> initial_policy(int z,
                                                     std::span<const double> x) const override {
      return {static_cast<double>(z), x[0] + x[1]};
    }
    [[nodiscard]] PointSolveResult solve_point(int, std::span<const double>,
                                               const PolicyEvaluator&,
                                               std::span<const double>) const override {
      return {};
    }
    [[nodiscard]] double equilibrium_residual(int, std::span<const double>,
                                              const PolicyEvaluator&) const override {
      return 0.0;
    }

   private:
    sg::BoxDomain box_;
  } model;

  const InitialPolicyEvaluator eval(model);
  EXPECT_EQ(eval.num_shocks(), 3);
  EXPECT_EQ(eval.ndofs(), 2);
  std::vector<double> out(2);
  eval.evaluate(2, std::vector<double>{0.25, 0.5}, out);
  EXPECT_DOUBLE_EQ(out[0], 2.0);
  EXPECT_DOUBLE_EQ(out[1], 0.75);
}

}  // namespace
}  // namespace hddm::core
