// The point-solve harness's resource contracts: a warmed-up point solve
// allocates nothing but its returned dofs, a warmed-up Newton solve
// allocates nothing at all, OLG's initial policy allocates only its dofs,
// a decorator of the old gather entry points sees every gather a point
// solve issues, and the per-executor workspaces leave the solved policy
// independent of the thread count.
#include "core/point_solve.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

#include "core/time_iteration.hpp"
#include "irbc/irbc_model.hpp"
#include "olg/olg_model.hpp"

namespace {

// Every heap allocation of the test binary goes through these replacements
// (all of operator new's forms, so every delete frees what malloc returned)
// and bumps the counter; the tests read it around the code under test.
std::atomic<long> g_allocations{0};

/// malloc (align 0) or aligned_alloc, counted; nullptr on failure.
void* counted_alloc(std::size_t bytes, std::size_t align = 0) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  bytes = std::max<std::size_t>(bytes, 1);
  if (align == 0) return std::malloc(bytes);
  return std::aligned_alloc(align, (bytes + align - 1) / align * align);
}

void* counted_or_throw(std::size_t bytes, std::size_t align = 0) {
  if (void* p = counted_alloc(bytes, align)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t n) { return counted_or_throw(n); }
void* operator new[](std::size_t n) { return counted_or_throw(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_or_throw(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a, const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

/// Keeps a pointer observable so the allocation producing it is not elided.
const double* volatile g_sink = nullptr;

}  // namespace

namespace hddm::core {
namespace {

/// Heap allocations made by `fn()`.
template <class F>
long allocations_in(F&& fn) {
  const long before = g_allocations.load();
  fn();
  return g_allocations.load() - before;
}

/// A short solve's policy: the realistic p_next of a point solve (AsgPolicy
/// with compressed kernels and analytic gradients).
std::shared_ptr<AsgPolicy> short_solve(const DynamicModel& model, int base_level) {
  TimeIterationOptions opts;
  opts.base_level = base_level;
  opts.max_level = base_level;
  opts.max_iterations = 2;
  opts.tolerance = 0.0;
  return solve_time_iteration(model, opts).policy;
}

/// Allocations of one warmed-up solve_point at each of `points` (the first
/// solve at each point is the warm-up), worst case over the points.
long worst_point_solve_allocations(const DynamicModel& model, const PolicyEvaluator& p_next,
                                   const std::vector<std::vector<double>>& points) {
  long worst = 0;
  std::vector<double> warm(static_cast<std::size_t>(model.ndofs()));
  for (const std::vector<double>& x : points) {
    for (int z = 0; z < model.num_shocks(); ++z) {
      p_next.evaluate(z, x, warm);
      PointSolveResult result = model.solve_point(z, x, p_next, warm);  // warm-up
      const long n = allocations_in([&] { result = model.solve_point(z, x, p_next, warm); });
      EXPECT_EQ(static_cast<int>(result.dofs.size()), model.ndofs());
      worst = std::max(worst, n);
    }
  }
  return worst;
}

TEST(PointSolveAllocations, CounterSeesHeapAllocations) {
  // Guards the replacement operators themselves: a count of 0 below must
  // mean "no allocation", not "not counted".
  EXPECT_EQ(allocations_in([] { g_sink = std::make_unique<double[]>(4).get(); }), 1);
}

TEST(PointSolveAllocations, WarmedNewtonSolveAllocatesNothing) {
  const auto residual = [](std::span<const double> u, std::span<double> out) {
    out[0] = u[0] * u[0] - u[1];
    out[1] = u[1] - 3.0 + 0.1 * std::sin(u[0]);
  };
  const auto jacobian = [](std::span<const double> u, util::Matrix& m) {
    m(0, 0) = 2.0 * u[0];
    m(0, 1) = -1.0;
    m(1, 0) = 0.1 * std::cos(u[0]);
    m(1, 1) = 1.0;
  };
  const std::vector<double> guess{1.0, 1.0};
  solver::NewtonOptions boxed;
  const double lower[] = {0.0, 0.0}, upper[] = {1.5, 10.0};  // u0 pins at 1.5
  boxed.lower = lower;
  boxed.upper = upper;

  solver::NewtonWorkspace ws;
  for (const solver::NewtonOptions& options : {solver::NewtonOptions{}, boxed}) {
    (void)solver::solve_newton(residual, guess, options, ws, jacobian);  // warm-up
    solver::NewtonResult analytic, fd;
    EXPECT_EQ(allocations_in([&] {
                analytic = solver::solve_newton(residual, guess, options, ws, jacobian);
              }),
              0);
    EXPECT_TRUE(analytic.converged());
    (void)solver::solve_newton(residual, guess, options, ws);
    EXPECT_EQ(allocations_in([&] { fd = solver::solve_newton(residual, guess, options, ws); }), 0);
    EXPECT_TRUE(fd.converged());
  }
}

TEST(PointSolveAllocations, IrbcSolvePointAllocatesOnlyTheDofs) {
  irbc::IrbcCalibration cal;
  cal.countries = 3;
  const irbc::IrbcModel model(cal);
  const auto policy = short_solve(model, 2);
  // Only the returned PointSolveResult::dofs may allocate (DESIGN.md,
  // "Point-solve harness").
  EXPECT_LE(worst_point_solve_allocations(model, *policy, {{0.5, 0.5, 0.5}, {0.1, 0.9, 0.3}}), 1);
}

TEST(PointSolveAllocations, OlgSolvePointAllocatesOnlyTheDofs) {
  const olg::OlgModel model(olg::build_economy(olg::reduced_calibration(8, 2, 2)));
  const auto policy = short_solve(model, 2);
  const std::vector<double> center(static_cast<std::size_t>(model.state_dim()), 0.5);
  std::vector<double> off_center(center);
  off_center[0] = 0.3;
  off_center[1] = 0.7;
  EXPECT_LE(worst_point_solve_allocations(model, *policy, {center, off_center}), 1);
}

TEST(PointSolveAllocations, OlgInitialPolicyAllocatesOnlyItsDofs) {
  // Step 0's p_next evaluates the analytic initial policy at every warm
  // start and Jacobian probe: its returned vector is its one allocation.
  const olg::OlgModel model(olg::build_economy(olg::reduced_calibration(8, 2, 2)));
  std::vector<double> x(static_cast<std::size_t>(model.state_dim()), 0.4);
  x[0] = 0.7;
  std::vector<double> dofs;
  EXPECT_EQ(allocations_in([&] { dofs = model.initial_policy(1, x); }), 1);
  EXPECT_EQ(static_cast<int>(dofs.size()), model.ndofs());
}

/// Forwards every call to the wrapped model and counts the distinct threads
/// that have run one of its point solves, without allocating.
class ExecutorCountingModel final : public DynamicModel {
 public:
  explicit ExecutorCountingModel(const DynamicModel& inner) : inner_(inner) {}
  [[nodiscard]] int state_dim() const override { return inner_.state_dim(); }
  [[nodiscard]] int num_shocks() const override { return inner_.num_shocks(); }
  [[nodiscard]] int ndofs() const override { return inner_.ndofs(); }
  [[nodiscard]] int indicator_dofs() const override { return inner_.indicator_dofs(); }
  [[nodiscard]] const sg::BoxDomain& domain() const override { return inner_.domain(); }
  [[nodiscard]] std::vector<double> initial_policy(int z,
                                                   std::span<const double> x) const override {
    return inner_.initial_policy(z, x);
  }
  [[nodiscard]] PointSolveResult solve_point(int z, std::span<const double> x,
                                             const PolicyEvaluator& p_next,
                                             std::span<const double> warm) const override {
    // A thread counts once per model instance. Instances are told apart by
    // a serial number, not their address, which a later one may reuse.
    thread_local std::uint64_t counted_for = 0;
    if (counted_for != serial_) {
      counted_for = serial_;
      executors_.fetch_add(1, std::memory_order_relaxed);
    }
    return inner_.solve_point(z, x, p_next, warm);
  }
  [[nodiscard]] double equilibrium_residual(int z, std::span<const double> x,
                                            const PolicyEvaluator& p) const override {
    return inner_.equilibrium_residual(z, x, p);
  }
  /// Distinct threads that have solved a point through this model.
  [[nodiscard]] std::size_t executors() const { return executors_.load(); }

 private:
  static inline std::atomic<std::uint64_t> instances_{0};
  const DynamicModel& inner_;
  const std::uint64_t serial_ = ++instances_;
  mutable std::atomic<std::size_t> executors_{0};
};

/// Heap allocations per grid point of a warmed-up TimeIterationDriver::step
/// from a short solve's policy. Every executor of the driver's pool (its
/// workers and the calling thread) first solves points in warm-up steps
/// from the same p_next, so the measured step grows no thread's
/// thread_local buffers.
double step_allocations_per_point(const DynamicModel& model, const TimeIterationOptions& opts) {
  const std::shared_ptr<AsgPolicy> p_next = solve_time_iteration(model, opts).policy;
  const ExecutorCountingModel counting(model);
  TimeIterationDriver driver(counting, opts);
  IterationStats stats;
  const std::size_t executors = opts.threads + 1;
  for (int warmups = 0; warmups < 20 && counting.executors() < executors; ++warmups)
    (void)driver.step(*p_next, stats);
  EXPECT_EQ(counting.executors(), executors) << "executors left cold by 20 warm-up steps";
  std::shared_ptr<AsgPolicy> next;
  const long n = allocations_in([&] { next = driver.step(*p_next, stats); });
  EXPECT_GT(stats.total_points, 0u);
  return static_cast<double>(n) / stats.total_points;
}

TEST(PointSolveAllocations, IrbcStepAllocationsPerPointBounded) {
  // Per grid point a step allocates the point solve's dofs plus its share
  // of the grid build (refinement, hierarchization, compression); the
  // coordinates of warm starts and hierarchization are written in place.
  // Measured: 5.7 (irbc) and 3.9 (olg) per point.
  irbc::IrbcCalibration cal;
  cal.countries = 3;
  const irbc::IrbcModel model(cal);
  TimeIterationOptions opts;
  opts.base_level = 2;
  opts.refine_epsilon = 1e-2;
  opts.max_level = 5;
  opts.max_iterations = 3;
  opts.tolerance = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    opts.threads = threads;
    EXPECT_LE(step_allocations_per_point(model, opts), 7.0) << threads << " threads";
  }
}

TEST(PointSolveAllocations, OlgStepAllocationsPerPointBounded) {
  const olg::OlgModel model(olg::build_economy(olg::reduced_calibration(8, 2, 2)));
  TimeIterationOptions opts;
  opts.base_level = 3;
  opts.max_level = 3;
  opts.max_iterations = 2;
  opts.tolerance = 0.0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    opts.threads = threads;
    EXPECT_LE(step_allocations_per_point(model, opts), 4.5) << threads << " threads";
  }
}

/// A decorator overriding only the gather entry points perfbench's
/// TracedPolicy decorates (evaluate_gather, evaluate_gather_with_gradient),
/// counting the gathers it forwards, with full rows, to the inner policy.
class OldEntryPointView final : public PolicyEvaluator {
 public:
  explicit OldEntryPointView(const PolicyEvaluator& inner) : inner_(inner) {}
  [[nodiscard]] int num_shocks() const override { return inner_.num_shocks(); }
  [[nodiscard]] int ndofs() const override { return inner_.ndofs(); }
  void evaluate(int z, std::span<const double> x, std::span<double> out) const override {
    inner_.evaluate(z, x, out);
  }
  void evaluate_gather(std::span<const GatherRequest> requests, std::span<const double> xs,
                       std::size_t npoints, std::span<double> out,
                       std::size_t out_stride) const override {
    ++gathers;
    inner_.evaluate_gather(requests, xs, npoints, out, out_stride);
  }
  void evaluate_gather_with_gradient(std::span<const GatherRequest> requests,
                                     std::span<const double> xs, std::size_t npoints,
                                     std::span<double> values, std::size_t value_stride,
                                     std::span<double> grads,
                                     std::size_t grad_stride) const override {
    ++gathers;
    inner_.evaluate_gather_with_gradient(requests, xs, npoints, values, value_stride, grads,
                                         grad_stride);
  }
  mutable int gathers = 0;

 private:
  const PolicyEvaluator& inner_;
};

/// Point solves through OldEntryPointView against the same solves on the
/// bare policy: equal dofs bit for bit, and the view sees every gather, the
/// counted ones plus `uncounted` per solve (OLG's value recursion).
void expect_decorator_sees_every_gather(const DynamicModel& model, const AsgPolicy& policy,
                                        const std::vector<std::vector<double>>& points,
                                        int uncounted) {
  std::vector<double> warm(static_cast<std::size_t>(model.ndofs()));
  for (const std::vector<double>& x : points) {
    for (int z = 0; z < model.num_shocks(); ++z) {
      policy.evaluate(z, x, warm);
      const PointSolveResult bare = model.solve_point(z, x, policy, warm);
      const OldEntryPointView view(policy);
      const PointSolveResult viewed = model.solve_point(z, x, view, warm);
      EXPECT_GT(viewed.gathers, 0) << "shock " << z;
      EXPECT_EQ(view.gathers, viewed.gathers + uncounted) << "shock " << z;
      EXPECT_EQ(viewed.gathers, bare.gathers) << "shock " << z;
      EXPECT_EQ(viewed.solver_iterations, bare.solver_iterations) << "shock " << z;
      ASSERT_EQ(viewed.dofs.size(), bare.dofs.size());
      EXPECT_EQ(std::memcmp(viewed.dofs.data(), bare.dofs.data(),
                            bare.dofs.size() * sizeof(double)),
                0)
          << "shock " << z;
    }
  }
}

TEST(PointSolveGathers, DecoratorOfTheOldEntryPointsSeesEveryIrbcGather) {
  irbc::IrbcCalibration cal;
  cal.countries = 3;
  const irbc::IrbcModel model(cal);
  const auto policy = short_solve(model, 2);
  expect_decorator_sees_every_gather(model, *policy, {{0.5, 0.5, 0.5}, {0.1, 0.9, 0.3}}, 0);
}

TEST(PointSolveGathers, DecoratorOfTheOldEntryPointsSeesEveryOlgGather) {
  // The model asks for dof ranges; the decorator's full rows must solve to
  // the same bits.
  const olg::OlgModel model(olg::build_economy(olg::reduced_calibration(8, 2, 2)));
  const auto policy = short_solve(model, 2);
  const std::vector<double> center(static_cast<std::size_t>(model.state_dim()), 0.5);
  std::vector<double> off_center(center);
  off_center[0] = 0.3;
  off_center[1] = 0.7;
  expect_decorator_sees_every_gather(model, *policy, {center, off_center}, 1);
}

/// Surpluses of a few time-iteration steps solved with `threads` workers.
std::vector<double> surpluses(const DynamicModel& model, TimeIterationOptions opts,
                              std::size_t threads) {
  opts.threads = threads;
  const TimeIterationResult result = solve_time_iteration(model, opts);
  // With a device attached every point must stay on the device kernel: a
  // refused run falls back to the CPU kernel, so which kernel served a point
  // would depend on queue timing.
  std::uint64_t offloaded = 0;
  for (const IterationStats& st : result.history) {
    EXPECT_EQ(st.device.rejected_points, 0u) << "iteration " << st.iteration;
    offloaded += st.device.offloaded_points;
  }
  EXPECT_EQ(offloaded > 0, opts.use_device);
  std::vector<double> all;
  for (int z = 0; z < result.policy->num_shocks(); ++z) {
    const auto& s = result.policy->grid(z).dense().surplus;
    all.insert(all.end(), s.begin(), s.end());
  }
  return all;
}

void expect_thread_count_independent(const DynamicModel& model, const TimeIterationOptions& opts) {
  const std::vector<double> one = surpluses(model, opts, 1);
  ASSERT_FALSE(one.empty());
  for (const std::size_t threads : {std::size_t{2}, std::size_t{4}}) {
    const std::vector<double> many = surpluses(model, opts, threads);
    ASSERT_EQ(many.size(), one.size()) << threads << " threads";
    EXPECT_EQ(std::memcmp(many.data(), one.data(), one.size() * sizeof(double)), 0)
        << threads << " threads";
  }
}

TEST(PointSolveThreads, IrbcAdaptiveSurplusesIndependentOfThreadCount) {
  irbc::IrbcCalibration cal;
  cal.countries = 2;
  const irbc::IrbcModel model(cal);
  TimeIterationOptions opts;
  opts.base_level = 2;
  opts.refine_epsilon = 1e-3;
  opts.max_level = 4;
  opts.max_iterations = 4;
  opts.tolerance = 0.0;
  expect_thread_count_independent(model, opts);
  // With a simulated GPU attached, warm starts and residual gathers ride the
  // device queue, whose combining waiters hand launches to each other
  // inside real point solves.
  opts.use_device = true;
  opts.offload.queue_capacity = std::size_t{1} << 30;  // never refuse a run
  expect_thread_count_independent(model, opts);
}

TEST(PointSolveThreads, OlgSurplusesIndependentOfThreadCount) {
  const olg::OlgModel model(olg::build_economy(olg::reduced_calibration(8, 2, 2)));
  TimeIterationOptions opts;
  opts.base_level = 2;
  opts.max_level = 2;
  opts.max_iterations = 3;
  opts.tolerance = 0.0;
  expect_thread_count_independent(model, opts);
}

}  // namespace
}  // namespace hddm::core
