// Repository benchmark program: one model configuration per workload, driven
// through the two things a user of hddm does with it.
//
//   1. Solve to accuracy. Repeated full time-iteration solves (Algorithm 1)
//      from the analytic initial policy to convergence. Every solve must
//      converge and reproduce the reference policy, and the reference policy
//      must meet the workload's Euler-error limit on an off-grid sample drawn
//      from the seed.
//   2. Load -> serve. The converged policy (generation A) and one further
//      time-iteration step from it (generation B) are saved as snapshot
//      files. A reader thread sends a PolicyServer gather queries (states
//      spread evenly over all shocks) in a closed loop while the main thread
//      reloads the two files alternately and publishes each one (a hot swap
//      under load). Every answer is checked bit for bit against the
//      generation whose version served it, recomputed on a separately
//      rebuilt policy.
//
// A run repeats rounds of set-ups, one solve and one serving slice until
// --seconds have passed, so every metric samples the whole run. Solve, load
// and query times are reported as 10th percentiles: on a shared host the
// rest of each distribution follows other tenants' load (perfbench/README.md).
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --workdir DIR
//
// With --trace 0 the last stdout line is the end-to-end result; with
// --trace 1 the same phases run with spans recorded by this file around every
// call into the library's layers (decorators of core::DynamicModel and
// core::PolicyEvaluator for a solve, split load and query steps for serving),
// and the line carries the per-layer metrics. perfbench/run.py builds and
// calls this program; perfbench/README.md lists the metrics.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/time_iteration.hpp"
#include "irbc/irbc_model.hpp"
#include "olg/olg_model.hpp"
#include "olg/simulate.hpp"
#include "serve/policy_server.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace {

using namespace hddm;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(const std::vector<double>& xs) { return util::percentile(xs, 0.5); }

// ----------------------------------------------------------------- workloads

/// A model instance plus its accuracy measure (mean Euler error of a policy
/// on an off-grid sample drawn from `seed`).
struct Instance {
  std::unique_ptr<core::DynamicModel> model;
  std::function<double(const core::PolicyEvaluator&, std::uint64_t)> euler_error;
};

struct Workload {
  std::string name;
  std::string params;  ///< recorded in the snapshot metadata
  std::function<Instance()> make_instance;
  core::TimeIterationOptions solve;
  double euler_limit = 0.0;  ///< accuracy the converged policy must reach
};

constexpr std::size_t kBatch = 32;       ///< points per query
constexpr double kReloadSeconds = 0.02;  ///< interval between hot swaps while serving

Instance make_irbc(int countries) {
  irbc::IrbcCalibration cal;
  cal.countries = countries;
  auto model = std::make_unique<irbc::IrbcModel>(cal);
  const irbc::IrbcModel* m = model.get();
  return {std::move(model), [m](const core::PolicyEvaluator& p, std::uint64_t seed) {
            // Interior of the capital box: the Euler residual of the
            // piecewise-linear interpolant is largest at the box faces,
            // which the ergodic set never reaches.
            util::Rng rng(seed);
            std::vector<double> x(static_cast<std::size_t>(m->state_dim()));
            double sum = 0.0;
            int n = 0;
            for (int z = 0; z < m->num_shocks(); ++z)
              for (int s = 0; s < 32; ++s, ++n) {
                for (double& xi : x) xi = 0.1 + 0.8 * rng.uniform();
                sum += m->equilibrium_residual(z, x, p);
              }
            return sum / n;
          }};
}

Instance make_olg(int ages, std::size_t nprod, std::size_t ntax) {
  auto model = std::make_unique<olg::OlgModel>(
      olg::build_economy(olg::reduced_calibration(ages, nprod, ntax)));
  const olg::OlgModel* m = model.get();
  return {std::move(model), [m](const core::PolicyEvaluator& p, std::uint64_t seed) {
            // The paper's accuracy measure: mean Euler error along a
            // simulated path of the economy (its ergodic set).
            olg::SimulationOptions sim;
            sim.periods = 120;
            sim.burn_in = 20;
            sim.seed = seed;
            return olg::simulate_economy(*m, p, sim).euler_error.mean();
          }};
}

std::vector<Workload> workloads() {
  std::vector<Workload> all;
  {
    Workload w;
    w.name = "irbc";
    w.params = "IRBC N=3, adaptive eps=1e-2, levels 2..5";
    w.make_instance = [] { return make_irbc(3); };
    w.solve.base_level = 2;
    w.solve.refine_epsilon = 1e-2;
    w.solve.max_level = 5;
    w.solve.tolerance = 1e-5;
    w.solve.max_iterations = 200;
    w.solve.threads = 1;
    w.euler_limit = 2e-3;
    all.push_back(std::move(w));
  }
  {
    Workload w;
    w.name = "olg";
    w.params = "OLG A=8, 2x2 shocks, regular level 3";
    w.make_instance = [] { return make_olg(8, 2, 2); };
    w.solve.base_level = 3;
    w.solve.max_level = 3;
    w.solve.tolerance = 1e-4;
    w.solve.max_iterations = 60;
    w.solve.threads = 1;
    w.euler_limit = 0.1;
    all.push_back(std::move(w));
  }
  return all;
}

// ------------------------------------------------------------------- tracing

/// One layer's span totals: busy time summed over threads, calls, and the
/// items (points or requests) those calls carried.
struct Span {
  std::atomic<std::uint64_t> ns{0};
  std::atomic<std::uint64_t> calls{0};
  std::atomic<std::uint64_t> items{0};
  void add(Clock::time_point t0, std::uint64_t n) {
    ns.fetch_add(static_cast<std::uint64_t>(
                     std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0)
                         .count()),
                 std::memory_order_relaxed);
    calls.fetch_add(1, std::memory_order_relaxed);
    items.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] double seconds() const { return static_cast<double>(ns.load()) * 1e-9; }
};

struct SolveTrace {
  Span warm_start;      ///< p_next.evaluate_batch issued by the driver
  Span gather;          ///< p_next.evaluate_gather issued inside point solves
  Span gradient;        ///< p_next.evaluate_gather_with_gradient (Jacobian refreshes)
  Span point_solve;     ///< model.solve_point (items = Newton iterations)
  std::atomic<std::uint64_t> newton_failures{0};
};

/// Forwards every call to the wrapped policy, timing the entry points the
/// solve uses. Results are those of the wrapped policy, bit for bit.
class TracedPolicy final : public core::PolicyEvaluator {
 public:
  TracedPolicy(const core::PolicyEvaluator& inner, SolveTrace& trace)
      : inner_(inner), trace_(trace) {}
  [[nodiscard]] int num_shocks() const override { return inner_.num_shocks(); }
  [[nodiscard]] int ndofs() const override { return inner_.ndofs(); }
  void evaluate(int z, std::span<const double> x, std::span<double> out) const override {
    inner_.evaluate(z, x, out);
  }
  void evaluate_batch(int z, std::span<const double> xs, std::span<double> out,
                      std::size_t npoints) const override {
    const auto t0 = Clock::now();
    inner_.evaluate_batch(z, xs, out, npoints);
    trace_.warm_start.add(t0, npoints);
  }
  void evaluate_gather(std::span<const core::GatherRequest> requests, std::span<const double> xs,
                       std::size_t npoints, std::span<double> out,
                       std::size_t out_stride) const override {
    const auto t0 = Clock::now();
    inner_.evaluate_gather(requests, xs, npoints, out, out_stride);
    trace_.gather.add(t0, requests.size());
  }
  void evaluate_gather_with_gradient(std::span<const core::GatherRequest> requests,
                                     std::span<const double> xs, std::size_t npoints,
                                     std::span<double> values, std::size_t value_stride,
                                     std::span<double> grads,
                                     std::size_t grad_stride) const override {
    const auto t0 = Clock::now();
    inner_.evaluate_gather_with_gradient(requests, xs, npoints, values, value_stride, grads,
                                         grad_stride);
    trace_.gradient.add(t0, requests.size());
  }

 private:
  const core::PolicyEvaluator& inner_;
  SolveTrace& trace_;
};

/// Forwards every call to the wrapped model, timing the point solves.
class TracedModel final : public core::DynamicModel {
 public:
  TracedModel(const core::DynamicModel& inner, SolveTrace& trace) : inner_(inner), trace_(trace) {}
  [[nodiscard]] int state_dim() const override { return inner_.state_dim(); }
  [[nodiscard]] int num_shocks() const override { return inner_.num_shocks(); }
  [[nodiscard]] int ndofs() const override { return inner_.ndofs(); }
  [[nodiscard]] int indicator_dofs() const override { return inner_.indicator_dofs(); }
  [[nodiscard]] const sg::BoxDomain& domain() const override { return inner_.domain(); }
  [[nodiscard]] std::vector<double> initial_policy(int z,
                                                   std::span<const double> x) const override {
    return inner_.initial_policy(z, x);
  }
  [[nodiscard]] core::PointSolveResult solve_point(int z, std::span<const double> x,
                                                   const core::PolicyEvaluator& p_next,
                                                   std::span<const double> warm) const override {
    const auto t0 = Clock::now();
    core::PointSolveResult res = inner_.solve_point(z, x, p_next, warm);
    trace_.point_solve.add(t0, static_cast<std::uint64_t>(res.solver_iterations));
    if (!res.converged) trace_.newton_failures.fetch_add(1, std::memory_order_relaxed);
    return res;
  }
  [[nodiscard]] double equilibrium_residual(int z, std::span<const double> x,
                                            const core::PolicyEvaluator& p) const override {
    return inner_.equilibrium_residual(z, x, p);
  }

 private:
  const core::DynamicModel& inner_;
  SolveTrace& trace_;
};

// ----------------------------------------------------------------- checking

/// True when both policies have the same grids and bitwise equal surpluses.
bool same_policy(const core::AsgPolicy& a, const core::AsgPolicy& b) {
  if (a.num_shocks() != b.num_shocks() || a.ndofs() != b.ndofs()) return false;
  for (int z = 0; z < a.num_shocks(); ++z) {
    const sg::DenseGridData& ga = a.grid(z).dense();
    const sg::DenseGridData& gb = b.grid(z).dense();
    if (ga.dim != gb.dim || ga.nno != gb.nno || ga.pairs.size() != gb.pairs.size() ||
        ga.surplus.size() != gb.surplus.size())
      return false;
    for (std::size_t k = 0; k < ga.pairs.size(); ++k)
      if (ga.pairs[k].l != gb.pairs[k].l || ga.pairs[k].i != gb.pairs[k].i) return false;
    if (std::memcmp(ga.surplus.data(), gb.surplus.data(), ga.surplus.size() * sizeof(double)) != 0)
      return false;
  }
  return true;
}

/// A copy of `policy` whose grids are rebuilt from their dense data with
/// kernel `kind`: the reference the served answers are checked against.
std::shared_ptr<core::AsgPolicy> rebuild(const core::AsgPolicy& policy, kernels::KernelKind kind) {
  std::vector<std::unique_ptr<core::ShockGrid>> grids;
  for (int z = 0; z < policy.num_shocks(); ++z)
    grids.push_back(std::make_unique<core::ShockGrid>(sg::DenseGridData(policy.grid(z).dense()),
                                                      kind));
  return std::make_shared<core::AsgPolicy>(policy.ndofs(), std::move(grids));
}

// ------------------------------------------------------------------- the run

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string workdir = ".";
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;
  std::map<std::string, std::pair<double, std::string>> metrics;
  void fail(const std::string& why) {
    correct = false;
    if (errors.size() < 8) errors.push_back(why);
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
};

/// The program's set-up: everything constructed before the first solve.
struct Setup {
  Instance instance;
  std::unique_ptr<core::TimeIterationDriver> driver;
  std::unique_ptr<serve::PolicyServer> server;
};

Setup make_setup(const Workload& w) {
  Setup s;
  s.instance = w.make_instance();
  s.driver = std::make_unique<core::TimeIterationDriver>(*s.instance.model, w.solve);
  s.server = std::make_unique<serve::PolicyServer>();
  return s;
}

/// Algorithm 1 step by step through the tracing decorators, with the
/// convergence rule of TimeIterationDriver::run(); the caller checks the
/// result against an untraced run().
std::shared_ptr<core::AsgPolicy> traced_solve(const core::DynamicModel& model,
                                              const core::TimeIterationOptions& opts,
                                              SolveTrace& trace, int& iterations,
                                              double& hierarchize_s, double& step_other_s) {
  const TracedModel traced_model(model, trace);
  core::TimeIterationDriver driver(traced_model, opts);
  const core::InitialPolicyEvaluator initial(model);
  const core::PolicyEvaluator* p_next = &initial;
  std::shared_ptr<core::AsgPolicy> current;
  iterations = 0;
  for (int it = 0; it < opts.max_iterations; ++it) {
    core::IterationStats stats;
    stats.iteration = it;
    const TracedPolicy traced(*p_next, trace);
    const auto t0 = Clock::now();
    std::shared_ptr<core::AsgPolicy> next = driver.step(traced, stats);
    const double wall = seconds_since(t0);
    hierarchize_s += stats.hierarchize_seconds;
    step_other_s += std::max(0.0, wall - stats.solve_seconds - stats.hierarchize_seconds);
    current = std::move(next);
    p_next = current.get();
    iterations = it + 1;
    if (it > 0 && stats.policy_change_linf < opts.tolerance) break;
  }
  return current;
}

/// One query: kBatch states, request k on shock k % num_shocks, so every
/// query carries the same work whatever the per-shock grid sizes.
struct Probe {
  std::vector<double> xs;                     ///< kBatch rows of the state dimension
  std::vector<core::GatherRequest> requests;  ///< request k: row k on shock k % num_shocks
  std::vector<double> expected[2];            ///< per generation (A, B), row k per request
  std::vector<double> by_shock_xs;            ///< the rows regrouped shock by shock (tracing)
  std::vector<std::size_t> by_shock_row;      ///< request row of each regrouped row
  std::vector<std::size_t> shock_begin;       ///< first regrouped row of each shock, plus end
};

void run(const Workload& w, const Args& args, Result& r) {
  Setup s = make_setup(w);
  const core::DynamicModel& model = *s.instance.model;

  // --- reference solve (untimed: fills caches and lazy scratch).
  core::TimeIterationResult ref = s.driver->run();
  ++r.attempted;
  if (!ref.converged || !ref.policy) {
    ++r.failed;
    r.fail("reference solve did not converge");
    return;
  }
  const std::shared_ptr<core::AsgPolicy> gen_a = ref.policy;
  const double euler = s.instance.euler_error(*gen_a, args.seed);
  if (!(euler <= w.euler_limit))
    r.fail("Euler error " + std::to_string(euler) + " above limit " +
           std::to_string(w.euler_limit));

  // --- the two snapshot generations the server swaps between.
  core::IterationStats extra;
  const std::shared_ptr<core::AsgPolicy> gen_b = s.driver->step(*gen_a, extra);
  std::filesystem::create_directories(args.workdir);
  const std::string files[2] = {args.workdir + "/" + w.name + "-a.hsnap",
                                args.workdir + "/" + w.name + "-b.hsnap"};
  serve::SnapshotMeta meta;
  meta.model = w.name;
  meta.params = w.params;
  serve::save_snapshot(*gen_a, meta, files[0]);
  serve::save_snapshot(*gen_b, meta, files[1]);
  const auto snapshot_bytes = static_cast<double>(std::filesystem::file_size(files[0]));

  serve::PolicyServer& server = *s.server;
  server.load_and_publish(files[0]);  // version 1 serves A; version v serves (v - 1) % 2
  const kernels::KernelKind kind = server.current()->policy->kernel_kind();
  const std::shared_ptr<core::AsgPolicy> truth[2] = {rebuild(*gen_a, kind), rebuild(*gen_b, kind)};

  // --- query probes drawn from the seed, with each generation's answers.
  const auto d = static_cast<std::size_t>(model.state_dim());
  const auto nd = static_cast<std::size_t>(model.ndofs());
  const auto nshocks = static_cast<std::size_t>(model.num_shocks());
  std::vector<Probe> probes(64);
  util::Rng rng(args.seed * 0x9E3779B97F4A7C15ULL + 17);
  for (Probe& p : probes) {
    p.xs.resize(kBatch * d);
    for (double& x : p.xs) x = rng.uniform();
    for (std::size_t k = 0; k < kBatch; ++k)
      p.requests.push_back({static_cast<std::int32_t>(k % nshocks), static_cast<std::uint32_t>(k)});
    for (int g = 0; g < 2; ++g) {
      p.expected[g].resize(kBatch * nd);
      for (std::size_t k = 0; k < kBatch; ++k)
        truth[g]->evaluate(static_cast<int>(k % nshocks),
                           std::span<const double>(p.xs).subspan(k * d, d),
                           std::span<double>(p.expected[g]).subspan(k * nd, nd));
    }
    for (std::size_t z = 0; z < nshocks; ++z) {
      p.shock_begin.push_back(p.by_shock_row.size());
      for (std::size_t k = z; k < kBatch; k += nshocks) {
        p.by_shock_row.push_back(k);
        p.by_shock_xs.insert(p.by_shock_xs.end(), p.xs.begin() + static_cast<std::ptrdiff_t>(k * d),
                             p.xs.begin() + static_cast<std::ptrdiff_t>((k + 1) * d));
      }
    }
    p.shock_begin.push_back(kBatch);
  }

  // --- one reader thread, querying in a closed loop while the gate is open.
  // The gate is closed during solves, so a solve is timed alone.
  using us = std::chrono::duration<double, std::micro>;
  using ms = std::chrono::duration<double, std::milli>;
  std::mutex gate_mu;
  std::condition_variable gate;
  bool serving = false, stop = false;  // guarded by gate_mu
  std::uint64_t queries = 0, wrong = 0, threw = 0;
  std::vector<double> query_us, pin_us, kernel_us, gather_us;
  std::thread reader([&] {
    std::vector<double> out(kBatch * nd);
    std::size_t next = 0;
    for (;;) {
      {
        std::unique_lock<std::mutex> lock(gate_mu);
        gate.wait(lock, [&] { return serving || stop; });
        if (stop) break;
      }
      const Probe& p = probes[next++ % probes.size()];
      ++queries;
      try {
        const auto t0 = Clock::now();
        const std::uint64_t version = server.evaluate_gather(p.requests, p.xs, kBatch, out, nd);
        query_us.push_back(us(Clock::now() - t0).count());
        if (std::memcmp(p.expected[(version - 1) % 2].data(), out.data(),
                        out.size() * sizeof(double)) != 0)
          ++wrong;
        if (args.trace) {
          // The layers of one query, called one at a time: pin the published
          // snapshot, the gather on its policy, and the same rows evaluated
          // shock by shock straight through the kernels (no bucketing).
          const auto t1 = Clock::now();
          const auto snap = server.current();
          const auto t2 = Clock::now();
          snap->policy->evaluate_gather(p.requests, p.xs, kBatch, out, nd);
          const auto t3 = Clock::now();
          const std::vector<double>& expected = p.expected[(snap->version - 1) % 2];
          if (std::memcmp(expected.data(), out.data(), out.size() * sizeof(double)) != 0) ++wrong;
          for (std::size_t z = 0; z < nshocks; ++z) {
            const std::size_t b = p.shock_begin[z], n = p.shock_begin[z + 1] - b;
            snap->policy->evaluate_batch(static_cast<int>(z),
                                         std::span<const double>(p.by_shock_xs).subspan(b * d, n * d),
                                         std::span<double>(out).subspan(b * nd, n * nd), n);
          }
          const auto t4 = Clock::now();
          for (std::size_t j = 0; j < kBatch; ++j)
            if (std::memcmp(expected.data() + p.by_shock_row[j] * nd, out.data() + j * nd,
                            nd * sizeof(double)) != 0) {
              ++wrong;
              break;
            }
          pin_us.push_back(us(t2 - t1).count());
          gather_us.push_back(us(t3 - t2).count());
          kernel_us.push_back(us(t4 - t3).count());
        }
      } catch (const std::exception&) {
        ++threw;
      }
    }
  });

  const auto set_gate = [&](bool serve_now, bool stop_now) {
    {
      const std::lock_guard<std::mutex> lock(gate_mu);
      serving = serve_now;
      stop = stop_now;
    }
    gate.notify_all();
  };

  // --- rounds until --seconds: a set-up, a solve, then a serving slice as
  // long as the solve, with a hot swap every kReloadSeconds. Interleaving
  // spreads every metric's samples over the whole run.
  std::vector<double> setup_s, solve_s, load_ms, read_ms, decode_ms, publish_us, bind_ms;
  SolveTrace trace;
  int iterations = ref.iterations;
  double hierarchize_s = 0.0, step_other_s = 0.0;
  int swap = 1;
  const auto start = Clock::now();
  try {
    while (solve_s.size() < 3 || seconds_since(start) < args.seconds) {
      for (int k = 0; k < 5; ++k) {
        const auto t0 = Clock::now();
        const Setup fresh = make_setup(w);
        setup_s.push_back(seconds_since(t0));
      }

      ++r.attempted;
      std::shared_ptr<core::AsgPolicy> policy;
      bool converged = false;
      const auto t0 = Clock::now();
      if (args.trace) {
        policy = traced_solve(model, w.solve, trace, iterations, hierarchize_s, step_other_s);
        converged = policy && iterations < w.solve.max_iterations;
      } else {
        core::TimeIterationResult res = s.driver->run();
        converged = res.converged;
        iterations = res.iterations;
        policy = std::move(res.policy);
      }
      const double solve_time = seconds_since(t0);
      solve_s.push_back(solve_time);
      if (!converged || !policy || !same_policy(*gen_a, *policy)) {
        ++r.failed;
        r.fail("solve did not reproduce the reference policy");
      }

      set_gate(true, false);
      const auto slice_start = Clock::now();
      const double slice = std::max(solve_time, 0.1);
      for (int k = 1; k * kReloadSeconds < slice; ++k) {
        std::this_thread::sleep_until(slice_start + std::chrono::duration_cast<Clock::duration>(
                                                        std::chrono::duration<double>(
                                                            k * kReloadSeconds)));
        const std::string& file = files[swap++ % 2];
        ++r.attempted;
        const auto l0 = Clock::now();
        if (args.trace) {
          std::string bytes(std::filesystem::file_size(file), '\0');
          std::ifstream(file, std::ios::binary)
              .read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
          const auto l1 = Clock::now();
          std::istringstream stream(std::move(bytes));
          serve::LoadedSnapshot loaded = serve::load_snapshot(stream);
          const auto l2 = Clock::now();
          server.publish(loaded.policy, loaded.meta);
          const auto l3 = Clock::now();
          read_ms.push_back(ms(l1 - l0).count());
          decode_ms.push_back(ms(l2 - l1).count());
          publish_us.push_back(us(l3 - l2).count());
          const auto b0 = Clock::now();
          const auto rebuilt = rebuild(*loaded.policy, loaded.kernel);
          bind_ms.push_back(ms(Clock::now() - b0).count());
        } else {
          server.load_and_publish(file);
        }
        load_ms.push_back(ms(Clock::now() - l0).count());
      }
      set_gate(false, false);
    }
  } catch (const std::exception& e) {
    ++r.failed;
    r.fail(std::string("exception during the run: ") + e.what());
  }
  set_gate(false, true);
  reader.join();
  std::filesystem::remove(files[0]);
  std::filesystem::remove(files[1]);

  r.attempted += queries;
  r.failed += wrong + threw;
  if (wrong != 0) r.fail(std::to_string(wrong) + " queries returned values of no served generation");
  if (threw != 0) r.fail(std::to_string(threw) + " queries threw");
  if (server.stats().swaps != load_ms.size() + 1) r.fail("a snapshot publish did not complete");
  if (query_us.size() < 1000) r.fail("fewer than 1000 queries served");

  if (!args.trace) {
    r.metric("solve_p10_s", util::percentile(solve_s, 0.1), "s");
    r.metric("load_p10_ms", util::percentile(load_ms, 0.1), "ms");
    r.metric("query_p10_us", util::percentile(query_us, 0.1), "us");
    r.metric("query_p99_us", util::percentile(query_us, 0.99), "us");
    r.metric("setup_s", median(setup_s), "s");
    return;
  }
  const auto per_solve = [&](double v) { return v / static_cast<double>(solve_s.size()); };
  r.metric("solve_iterations", iterations, "count");
  r.metric("grid_points", gen_a->total_points(), "count");
  r.metric("euler_error", euler, "1");
  r.metric("point_solves", per_solve(trace.point_solve.calls.load()), "count");
  r.metric("point_solve_s", per_solve(trace.point_solve.seconds()), "s");
  r.metric("newton_self_s",
           per_solve(trace.point_solve.seconds() - trace.gather.seconds() -
                     trace.gradient.seconds()),
           "s");
  r.metric("newton_iterations", per_solve(trace.point_solve.items.load()), "count");
  r.metric("newton_failures", per_solve(trace.newton_failures.load()), "count");
  r.metric("warm_start_s", per_solve(trace.warm_start.seconds()), "s");
  r.metric("warm_start_points", per_solve(trace.warm_start.items.load()), "count");
  r.metric("gather_s", per_solve(trace.gather.seconds()), "s");
  r.metric("gathers", per_solve(trace.gather.calls.load()), "count");
  r.metric("gather_requests", per_solve(trace.gather.items.load()), "count");
  r.metric("gradient_gather_s", per_solve(trace.gradient.seconds()), "s");
  r.metric("gradient_gathers", per_solve(trace.gradient.calls.load()), "count");
  r.metric("hierarchize_s", per_solve(hierarchize_s), "s");
  r.metric("step_other_s", per_solve(step_other_s), "s");
  r.metric("snapshot_bytes", snapshot_bytes, "B");
  r.metric("load_read_ms", median(read_ms), "ms");
  r.metric("load_decode_ms", median(decode_ms), "ms");
  r.metric("kernel_bind_ms", median(bind_ms), "ms");
  r.metric("publish_us", median(publish_us), "us");
  r.metric("query_pin_us", median(pin_us), "us");
  r.metric("query_kernel_us", median(kernel_us), "us");
  r.metric("query_gather_us", median(gather_us), "us");
  r.metric("queries", static_cast<double>(queries), "count");
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

void print_result(const Result& r) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              r.correct && r.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(std::max<std::uint64_t>(r.attempted, 1)),
              static_cast<unsigned long long>(r.failed));
  bool first = true;
  for (const auto& [name, vu] : r.metrics) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", first ? "" : ", ", name.c_str(),
                vu.first, vu.second.c_str());
    first = false;
  }
  std::printf("}, \"errors\": [");
  for (std::size_t k = 0; k < r.errors.size(); ++k)
    std::printf("%s\"%s\"", k ? ", " : "", json_escape(r.errors[k]).c_str());
  std::printf("]}\n");
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int k = 1; k + 1 < argc; k += 2) {
    const std::string key = argv[k], value = argv[k + 1];
    if (key == "--workload") args.workload = value;
    else if (key == "--seed") args.seed = std::stoull(value);
    else if (key == "--seconds") args.seconds = std::stod(value);
    else if (key == "--trace") args.trace = value == "1";
    else if (key == "--workdir") args.workdir = value;
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", key.c_str());
      return 2;
    }
  }
  for (const Workload& w : workloads()) {
    if (w.name != args.workload) continue;
    Result r;
    try {
      run(w, args, r);
    } catch (const std::exception& e) {
      ++r.failed;
      r.fail(std::string("exception: ") + e.what());
    }
    print_result(r);
    return 0;
  }
  std::fprintf(stderr, "perfbench: unknown workload '%s'\n", args.workload.c_str());
  return 2;
}
