// A per-point view of a policy — a test oracle (hddm_test_support): parity
// tests and bench_gather pit the gathered entry points against the
// PolicyEvaluator defaults' per-request loops through it.
#pragma once

#include <cstddef>
#include <span>

#include "core/model.hpp"

namespace hddm::core {

/// Per-point view of another evaluator: forwards evaluate() but keeps the
/// PolicyEvaluator default evaluate_batch/evaluate_gather loops — the
/// pre-gather scalar regime. Parity tests and bench_gather wrap the same
/// AsgPolicy in this view to pit gathered against per-shock scalar
/// evaluation bit for bit. The gradient entry point forwards to the inner
/// evaluator unchanged: it is not part of the scalar-vs-gathered value
/// contract under test, and forwarding keeps solve trajectories bit-
/// identical across the two views. The models' analytic Euler Jacobians
/// read p_next's gradients through this entry point; the base-class
/// finite-difference default would perturb them.
class ScalarPolicyView final : public PolicyEvaluator {
 public:
  explicit ScalarPolicyView(const PolicyEvaluator& inner) : inner_(inner) {}
  [[nodiscard]] int num_shocks() const override { return inner_.num_shocks(); }
  [[nodiscard]] int ndofs() const override { return inner_.ndofs(); }
  void evaluate(int z, std::span<const double> x_unit, std::span<double> out) const override {
    inner_.evaluate(z, x_unit, out);
  }
  void evaluate_gather_with_gradient(std::span<const GatherRequest> requests,
                                     std::span<const double> xs, std::size_t npoints,
                                     std::span<double> values, std::size_t value_stride,
                                     std::span<double> grads,
                                     std::size_t grad_stride) const override {
    inner_.evaluate_gather_with_gradient(requests, xs, npoints, values, value_stride, grads,
                                         grad_stride);
  }

 private:
  const PolicyEvaluator& inner_;
};

}  // namespace hddm::core
