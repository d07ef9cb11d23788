#include "serve/policy_server.hpp"

#include <stdexcept>
#include <utility>

namespace hddm::serve {

PolicyServer::PolicyServer(ServerOptions options) : opts_(options) {}

std::shared_ptr<const PolicyServer::Snapshot> PolicyServer::current() const {
  const std::lock_guard<std::mutex> lock(snapshot_mu_);
  return snapshot_;
}

std::uint64_t PolicyServer::publish(std::shared_ptr<core::AsgPolicy> policy, SnapshotMeta meta) {
  if (policy == nullptr) throw std::invalid_argument("PolicyServer::publish: null policy");

  // Build the incoming generation completely before publication: once the
  // pointer swaps, the snapshot must be query-ready with zero further setup.
  if (opts_.attach_device) policy->attach_default_device(opts_.device_kernel, opts_.offload);

  auto snap = std::make_shared<Snapshot>();
  snap->policy = std::move(policy);
  snap->meta = std::move(meta);
  snap->version = next_version_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t version = snap->version;

  std::shared_ptr<const Snapshot> victim;  // destroyed outside the lock
  {
    const std::lock_guard<std::mutex> lock(snapshot_mu_);
    victim = std::exchange(snapshot_, std::move(snap));
  }
  swaps_.fetch_add(1, std::memory_order_relaxed);
  return version;
}

std::uint64_t PolicyServer::load_and_publish(const std::string& path) {
  LoadedSnapshot loaded = load_snapshot(path);
  if (loaded.isa_fallback) isa_fallbacks_.fetch_add(1, std::memory_order_relaxed);
  return publish(std::move(loaded.policy), std::move(loaded.meta));
}

ServerStats PolicyServer::stats() const {
  ServerStats s{queries_.load(std::memory_order_relaxed), points_.load(std::memory_order_relaxed),
                swaps_.load(std::memory_order_relaxed),
                isa_fallbacks_.load(std::memory_order_relaxed), std::nullopt};
  if (const auto snap = current()) s.kernel = snap->policy->kernel_kind();
  return s;
}

std::shared_ptr<const PolicyServer::Snapshot> PolicyServer::pinned_or_throw() const {
  auto snap = current();
  if (snap == nullptr)
    throw std::logic_error("PolicyServer: no snapshot published yet (call publish/load_and_publish)");
  return snap;
}

std::uint64_t PolicyServer::evaluate_batch(int z, std::span<const double> xs,
                                           std::span<double> out, std::size_t npoints) const {
  const auto snap = pinned_or_throw();  // one pin for the whole batch
  snap->policy->evaluate_batch(z, xs, out, npoints);
  queries_.fetch_add(1, std::memory_order_relaxed);
  points_.fetch_add(npoints, std::memory_order_relaxed);
  return snap->version;
}

std::uint64_t PolicyServer::evaluate_gather(std::span<const core::GatherRequest> requests,
                                            std::span<const double> xs, std::size_t npoints,
                                            std::span<double> out,
                                            std::size_t out_stride) const {
  const auto snap = pinned_or_throw();
  snap->policy->evaluate_gather(requests, xs, npoints, out, out_stride);
  queries_.fetch_add(1, std::memory_order_relaxed);
  points_.fetch_add(requests.size(), std::memory_order_relaxed);
  return snap->version;
}

parallel::DispatcherStats PolicyServer::device_stats() const {
  const auto snap = current();
  if (snap == nullptr) return {};
  return snap->policy->device_stats();
}

}  // namespace hddm::serve
