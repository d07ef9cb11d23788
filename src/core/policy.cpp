#include "core/policy.hpp"

#include <algorithm>
#include <stdexcept>

namespace hddm::core {

namespace {

// Structural check running *before* the compression pipeline sees the grid
// (the direct-adoption ctor takes caller-provided data, not GridStorage
// output).
sg::DenseGridData validated_dense(sg::DenseGridData dense) {
  if (dense.nno == 0 || dense.ndofs <= 0 || dense.dim <= 0 ||
      dense.pairs.size() != static_cast<std::size_t>(dense.nno) * dense.dim ||
      dense.surplus.size() != static_cast<std::size_t>(dense.nno) * dense.ndofs)
    throw std::invalid_argument("ShockGrid: inconsistent dense grid");
  return dense;
}

}  // namespace

ShockGrid::ShockGrid(sg::DenseGridData dense, kernels::KernelKind kind)
    : dense_(validated_dense(std::move(dense))), compressed_(compress(dense_)) {
  kernel_ = kernels::make_kernel(kind, &dense_, &compressed_);
}

void ShockGrid::replace_surpluses(std::span<const double> dense_order) {
  if (dense_order.size() != dense_.surplus.size())
    throw std::invalid_argument("ShockGrid::replace_surpluses: size mismatch");
  std::copy(dense_order.begin(), dense_order.end(), dense_.surplus.begin());
  update_surpluses(compressed_, dense_.surplus);
}

void ShockGrid::evaluate_with_gradient(std::span<const double> x_unit, std::span<double> out,
                                       std::span<double> grad) const {
  kernels::evaluate_with_gradient(compressed_, x_unit.data(), out.data(), grad.data());
}

namespace {

/// True when two compressed grids walk identically: the same point count,
/// chain width, factors (xps determines them), chains and skip pointers.
/// Compared cheapest first; each comparison stops at its first difference.
bool same_index(const CompressedGridData& a, const CompressedGridData& b) {
  return a.nno == b.nno && a.nfreq == b.nfreq && a.dim == b.dim && a.xps == b.xps &&
         a.chains == b.chains && a.skip == b.skip;
}

}  // namespace

AsgPolicy::AsgPolicy(int ndofs, std::vector<std::unique_ptr<ShockGrid>> grids)
    : ndofs_(ndofs), grids_(std::move(grids)) {
  if (grids_.empty()) throw std::invalid_argument("AsgPolicy: need at least one shock grid");
  for (const auto& g : grids_) {
    if (g == nullptr || g->ndofs() != ndofs_)
      throw std::invalid_argument("AsgPolicy: inconsistent shock grids");
  }
  // Shock classes: each shock joins the first earlier representative with
  // the same compressed index, so only representatives are compared.
  class_of_.resize(grids_.size());
  x86_grids_ = true;
  for (std::size_t z = 0; z < grids_.size(); ++z) {
    class_of_[z] = static_cast<int>(z);
    for (std::size_t r = 0; r < z; ++r) {
      if (class_of_[r] == static_cast<int>(r) &&
          same_index(grids_[r]->compressed(), grids_[z]->compressed())) {
        class_of_[z] = static_cast<int>(r);
        break;
      }
    }
    x86_grids_ = x86_grids_ && grids_[z]->kernel().kind() == kernels::KernelKind::X86;
  }
}

void AsgPolicy::evaluate(int z, std::span<const double> x_unit, std::span<double> out) const {
  const auto& grid = *grids_[static_cast<std::size_t>(z)];
  if (dispatcher_ != nullptr) {
    const auto& dev = *device_kernels_[static_cast<std::size_t>(z)];
    if (dispatcher_->try_offload(dev, x_unit.data(), out.data())) return;
  }
  grid.evaluate(x_unit, out);
}

void AsgPolicy::evaluate_batch(int z, std::span<const double> xs, std::span<double> out,
                               std::size_t npoints) const {
  if (npoints == 0) return;
  const auto& grid = *grids_[static_cast<std::size_t>(z)];
  if (dispatcher_ == nullptr) {
    grid.kernel().evaluate_batch(xs.data(), out.data(), npoints);
    return;
  }
  const auto d = static_cast<std::size_t>(grid.dense().dim);
  const auto nd = static_cast<std::size_t>(grid.ndofs());
  const auto& dev = *device_kernels_[static_cast<std::size_t>(z)];
  const std::size_t chunk = dispatcher_->options().max_batch;

  // Submit every chunk first so the device pipelines them, remember the
  // rejected ones, evaluate those on the CPU while the device drains, and
  // only then wait — one wait per accepted ticket, not per point.
  std::vector<parallel::DeviceDispatcher::Ticket> tickets;
  std::vector<std::pair<std::size_t, std::size_t>> cpu_chunks;  // (begin, npoints)
  for (std::size_t begin = 0; begin < npoints; begin += chunk) {
    const std::size_t len = std::min(chunk, npoints - begin);
    auto ticket = dispatcher_->try_submit(dev, xs.data() + begin * d, out.data() + begin * nd, len);
    if (ticket)
      tickets.push_back(std::move(ticket));
    else
      cpu_chunks.emplace_back(begin, len);
  }
  for (const auto& [begin, len] : cpu_chunks)
    grid.kernel().evaluate_batch(xs.data() + begin * d, out.data() + begin * nd, len);
  for (auto& ticket : tickets) dispatcher_->wait(std::move(ticket));
}

namespace {

/// Stable counting sort of gather requests by key(request) in [0, nkeys) —
/// by shock, or by (shock class, row): after the call,
/// `order[offset[k] + m]` is the index (into `requests`) of key k's m-th
/// request in call order. Caller-owned scratch keeps this allocation-free on
/// the hot path.
template <class Key>
void bucket_requests(std::span<const GatherRequest> requests, std::size_t nkeys, Key key,
                     std::vector<std::size_t>& count, std::vector<std::size_t>& offset,
                     std::vector<std::size_t>& order) {
  count.assign(nkeys, 0);
  for (const GatherRequest& r : requests) ++count[key(r)];
  offset.assign(nkeys + 1, 0);
  for (std::size_t k = 0; k < nkeys; ++k) offset[k + 1] = offset[k] + count[k];
  order.resize(requests.size());
  count.assign(nkeys, 0);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const std::size_t k = key(requests[i]);
    order[offset[k] + count[k]++] = i;
  }
}

/// The class path of both gathers: requests grouped by (shock class,
/// coordinate row), and each group one shared walk over the class
/// representative's index — `walk(index, x, targets)`, with target(i)
/// giving request i's WalkTarget. Returns the number of walks.
template <class Target, class Walk>
std::uint64_t walk_classes(std::span<const GatherRequest> requests, std::span<const double> xs,
                           std::size_t npoints, std::span<const int> class_of,
                           std::span<const std::unique_ptr<ShockGrid>> grids, Target target,
                           Walk walk) {
  thread_local std::vector<std::size_t> count, offset, order;
  thread_local std::vector<kernels::WalkTarget> targets;
  const std::size_t d = xs.size() / npoints;
  bucket_requests(
      requests, grids.size() * npoints,
      [&](const GatherRequest& r) {
        return static_cast<std::size_t>(class_of[static_cast<std::size_t>(r.z)]) * npoints +
               r.point;
      },
      count, offset, order);
  std::uint64_t walks = 0;
  for (std::size_t key = 0; key + 1 < offset.size(); ++key) {
    if (offset[key] == offset[key + 1]) continue;
    targets.clear();
    for (std::size_t m = offset[key]; m < offset[key + 1]; ++m) targets.push_back(target(order[m]));
    walk(grids[key / npoints]->compressed(), xs.data() + (key % npoints) * d,
         std::span<const kernels::WalkTarget>(targets));
    ++walks;
  }
  return walks;
}

}  // namespace

void AsgPolicy::evaluate_gather(std::span<const GatherRequest> requests,
                                std::span<const double> xs, std::size_t npoints,
                                std::span<double> out, std::size_t out_stride) const {
  if (requests.empty() || npoints == 0) return;
  gathers_.fetch_add(1, std::memory_order_relaxed);
  gathered_requests_.fetch_add(requests.size(), std::memory_order_relaxed);

  const std::size_t d = xs.size() / npoints;
  const auto nd = static_cast<std::size_t>(ndofs_);
  const std::size_t Ns = grids_.size();

  // Scratch is thread_local — this runs inside every Newton residual
  // evaluation of every worker.
  thread_local std::vector<std::size_t> count, offset, order;
  thread_local std::vector<double> xbuf, vbuf;

  // Single-shock fast path (ROADMAP item): when every request targets one
  // shock there is nothing to bucket, and when the requests additionally
  // walk the coordinate rows in identity order into a contiguous output the
  // whole call is ONE evaluate_batch with zero staging/scatter copies.
  // Results stay bit-identical to the general path: the same rows reach the
  // same kernel in the same order, and the general path's staging copies
  // are bitwise.
  const std::int32_t z0 = requests[0].z;
  bool single_shock = true;
  bool identity_rows = requests.size() <= npoints;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    single_shock = single_shock && requests[i].z == z0;
    identity_rows = identity_rows && requests[i].point == i;
    if (!single_shock) break;
  }
  if (single_shock) {
    fastpath_gathers_.fetch_add(1, std::memory_order_relaxed);
    walks_.fetch_add(requests.size(), std::memory_order_relaxed);
    const std::size_t n = requests.size();
    const double* xin = xs.data();
    if (!identity_rows) {
      xbuf.resize(n * d);
      for (std::size_t k = 0; k < n; ++k)
        std::copy_n(xs.data() + static_cast<std::size_t>(requests[k].point) * d, d,
                    xbuf.begin() + static_cast<std::ptrdiff_t>(k * d));
      xin = xbuf.data();
    }
    if (out_stride == nd) {
      evaluate_batch(z0, std::span<const double>(xin, n * d), out.first(n * nd), n);
    } else {
      vbuf.resize(n * nd);
      evaluate_batch(z0, std::span<const double>(xin, n * d), vbuf, n);
      for (std::size_t k = 0; k < n; ++k)
        std::copy_n(vbuf.begin() + static_cast<std::ptrdiff_t>(k * nd), nd,
                    out.begin() + static_cast<std::ptrdiff_t>(k * out_stride));
    }
    return;
  }

  // Class path: rows repeat (the successor-shock pattern), so shocks sharing
  // a point set share each row's walk. The shared walk is the x86 kernel's
  // arithmetic and runs on the CPU, hence only without a device and on x86
  // grids (DESIGN.md, "Shock classes").
  if (requests.size() > npoints && dispatcher_ == nullptr && x86_grids_) {
    const std::uint64_t walks = walk_classes(
        requests, xs, npoints, class_of_, grids_,
        [&](std::size_t i) {
          return kernels::WalkTarget{
              grids_[static_cast<std::size_t>(requests[i].z)]->compressed().surplus.data(),
              out.data() + i * out_stride};
        },
        kernels::evaluate_shared);
    walks_.fetch_add(walks, std::memory_order_relaxed);
    return;
  }

  walks_.fetch_add(requests.size(), std::memory_order_relaxed);
  bucket_requests(
      requests, Ns, [](const GatherRequest& r) { return static_cast<std::size_t>(r.z); }, count,
      offset, order);

  // One evaluate_batch per populated shock: the bucket's coordinate rows are
  // staged contiguously, drained through the batch entry point (and with an
  // attached device, the ticketed offload pipeline), and the resulting rows
  // scattered back to each request's out slot. Staging copies are bitwise,
  // so the evaluate() bit-identity contract survives the round trip.
  for (std::size_t z = 0; z < Ns; ++z) {
    const std::size_t n = offset[z + 1] - offset[z];
    if (n == 0) continue;
    xbuf.resize(n * d);
    vbuf.resize(n * nd);
    for (std::size_t k = 0; k < n; ++k) {
      const GatherRequest& r = requests[order[offset[z] + k]];
      std::copy_n(xs.data() + static_cast<std::size_t>(r.point) * d, d, xbuf.begin() + static_cast<std::ptrdiff_t>(k * d));
    }
    evaluate_batch(static_cast<int>(z), xbuf, vbuf, n);
    for (std::size_t k = 0; k < n; ++k)
      std::copy_n(vbuf.begin() + static_cast<std::ptrdiff_t>(k * nd), nd,
                  out.begin() + static_cast<std::ptrdiff_t>(order[offset[z] + k] * out_stride));
  }
}

void AsgPolicy::evaluate_gather_with_gradient(std::span<const GatherRequest> requests,
                                              std::span<const double> xs, std::size_t npoints,
                                              std::span<double> values, std::size_t value_stride,
                                              std::span<double> grads,
                                              std::size_t grad_stride) const {
  if (requests.empty() || npoints == 0) return;
  gradient_gathers_.fetch_add(1, std::memory_order_relaxed);
  gradient_requests_.fetch_add(requests.size(), std::memory_order_relaxed);

  // Always the class path: the gradient walk is the x86 arithmetic for every
  // kernel tier and never uses the device, so one walk per (row, class)
  // serves any request set.
  const std::uint64_t walks = walk_classes(
      requests, xs, npoints, class_of_, grids_,
      [&](std::size_t i) {
        return kernels::WalkTarget{
            grids_[static_cast<std::size_t>(requests[i].z)]->compressed().surplus.data(),
            values.data() + i * value_stride, grads.data() + i * grad_stride};
      },
      kernels::evaluate_shared_with_gradient);
  walks_.fetch_add(walks, std::memory_order_relaxed);
}

std::uint32_t AsgPolicy::total_points() const {
  std::uint32_t total = 0;
  for (const auto& g : grids_) total += g->num_points();
  return total;
}

std::vector<std::uint32_t> AsgPolicy::points_per_shock() const {
  std::vector<std::uint32_t> out;
  out.reserve(grids_.size());
  for (const auto& g : grids_) out.push_back(g->num_points());
  return out;
}

void AsgPolicy::attach_device(
    std::vector<std::unique_ptr<kernels::InterpolationKernel>> device_kernels,
    parallel::DispatcherOptions options) {
  if (device_kernels.size() != grids_.size())
    throw std::invalid_argument("attach_device: one kernel per shock required");
  device_kernels_ = std::move(device_kernels);
  dispatcher_ = std::make_unique<parallel::DeviceDispatcher>(options);
}

void AsgPolicy::attach_default_device(kernels::KernelKind kind,
                                      parallel::DispatcherOptions options) {
  std::vector<std::unique_ptr<kernels::InterpolationKernel>> dev;
  dev.reserve(grids_.size());
  for (const auto& g : grids_) dev.push_back(kernels::make_kernel(kind, &g->dense(), &g->compressed()));
  attach_device(std::move(dev), options);
}

parallel::DispatcherStats AsgPolicy::device_stats() const {
  return dispatcher_ ? dispatcher_->stats() : parallel::DispatcherStats{};
}

}  // namespace hddm::core
