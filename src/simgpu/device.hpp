// Software GPU execution model — the CUDA substitute (see DESIGN.md).
//
// Reproduces the execution semantics the paper's CUDA kernel relies on:
// a grid of thread blocks, per-block shared memory (into which the kernel
// stages the xpv factor array — 48 KB on the P100), and barrier-synchronized
// phases inside a block. Kernels are expressed as a sequence of *phases*;
// all threads of a block complete phase k before any runs phase k+1, which
// models __syncthreads() for kernels whose synchronization points are
// statically known (ours are).
//
// Blocks execute on the host — sequentially by default, or spread over a
// caller-provided worker function. Launch statistics (blocks, threads,
// shared bytes) feed the analytic P100 timing model in perf_model.hpp.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

namespace hddm::simgpu {

struct DeviceProperties {
  const char* name = "SimGPU (P100-like)";
  int sm_count = 56;                     ///< P100: 56 SMs
  int max_threads_per_sm = 2048;
  std::size_t shared_mem_per_block = 48 * 1024;  ///< 48 KB (Sec. IV-B)
  int warp_size = 32;
  double fp64_tflops = 4.7;              ///< P100 peak FP64
  double mem_bandwidth_gbps = 732.0;     ///< P100 HBM2
};

/// Per-thread kernel context (1-D grid and block, which is all the
/// interpolation kernel needs).
struct ThreadCtx {
  std::uint32_t block_idx = 0;
  std::uint32_t thread_idx = 0;
  std::uint32_t grid_dim = 0;
  std::uint32_t block_dim = 0;
  std::byte* shared = nullptr;  ///< this block's shared memory
  std::size_t shared_bytes = 0;
};

/// One barrier-delimited kernel phase: invoked once per thread.
using Phase = std::function<void(const ThreadCtx&)>;

struct LaunchStats {
  std::uint64_t launches = 0;
  std::uint64_t blocks = 0;
  std::uint64_t thread_invocations = 0;
};

class Device {
 public:
  explicit Device(DeviceProperties props = {}) : props_(props) {}

  [[nodiscard]] const DeviceProperties& properties() const { return props_; }
  /// Snapshot of the launch counters. Launches may run concurrently (a
  /// const kernel owns a mutable Device and serves many threads), so the
  /// counters are relaxed atomics: exact totals, no ordering with the
  /// kernels' results.
  [[nodiscard]] LaunchStats stats() const {
    return {launches_.load(std::memory_order_relaxed), blocks_.load(std::memory_order_relaxed),
            thread_invocations_.load(std::memory_order_relaxed)};
  }
  void reset_stats() {
    launches_.store(0, std::memory_order_relaxed);
    blocks_.store(0, std::memory_order_relaxed);
    thread_invocations_.store(0, std::memory_order_relaxed);
  }

  /// Maximum number of blocks resident at once ("a single wave of blocks",
  /// Sec. V-A) for a given block size.
  [[nodiscard]] std::uint32_t single_wave_blocks(std::uint32_t block_dim) const {
    if (block_dim == 0) throw std::invalid_argument("block_dim must be positive");
    const auto per_sm = static_cast<std::uint32_t>(props_.max_threads_per_sm) / block_dim;
    return std::max<std::uint32_t>(1, per_sm) * static_cast<std::uint32_t>(props_.sm_count);
  }

  /// Launches a phase-structured kernel. Shared memory is allocated per
  /// block and zero-initialized before phase 0.
  void launch(std::uint32_t grid_dim, std::uint32_t block_dim, std::size_t shared_bytes,
              const std::vector<Phase>& phases);

 private:
  DeviceProperties props_;
  std::atomic<std::uint64_t> launches_{0};
  std::atomic<std::uint64_t> blocks_{0};
  std::atomic<std::uint64_t> thread_invocations_{0};
};

}  // namespace hddm::simgpu
