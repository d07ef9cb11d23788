#include "simgpu/device.hpp"

#include <algorithm>

namespace hddm::simgpu {

void Device::launch(std::uint32_t grid_dim, std::uint32_t block_dim, std::size_t shared_bytes,
                    const std::vector<Phase>& phases) {
  if (grid_dim == 0 || block_dim == 0)
    throw std::invalid_argument("Device::launch: empty grid or block");
  if (shared_bytes > props_.shared_mem_per_block)
    throw std::invalid_argument("Device::launch: shared memory request exceeds device limit");

  launches_.fetch_add(1, std::memory_order_relaxed);
  blocks_.fetch_add(grid_dim, std::memory_order_relaxed);
  thread_invocations_.fetch_add(static_cast<std::uint64_t>(grid_dim) * block_dim * phases.size(),
                                std::memory_order_relaxed);

  std::vector<std::byte> shared(shared_bytes);
  ThreadCtx ctx;
  ctx.grid_dim = grid_dim;
  ctx.block_dim = block_dim;
  ctx.shared = shared.data();
  ctx.shared_bytes = shared_bytes;

  for (std::uint32_t b = 0; b < grid_dim; ++b) {
    ctx.block_idx = b;
    std::fill(shared.begin(), shared.end(), std::byte{0});
    // Phase-by-phase execution: the implicit barrier between phases models
    // __syncthreads().
    for (const Phase& phase : phases) {
      for (std::uint32_t t = 0; t < block_dim; ++t) {
        ctx.thread_idx = t;
        phase(ctx);
      }
    }
  }
}

}  // namespace hddm::simgpu
