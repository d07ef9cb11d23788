// Blocked parallel_for on top of the work-stealing pool (TBB-style).
#pragma once

#include <algorithm>
#include <cstddef>
#include <exception>
#include <mutex>

#include "parallel/work_stealing_pool.hpp"

namespace hddm::parallel {

/// Runs body(i) for i in [begin, end) across the pool, splitting the range
/// into blocks of `grain` indices. The calling thread runs the first block
/// itself and then waits on the loop's own task group, running tasks
/// meanwhile, so a body may call parallel_for again (nesting). The first
/// exception thrown by any block is rethrown on the calling thread after all
/// blocks finish.
template <class Body>
void parallel_for(WorkStealingPool& pool, std::size_t begin, std::size_t end, const Body& body,
                  std::size_t grain = 1) {
  if (begin >= end) return;
  struct Loop {
    const Body& body;
    std::size_t end;
    std::size_t grain;
    std::exception_ptr first_error;
    std::mutex error_mu;
    void run(std::size_t block) {
      try {
        for (std::size_t i = block; i < std::min(end, block + grain); ++i) body(i);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!first_error) first_error = std::current_exception();
      }
    }
  } loop{body, end, std::clamp<std::size_t>(grain, 1, end - begin), nullptr, {}};

  // Each task is two words, so std::function stores it without allocating.
  TaskGroup group;
  for (std::size_t block = begin + loop.grain; block < end; block += loop.grain)
    pool.submit([&loop, block] { loop.run(block); }, group);
  loop.run(begin);
  pool.wait(group);
  if (loop.first_error) std::rethrow_exception(loop.first_error);
}

}  // namespace hddm::parallel
