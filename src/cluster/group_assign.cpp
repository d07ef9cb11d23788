#include "cluster/group_assign.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace hddm::cluster {

std::vector<int> proportional_group_sizes(const std::vector<std::uint64_t>& workload, int nranks) {
  const auto n = static_cast<int>(workload.size());
  if (n == 0) throw std::invalid_argument("proportional_group_sizes: empty workload");
  if (nranks < 1) throw std::invalid_argument("proportional_group_sizes: need at least one rank");

  const std::uint64_t total =
      std::accumulate(workload.begin(), workload.end(), std::uint64_t{0});
  std::vector<int> sizes(static_cast<std::size_t>(n), 0);
  if (total == 0) {
    // Degenerate: spread evenly.
    for (int z = 0; z < n; ++z) sizes[static_cast<std::size_t>(z)] = nranks / n + (z < nranks % n);
    return sizes;
  }

  // Integer floor shares + largest remainders.
  std::vector<double> remainder(static_cast<std::size_t>(n));
  int assigned = 0;
  for (int z = 0; z < n; ++z) {
    const double share = static_cast<double>(nranks) *
                         (static_cast<double>(workload[static_cast<std::size_t>(z)]) /
                          static_cast<double>(total));
    sizes[static_cast<std::size_t>(z)] = static_cast<int>(share);
    remainder[static_cast<std::size_t>(z)] = share - static_cast<double>(sizes[static_cast<std::size_t>(z)]);
    assigned += sizes[static_cast<std::size_t>(z)];
  }
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&remainder](int a, int b) {
    return remainder[static_cast<std::size_t>(a)] > remainder[static_cast<std::size_t>(b)];
  });
  for (int k = 0; assigned < nranks; ++k) {
    ++sizes[static_cast<std::size_t>(order[static_cast<std::size_t>(k % n)])];
    ++assigned;
  }

  // Nonempty states must keep at least one rank when there are enough ranks;
  // steal from the largest group.
  if (nranks >= n) {
    for (int z = 0; z < n; ++z) {
      if (workload[static_cast<std::size_t>(z)] > 0 && sizes[static_cast<std::size_t>(z)] == 0) {
        const auto big = std::max_element(sizes.begin(), sizes.end());
        if (*big > 1) {
          --*big;
          ++sizes[static_cast<std::size_t>(z)];
        }
      }
    }
  }
  return sizes;
}

std::vector<int> rank_colors(const std::vector<int>& group_sizes) {
  std::vector<int> colors;
  for (int z = 0; z < static_cast<int>(group_sizes.size()); ++z)
    colors.insert(colors.end(), static_cast<std::size_t>(group_sizes[static_cast<std::size_t>(z)]),
                  z);
  return colors;
}

}  // namespace hddm::cluster
