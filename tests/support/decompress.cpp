#include "support/decompress.hpp"

#include <algorithm>
#include <cstddef>
#include <cstdint>

namespace hddm::core {

sg::LevelIndex unmap_pair(RemappedPair rp) {
  if (rp.is_zero()) return sg::kRootPair;
  const auto l = static_cast<sg::level_t>((rp.l + 2) / 2);
  if (l == 2) return {l, rp.i - 1};
  return {l, rp.i + 1};
}

sg::DenseGridData decompress(const CompressedGridData& compressed) {
  sg::DenseGridData out;
  out.dim = compressed.dim;
  out.ndofs = compressed.ndofs;
  out.nno = compressed.nno;
  out.pairs.assign(static_cast<std::size_t>(compressed.nno) * compressed.dim, sg::kRootPair);
  out.surplus.assign(static_cast<std::size_t>(compressed.nno) * compressed.ndofs, 0.0);

  for (std::uint32_t newp = 0; newp < compressed.nno; ++newp) {
    const std::uint32_t oldp = compressed.order[newp];
    sg::LevelIndex* row = out.pairs.data() + static_cast<std::size_t>(oldp) * compressed.dim;
    const std::uint32_t* chain = compressed.chain_row(newp);
    for (int f = 0; f < compressed.nfreq && chain[f] != 0; ++f) {
      const XpsEntry& e = compressed.xps[chain[f]];
      row[e.j] = sg::LevelIndex{e.l, e.i};
    }
    std::copy_n(compressed.surplus_row(newp), compressed.ndofs, out.surplus_row(oldp));
  }
  return out;
}

}  // namespace hddm::core
