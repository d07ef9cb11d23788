#include "core/compression.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <stdexcept>
#include <tuple>

namespace hddm::core {

RemappedPair remap_pair(sg::LevelIndex li) {
  if (li.l == 1) return {0, 0};
  // Fig. 3: l' = 2l - 2, i' = i - 1 (with the paper's 1-based level l). The
  // level-2 boundary pair (2, 0) remaps to (2, ~0): i=0 has no "i-1"; the
  // paper's example grid uses (2,1),(2,3),... i.e. C++-style levels. With our
  // 1-based pairs the boundary points (2,0) and (2,2) remap to (2, 0-1) —
  // to keep the pair nonzero and the mapping bijective we remap i' = i + 1
  // for the l = 2 boundary level and i' = i - 1 for l > 2 (odd i >= 1).
  if (li.l == 2) return {2, li.i + 1};
  return {static_cast<std::uint32_t>(2 * li.l - 2), li.i - 1};
}

namespace {

struct XpsKey {
  std::uint32_t j;
  sg::level_t l;
  sg::index_t i;
  friend bool operator<(const XpsKey& a, const XpsKey& b) {
    return std::tie(a.j, a.l, a.i) < std::tie(b.j, b.l, b.i);
  }
};

}  // namespace

CompressedGridData compress(const sg::DenseGridData& dense, const CompressOptions& options) {
  CompressedGridData out;
  out.dim = dense.dim;
  out.ndofs = dense.ndofs;
  out.nno = dense.nno;

  const auto dim = static_cast<std::uint32_t>(dense.dim);

  // ---- Step 1: zero elimination (Fig. 3). Count zeros for the stats and
  // determine nfreq = max nonzero pairs per point (Sec. IV-B).
  std::size_t zero_pairs = 0;
  int nfreq = 0;
  for (std::uint32_t p = 0; p < dense.nno; ++p) {
    const auto mi = dense.point(p);
    int nz = 0;
    for (std::uint32_t t = 0; t < dim; ++t) nz += (mi[t].l != 1);
    zero_pairs += dim - static_cast<std::uint32_t>(nz);
    nfreq = std::max(nfreq, nz);
  }
  out.nfreq = nfreq;
  out.stats.xi_zero_fraction =
      dense.nno == 0 ? 0.0
                     : static_cast<double>(zero_pairs) / (static_cast<double>(dense.nno) * dim);

  // ---- Step 2+3: global unique-factor array xps. Slot 0 is the sentinel;
  // real entries are sorted by (dimension, level, index) so that factors of
  // the same dimension are contiguous in the xpv scratch.
  // Every nonzero pair also keeps a pointer to its map entry, in point order,
  // so step 4 reads the assigned slots without a second lookup.
  std::map<XpsKey, std::uint32_t> unique;  // key -> xps slot (assigned later)
  std::vector<const std::uint32_t*> pair_slots;
  pair_slots.reserve(static_cast<std::size_t>(dense.nno) * dim - zero_pairs);
  for (std::uint32_t p = 0; p < dense.nno; ++p) {
    const auto mi = dense.point(p);
    for (std::uint32_t t = 0; t < dim; ++t) {
      if (mi[t].l == 1) continue;
      pair_slots.push_back(&unique.emplace(XpsKey{t, mi[t].l, mi[t].i}, 0).first->second);
    }
  }
  out.xps.resize(unique.size() + 1);
  out.factors.resize(unique.size() + 1);  // slot 0 stays the unused sentinel
  {
    std::uint32_t slot = 1;
    for (auto& [key, value] : unique) {
      value = slot;
      out.xps[slot] = XpsEntry{key.j, key.l, key.i};
      // 2^(l-1) and i / 2^(l-1) are exact: the very doubles sg::hat_scale and
      // sg::point_coordinate return, without their ldexp calls.
      const auto scale = static_cast<double>(std::uint64_t{1} << (key.l - 1));
      out.factors[slot] = HatFactor{static_cast<double>(key.i) / scale, scale, key.j};
      ++slot;
    }
  }

  // ---- Step 4: per-point chains (Alg. 2) in ascending xps order, then the
  // point reordering: sort points lexicographically by their chain so points
  // sharing leading factors — the correspondences the transition matrices
  // T_freq encode — become adjacent, which also groups equal chain lengths.
  std::vector<std::uint32_t> chains(static_cast<std::size_t>(dense.nno) * std::max(nfreq, 1), 0);
  const std::uint32_t* const* next_slot = pair_slots.data();
  for (std::uint32_t p = 0; p < dense.nno; ++p) {
    const auto mi = dense.point(p);
    std::uint32_t* row = chains.data() + static_cast<std::size_t>(p) * std::max(nfreq, 1);
    int slot = 0;
    for (std::uint32_t t = 0; t < dim; ++t)
      if (mi[t].l != 1) row[slot++] = **next_slot++;
    std::sort(row, row + slot);
  }
  out.stats.chain_entries_used = static_cast<std::uint32_t>(pair_slots.size());

  out.order.resize(dense.nno);
  std::iota(out.order.begin(), out.order.end(), 0);
  if (nfreq > 0 && options.reorder_points) {
    std::stable_sort(out.order.begin(), out.order.end(),
                     [&chains, nfreq](std::uint32_t a, std::uint32_t b) {
                       const std::uint32_t* ra = chains.data() + static_cast<std::size_t>(a) * nfreq;
                       const std::uint32_t* rb = chains.data() + static_cast<std::size_t>(b) * nfreq;
                       return std::lexicographical_compare(ra, ra + nfreq, rb, rb + nfreq);
                     });
  }

  // Materialize reordered chains and surpluses, back to front so that each
  // point's skip row derives from its successor's, written one step before:
  // the successor starts a new prefix [0..f] once the two chains differ at or
  // before slot f, and otherwise shares p's prefix and its skip target.
  const auto stride = static_cast<std::size_t>(nfreq);
  out.chains.assign(static_cast<std::size_t>(dense.nno) * std::max(nfreq, 1), 0);
  out.skip.resize(static_cast<std::size_t>(dense.nno) * stride);
  out.surplus.assign(static_cast<std::size_t>(dense.nno) * dense.ndofs, 0.0);
  for (std::uint32_t newp = dense.nno; newp-- > 0;) {
    const std::uint32_t oldp = out.order[newp];
    std::uint32_t* row = out.chains.data() + newp * stride;
    std::uint32_t* skip = out.skip.data() + newp * stride;
    std::copy_n(chains.data() + oldp * stride, stride, row);
    std::copy_n(dense.surplus_row(oldp), dense.ndofs, out.surplus_row(newp));
    bool same_prefix = newp + 1 < dense.nno;
    for (std::size_t f = 0; f < stride; ++f) {
      same_prefix = same_prefix && row[f] == row[stride + f];
      skip[f] = same_prefix ? skip[stride + f] : newp + 1;
    }
  }

  out.stats.dense_bytes = static_cast<std::size_t>(dense.nno) * dim * sizeof(sg::LevelIndex);
  out.stats.compressed_bytes =
      out.xps.size() * sizeof(XpsEntry) + out.chains.size() * sizeof(std::uint32_t);
  return out;
}

void update_surpluses(CompressedGridData& grid, std::span<const double> dense_order_surplus) {
  if (dense_order_surplus.size() != static_cast<std::size_t>(grid.nno) * grid.ndofs)
    throw std::invalid_argument("update_surpluses: size mismatch");
  for (std::uint32_t newp = 0; newp < grid.nno; ++newp) {
    const std::uint32_t oldp = grid.order[newp];
    std::copy_n(dense_order_surplus.data() + static_cast<std::size_t>(oldp) * grid.ndofs,
                grid.ndofs, grid.surplus_row(newp));
  }
}

}  // namespace hddm::core
