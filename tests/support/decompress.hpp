// Inverses of the Sec. IV-B compression pipeline — test oracles
// (hddm_test_support): no solve or serve path maps a compressed grid back
// into the dense layout, but the round-trip tests need to.
#pragma once

#include "core/compression.hpp"
#include "sparse_grid/dense_format.hpp"

namespace hddm::core {

/// Inverse of remap_pair.
sg::LevelIndex unmap_pair(RemappedPair rp);

/// Inverse of compress(): reconstructs the dense ("gold") grid — multi-index
/// pairs from the chains (dimensions absent from a chain are root pairs) and
/// surplus rows permuted back through `order` to the original point order.
/// compress() is lossless, so decompress(compress(g)) reproduces g exactly
/// (bit-identical pairs and surpluses); the round-trip property test relies
/// on this to prove the compressed kernels see the same interpolant.
sg::DenseGridData decompress(const CompressedGridData& compressed);

}  // namespace hddm::core
