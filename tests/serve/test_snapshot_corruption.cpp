// Corruption rejection: every way a snapshot file can be damaged must map to
// the documented typed SnapshotError — truncation (including a zero-length
// file), flipped magic, bumped format version, any single payload bit flip
// (CRC), structurally-forged payloads — and never UB or a partial object.
// The ASan/UBSan CI leg runs this suite instrumented, so a leak on any
// rejection path (half-built grids, etc.) fails the build.
#include "serve/snapshot.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "sparse_grid/regular.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"

namespace hddm::serve {
namespace {

// Framing offsets of the v1 layout (see snapshot.hpp diagram).
constexpr std::size_t kMagicBytes = 8;
constexpr std::size_t kVersionOffset = kMagicBytes;                     // u32
constexpr std::size_t kPayloadSizeOffset = kVersionOffset + 4;          // u64
constexpr std::size_t kCrcOffset = kPayloadSizeOffset + 8;              // u32
constexpr std::size_t kHeaderBytes = kCrcOffset + 4;

std::shared_ptr<core::AsgPolicy> make_policy(int nshocks, int d, int level, int ndofs,
                                             std::uint64_t seed) {
  std::vector<std::unique_ptr<core::ShockGrid>> grids;
  util::Rng rng(seed);
  for (int z = 0; z < nshocks; ++z) {
    sg::GridStorage storage(d);
    sg::build_regular_grid(storage, level);
    std::vector<double> surpluses(static_cast<std::size_t>(storage.size()) * ndofs);
    for (auto& s : surpluses) s = rng.uniform(-2, 2);
    grids.push_back(std::make_unique<core::ShockGrid>(sg::make_dense_grid(storage, ndofs, surpluses),
                                                      kernels::KernelKind::X86));
  }
  return std::make_shared<core::AsgPolicy>(ndofs, std::move(grids));
}

std::string valid_snapshot_bytes() {
  static const std::string bytes = [] {
    const auto policy = make_policy(2, 3, 3, 4, 0xC0FFEE);
    SnapshotMeta meta;
    meta.model = "synthetic";
    meta.params = "corruption-battery";
    std::stringstream buffer;
    save_snapshot(*policy, meta, buffer);
    return buffer.str();
  }();
  return bytes;
}

/// Asserts that loading `bytes` throws SnapshotError with exactly `expected`.
void expect_rejected(const std::string& bytes, SnapshotErrc expected, const char* what) {
  std::stringstream in(bytes);
  try {
    (void)load_snapshot(in);
    FAIL() << what << ": corrupted snapshot was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), expected)
        << what << ": wrong error code — " << e.what() << " (got "
        << snapshot_errc_name(e.code()) << ", want " << snapshot_errc_name(expected) << ")";
  } catch (const std::exception& e) {
    FAIL() << what << ": threw untyped " << e.what();
  }
}

TEST(SnapshotCorruption, ValidBaselineLoads) {
  std::stringstream in(valid_snapshot_bytes());
  const LoadedSnapshot loaded = load_snapshot(in, kernels::KernelKind::X86);
  EXPECT_EQ(loaded.policy->num_shocks(), 2);
  EXPECT_EQ(loaded.meta.model, "synthetic");
}

TEST(SnapshotCorruption, ZeroLengthFile) {
  expect_rejected("", SnapshotErrc::Truncated, "zero-length file");
}

TEST(SnapshotCorruption, TruncatedEverywhere) {
  const std::string full = valid_snapshot_bytes();
  // Cut inside the magic, inside each header field, at the payload start,
  // mid-payload, and one byte short of complete.
  const std::size_t cuts[] = {1,
                              kMagicBytes - 1,
                              kVersionOffset + 2,
                              kPayloadSizeOffset + 3,
                              kCrcOffset + 1,
                              kHeaderBytes,
                              kHeaderBytes + (full.size() - kHeaderBytes) / 2,
                              full.size() - 1};
  for (const std::size_t cut : cuts)
    expect_rejected(full.substr(0, cut), SnapshotErrc::Truncated,
                    ("truncation at byte " + std::to_string(cut)).c_str());
}

TEST(SnapshotCorruption, FlippedMagic) {
  for (std::size_t byte = 0; byte < kMagicBytes; ++byte) {
    std::string bytes = valid_snapshot_bytes();
    bytes[byte] ^= 0x40;
    expect_rejected(bytes, SnapshotErrc::BadMagic,
                    ("magic flip at byte " + std::to_string(byte)).c_str());
  }
}

TEST(SnapshotCorruption, NotASnapshotAtAll) {
  expect_rejected("this is definitely not a policy snapshot, but it is long enough",
                  SnapshotErrc::BadMagic, "foreign file");
}

TEST(SnapshotCorruption, BumpedFormatVersion) {
  std::string bytes = valid_snapshot_bytes();
  bytes[kVersionOffset] = static_cast<char>(kSnapshotFormatVersion + 1);
  expect_rejected(bytes, SnapshotErrc::VersionSkew, "future format version");

  bytes[kVersionOffset] = 0;  // version 0 never existed either
  expect_rejected(bytes, SnapshotErrc::VersionSkew, "format version zero");
}

TEST(SnapshotCorruption, SingleBitPayloadFlipsTripTheCrc) {
  const std::string full = valid_snapshot_bytes();
  const std::size_t payload_size = full.size() - kHeaderBytes;
  // A deterministic scatter of single-bit flips across the whole payload:
  // metadata strings, policy header, pairs, and surpluses all covered.
  for (int k = 0; k < 32; ++k) {
    const std::size_t byte = kHeaderBytes + (payload_size * static_cast<std::size_t>(k)) / 32;
    const int bit = k % 8;
    std::string bytes = full;
    bytes[byte] = static_cast<char>(bytes[byte] ^ (1 << bit));
    expect_rejected(bytes, SnapshotErrc::ChecksumMismatch,
                    ("payload bit flip at byte " + std::to_string(byte)).c_str());
  }
}

TEST(SnapshotCorruption, CorruptedCrcFieldItself) {
  std::string bytes = valid_snapshot_bytes();
  bytes[kCrcOffset] ^= 0x01;
  expect_rejected(bytes, SnapshotErrc::ChecksumMismatch, "flipped stored CRC");
}

TEST(SnapshotCorruption, ForgedPayloadSizeIsTruncation) {
  // Header claims more payload than the file carries: the read comes up
  // short before any CRC or structure check — a truncation, not UB.
  std::string bytes = valid_snapshot_bytes();
  bytes[kPayloadSizeOffset] = static_cast<char>(bytes[kPayloadSizeOffset] + 1);
  expect_rejected(bytes, SnapshotErrc::Truncated, "payload size forged upward");
}

TEST(SnapshotCorruption, ConsistentlyForgedStructureIsCorruptPayload) {
  // Adversarial (not random-bit-rot) damage: rewrite the payload so the CRC
  // is *valid* but the structure is impossible — ndofs 0. The parser must
  // reach its structural checks and emit CorruptPayload.
  const auto policy = make_policy(1, 2, 2, 3, 7);
  const SnapshotMeta meta{"x", "y", "z", "x86", 0};
  std::stringstream buffer;
  save_snapshot(*policy, meta, buffer);
  std::string bytes = buffer.str();

  // Payload layout: 4 length-prefixed strings (1+1+1+3 chars), u64 stamp,
  // then u32 ndofs. Zero the ndofs field and restamp the CRC.
  const std::size_t meta_bytes = (4 + 1) + (4 + 1) + (4 + 1) + (4 + 3) + 8;
  const std::size_t ndofs_offset = kHeaderBytes + meta_bytes;
  for (int i = 0; i < 4; ++i) bytes[ndofs_offset + static_cast<std::size_t>(i)] = 0;
  const std::uint32_t crc = util::crc32(bytes.data() + kHeaderBytes, bytes.size() - kHeaderBytes);
  for (int i = 0; i < 4; ++i)
    bytes[kCrcOffset + static_cast<std::size_t>(i)] = static_cast<char>((crc >> (8 * i)) & 0xFF);

  expect_rejected(bytes, SnapshotErrc::CorruptPayload, "CRC-consistent forged ndofs");
}

TEST(SnapshotCorruption, MissingFileIsIoError) {
  try {
    (void)load_snapshot(std::string("/nonexistent/dir/policy.hsnap"));
    FAIL() << "missing file was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrc::IoError);
  }
}

TEST(SnapshotCorruption, UnwritablePathIsIoError) {
  const auto policy = make_policy(1, 2, 2, 2, 1);
  try {
    save_snapshot(*policy, {}, std::string("/nonexistent/dir/policy.hsnap"));
    FAIL() << "unwritable path was accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.code(), SnapshotErrc::IoError);
  }
}

}  // namespace
}  // namespace hddm::serve
