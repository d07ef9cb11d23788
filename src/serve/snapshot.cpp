#include "serve/snapshot.hpp"

#include <cstring>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <vector>

#include "benchlib/sysinfo.hpp"
#include "sparse_grid/dense_format.hpp"
#include "util/crc32.hpp"

namespace hddm::serve {

namespace {

constexpr char kMagic[8] = {'H', 'D', 'D', 'M', 'S', 'N', 'A', 'P'};

// Plausibility caps: a forged-but-CRC-valid header must not drive
// allocation.
constexpr std::uint32_t kMaxShocks = 1u << 20;
constexpr std::uint32_t kMaxMetaString = 1u << 20;

[[noreturn]] void fail(SnapshotErrc code, const std::string& what) {
  throw SnapshotError(code, "snapshot: " + what + " [" +
                                std::string(snapshot_errc_name(code)) + "]");
}

template <class T>
void append_pod(std::vector<unsigned char>& out, const T& value) {
  const auto* p = reinterpret_cast<const unsigned char*>(&value);
  out.insert(out.end(), p, p + sizeof(T));
}

template <class T>
T read_pod(std::span<const unsigned char> bytes, std::size_t& offset) {
  if (bytes.size() - offset < sizeof(T)) fail(SnapshotErrc::CorruptPayload, "payload underrun");
  T value;
  std::memcpy(&value, bytes.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

void append_string(std::vector<unsigned char>& out, const std::string& s) {
  append_pod<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

std::string read_string(std::span<const unsigned char> bytes, std::size_t& offset) {
  const auto len = read_pod<std::uint32_t>(bytes, offset);
  if (len > kMaxMetaString) fail(SnapshotErrc::CorruptPayload, "implausible metadata string");
  if (bytes.size() - offset < len) fail(SnapshotErrc::CorruptPayload, "payload underrun");
  std::string s(reinterpret_cast<const char*>(bytes.data() + offset), len);
  offset += len;
  return s;
}

/// Maps a recorded ISA-tier name back to its KernelKind; nullopt for
/// unknown/foreign strings (treated as a tier mismatch, not an error — old
/// snapshots must stay loadable when tiers are renamed).
std::optional<kernels::KernelKind> kernel_kind_from_name(std::string_view name) {
  for (const kernels::KernelKind kind : kernels::kAllKernelKinds)
    if (kernels::kernel_name(kind) == name) return kind;
  return std::nullopt;
}

}  // namespace

std::string_view snapshot_errc_name(SnapshotErrc code) {
  switch (code) {
    case SnapshotErrc::IoError: return "io-error";
    case SnapshotErrc::Truncated: return "truncated";
    case SnapshotErrc::BadMagic: return "bad-magic";
    case SnapshotErrc::VersionSkew: return "version-skew";
    case SnapshotErrc::ChecksumMismatch: return "checksum-mismatch";
    case SnapshotErrc::CorruptPayload: return "corrupt-payload";
  }
  return "unknown";
}

void save_snapshot(const core::AsgPolicy& policy, SnapshotMeta meta, std::ostream& out) {
  if (meta.git_sha.empty()) meta.git_sha = benchlib::build_info().git_sha;
  if (meta.isa_tier.empty()) meta.isa_tier = std::string(kernels::kernel_name(policy.kernel_kind()));

  std::vector<unsigned char> payload;
  append_string(payload, meta.model);
  append_string(payload, meta.params);
  append_string(payload, meta.git_sha);
  append_string(payload, meta.isa_tier);
  append_pod<std::uint64_t>(payload, meta.created_unix);

  append_pod<std::uint32_t>(payload, static_cast<std::uint32_t>(policy.ndofs()));
  append_pod<std::uint32_t>(payload, static_cast<std::uint32_t>(policy.num_shocks()));
  for (int z = 0; z < policy.num_shocks(); ++z)
    sg::append_dense_grid_bytes(policy.grid(z).dense(), payload);

  out.write(kMagic, sizeof(kMagic));
  const std::uint32_t version = kSnapshotFormatVersion;
  out.write(reinterpret_cast<const char*>(&version), sizeof(version));
  const auto payload_bytes = static_cast<std::uint64_t>(payload.size());
  out.write(reinterpret_cast<const char*>(&payload_bytes), sizeof(payload_bytes));
  const std::uint32_t crc = util::crc32(payload.data(), payload.size());
  out.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  out.write(reinterpret_cast<const char*>(payload.data()),
            static_cast<std::streamsize>(payload.size()));
  if (!out) fail(SnapshotErrc::IoError, "stream write failed");
}

void save_snapshot(const core::AsgPolicy& policy, SnapshotMeta meta, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) fail(SnapshotErrc::IoError, "cannot open " + path + " for writing");
  save_snapshot(policy, std::move(meta), out);
}

LoadedSnapshot load_snapshot(std::istream& in, std::optional<kernels::KernelKind> force_kernel) {
  // ---- framing ----
  char magic[sizeof(kMagic)];
  in.read(magic, sizeof(magic));
  if (in.gcount() == 0) fail(SnapshotErrc::Truncated, "empty stream");
  if (in.gcount() != static_cast<std::streamsize>(sizeof(magic)))
    fail(SnapshotErrc::Truncated, "header shorter than the magic");
  if (std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    fail(SnapshotErrc::BadMagic, "not an hddm policy snapshot");

  std::uint32_t version = 0;
  in.read(reinterpret_cast<char*>(&version), sizeof(version));
  if (!in) fail(SnapshotErrc::Truncated, "header ends before the format version");
  if (version != kSnapshotFormatVersion)
    fail(SnapshotErrc::VersionSkew, "format version " + std::to_string(version) +
                                        ", this build reads version " +
                                        std::to_string(kSnapshotFormatVersion));

  std::uint64_t payload_bytes = 0;
  std::uint32_t crc_expected = 0;
  in.read(reinterpret_cast<char*>(&payload_bytes), sizeof(payload_bytes));
  in.read(reinterpret_cast<char*>(&crc_expected), sizeof(crc_expected));
  if (!in) fail(SnapshotErrc::Truncated, "header ends before the payload frame");
  if (payload_bytes > std::numeric_limits<std::size_t>::max() / 2)
    fail(SnapshotErrc::CorruptPayload, "implausible payload size");

  std::vector<unsigned char> payload(static_cast<std::size_t>(payload_bytes));
  in.read(reinterpret_cast<char*>(payload.data()),
          static_cast<std::streamsize>(payload.size()));
  if (in.gcount() != static_cast<std::streamsize>(payload.size()))
    fail(SnapshotErrc::Truncated, "payload shorter than the header declares");

  if (util::crc32(payload.data(), payload.size()) != crc_expected)
    fail(SnapshotErrc::ChecksumMismatch, "payload CRC-32 mismatch");

  // ---- payload (CRC-verified; remaining checks catch forged structure) ----
  LoadedSnapshot loaded;
  std::size_t offset = 0;
  loaded.meta.model = read_string(payload, offset);
  loaded.meta.params = read_string(payload, offset);
  loaded.meta.git_sha = read_string(payload, offset);
  loaded.meta.isa_tier = read_string(payload, offset);
  loaded.meta.created_unix = read_pod<std::uint64_t>(payload, offset);

  const auto ndofs = read_pod<std::uint32_t>(payload, offset);
  const auto nshocks = read_pod<std::uint32_t>(payload, offset);
  if (ndofs == 0 || nshocks == 0 || nshocks > kMaxShocks)
    fail(SnapshotErrc::CorruptPayload, "implausible policy header");

  // ---- ISA revalidation: keep the recorded tier when this host can run
  // it; an unknown or unexecutable tier must not dictate this host's kernel.
  const std::optional<kernels::KernelKind> recorded =
      kernel_kind_from_name(loaded.meta.isa_tier);
  if (force_kernel.has_value()) {
    loaded.kernel = *force_kernel;
  } else if (recorded.has_value() && kernels::kernel_supported(*recorded)) {
    loaded.kernel = *recorded;
  } else {
    loaded.kernel = kernels::KernelKind::Gold;
    loaded.isa_fallback = true;
  }

  std::vector<std::unique_ptr<core::ShockGrid>> grids;
  grids.reserve(nshocks);
  for (std::uint32_t z = 0; z < nshocks; ++z) {
    sg::DenseGridData dense;
    try {
      dense = sg::parse_dense_grid_bytes(payload, offset);
    } catch (const std::runtime_error& e) {
      fail(SnapshotErrc::CorruptPayload, e.what());
    }
    if (dense.ndofs != static_cast<int>(ndofs))
      fail(SnapshotErrc::CorruptPayload, "shock grid ndofs mismatch");
    try {
      grids.push_back(std::make_unique<core::ShockGrid>(std::move(dense), loaded.kernel));
    } catch (const std::invalid_argument& e) {
      fail(SnapshotErrc::CorruptPayload, e.what());
    }
  }
  if (offset != payload.size())
    fail(SnapshotErrc::CorruptPayload, "trailing bytes after the last shock grid");

  loaded.policy = std::make_shared<core::AsgPolicy>(static_cast<int>(ndofs), std::move(grids));
  return loaded;
}

LoadedSnapshot load_snapshot(const std::string& path,
                             std::optional<kernels::KernelKind> force_kernel) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail(SnapshotErrc::IoError, "cannot open " + path);
  return load_snapshot(in, force_kernel);
}

}  // namespace hddm::serve
