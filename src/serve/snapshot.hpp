// Immutable, versioned policy snapshots — ROADMAP item 1's persistence leg.
//
// A converged core::AsgPolicy used to die with the process; a snapshot makes
// it a durable, self-describing artifact a serving front end (PolicyServer,
// the hddm-serve example) can load on any host, and the file a time
// iteration restarts from (Sec. V-C). Around the per-shock dense-grid blocks
// a snapshot adds framing for long-lived artifacts — format version for skew
// detection, a CRC over the whole payload, and provenance metadata (model,
// params, git SHA, ISA tier) — and validates all of it on load with typed
// errors.
//
// File layout (little-endian, no padding):
//
//   +--------------------------------------------------------------+
//   | magic "HDDMSNAP" (8 bytes)                                   |
//   | u32 format_version (= kSnapshotFormatVersion)                |
//   | u64 payload_bytes                                            |
//   | u32 crc32(payload)   (IEEE 802.3, util::crc32)               |
//   +----------------------- payload ------------------------------+
//   | meta block: 4 length-prefixed strings (u32 len + bytes each) |
//   |   model, params, git_sha, isa_tier                           |
//   |   u64 created_unix (0 = unset)                               |
//   | policy block:                                                |
//   |   u32 ndofs | u32 nshocks                                    |
//   |   nshocks x dense grid block (sg::append_dense_grid_bytes:   |
//   |     u32 dim | u32 ndofs | u32 nno | pairs | f64 surpluses)   |
//   +--------------------------------------------------------------+
//
// Every validation failure is a typed SnapshotError, never UB: truncation
// (including a zero-length file) -> Truncated, wrong magic -> BadMagic,
// version mismatch -> VersionSkew, any payload bit flip -> ChecksumMismatch,
// CRC-valid but structurally impossible payload -> CorruptPayload, OS-level
// failures -> IoError. The save path writes dense point order unchanged, so
// save -> load -> evaluate is bitwise identical to the source policy (the
// round-trip battery in tests/serve/).
//
// ISA-tier revalidation: save() records the policy's kernel tier (e.g.
// "x86", "avx2"); load() keeps that tier whenever kernels::kernel_supported
// says this host can execute it, so a loaded policy answers bit for bit like
// the one that was saved. Only an unknown tier name, or one this host cannot
// run (an "avx512" snapshot on AVX2 silicon), routes the loaded policy
// through the gold reference kernel — ULP-bounded against every tier (see
// the parity tests) — and sets LoadedSnapshot::isa_fallback.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

#include "core/policy.hpp"
#include "kernels/kernel_api.hpp"

namespace hddm::serve {

/// Current on-disk format revision. Bump on any layout change; load()
/// refuses other revisions with VersionSkew (no silent reinterpretation).
inline constexpr std::uint32_t kSnapshotFormatVersion = 1;

/// Reason a snapshot was rejected; SnapshotError::code() returns one.
enum class SnapshotErrc {
  IoError,           ///< open/read/write failed at the OS level
  Truncated,         ///< fewer bytes than the header declares (incl. empty file)
  BadMagic,          ///< first 8 bytes are not "HDDMSNAP"
  VersionSkew,       ///< format_version != kSnapshotFormatVersion
  ChecksumMismatch,  ///< payload CRC-32 does not match the header
  CorruptPayload,    ///< CRC passed but the payload is structurally invalid
};

/// Human-readable name of an error code ("truncated", "bad-magic", ...).
std::string_view snapshot_errc_name(SnapshotErrc code);

/// The one exception type every snapshot entry point throws.
class SnapshotError : public std::runtime_error {
 public:
  SnapshotError(SnapshotErrc code, const std::string& what)
      : std::runtime_error(what), code_(code) {}
  [[nodiscard]] SnapshotErrc code() const { return code_; }

 private:
  SnapshotErrc code_;
};

/// Provenance carried inside every snapshot.
struct SnapshotMeta {
  std::string model;    ///< e.g. "olg" / "irbc" / "synthetic"
  std::string params;   ///< free-form calibration description
  std::string git_sha;  ///< source revision; save() fills from the build when empty
  /// CPU kernel tier the policy used at save time (kernels::kernel_name of
  /// its KernelKind); save() fills from the policy when empty.
  std::string isa_tier;
  std::uint64_t created_unix = 0;  ///< caller-set wall-clock stamp; 0 = unset
};

/// A loaded snapshot: the reconstructed policy plus its recorded provenance
/// and the kernel tier load() actually chose after ISA revalidation.
struct LoadedSnapshot {
  std::shared_ptr<core::AsgPolicy> policy;
  SnapshotMeta meta;
  kernels::KernelKind kernel = kernels::KernelKind::Gold;
  /// True when the recorded ISA tier was unknown or not executable on this
  /// host and the policy was routed through the gold kernel.
  bool isa_fallback = false;
};

/// Serializes `policy` + `meta` (empty git_sha / isa_tier fields are filled
/// from the build info and the policy's kernel). Throws SnapshotError
/// (IoError) on stream failure.
void save_snapshot(const core::AsgPolicy& policy, SnapshotMeta meta, std::ostream& out);
void save_snapshot(const core::AsgPolicy& policy, SnapshotMeta meta, const std::string& path);

/// Parses, validates (magic, version, CRC, structure) and reconstructs a
/// snapshot. `force_kernel` overrides the ISA-revalidation choice (tests and
/// the gold-path parity battery pin it). Throws SnapshotError.
LoadedSnapshot load_snapshot(std::istream& in,
                             std::optional<kernels::KernelKind> force_kernel = std::nullopt);
LoadedSnapshot load_snapshot(const std::string& path,
                             std::optional<kernels::KernelKind> force_kernel = std::nullopt);

}  // namespace hddm::serve
