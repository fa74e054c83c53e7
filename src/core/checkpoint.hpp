// Versioned, checksummed binary checkpoints — the crash-safety sibling of
// the CSV serialization module.
//
// The fleet-controller direction (ROADMAP) multiplexes thousands of
// long-lived solver sessions; those sessions must survive a process
// restart.  This header defines the container every snapshot()/restore()
// pair in the library speaks:
//
//   envelope  = magic ─ format version ─ payload kind ─ payload size ─
//               CRC-32 of the payload ─ payload bytes (little-endian,
//               no trailing bytes)
//
// The reader validates the whole envelope before a single payload byte is
// interpreted, so a truncated, bit-flipped, or mislabeled checkpoint is
// rejected with a *typed* error — never undefined behaviour:
//
//   CheckpointFormatError     bad magic / unsupported version / wrong kind /
//                             truncation / trailing bytes / invalid field
//   CheckpointCorruptionError checksum mismatch (payload bit rot)
//   CheckpointMismatchError   a valid checkpoint restored onto the wrong
//                             target (different m, beta, or session shape)
//
// Doubles are serialized as their IEEE-754 bit patterns, so a restore is
// bit-exact: a session restored at slot t continues bitwise-identically to
// the uninterrupted run (the kill-and-resume property suite pins this).
// See DESIGN.md §10.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

namespace rs::core {

class CheckpointError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Structural rejection: the bytes are not a well-formed checkpoint of the
/// expected kind/version (truncation, bad magic, invalid decoded field).
class CheckpointFormatError : public CheckpointError {
 public:
  using CheckpointError::CheckpointError;
};

/// The envelope parses but the payload fails its checksum (bit corruption).
class CheckpointCorruptionError : public CheckpointError {
 public:
  using CheckpointError::CheckpointError;
};

/// A valid checkpoint restored onto an incompatible target (mismatched
/// m / beta / backend between the snapshot and the restoring session).
class CheckpointMismatchError : public CheckpointError {
 public:
  using CheckpointError::CheckpointError;
};

/// Current container format version; bumped on layout changes.  Readers
/// reject other versions (forward compatibility is explicit, not guessed).
inline constexpr std::uint32_t kCheckpointVersion = 1;

/// Payload kind tags: a checkpoint names what it snapshots, so restoring a
/// tracker checkpoint into an Lcp session is a format error, not a
/// misinterpretation.  A payload layout change within one kind takes a new
/// tag rather than a container version bump, so checkpoints of the other
/// kinds stay readable: kLegacyTrackerCheckpointKind is the two-label
/// tracker layout (Ĉ^L and Ĉ^U), still accepted by the tracker's restore;
/// kTrackerCheckpointKind carries Ĉ^L only.  kWindowedLcpCheckpointKind
/// is read-only legacy too: the former separate windowed LCP session wrote
/// it (the kLcpCheckpointKind layout plus the snapshotted m and beta), and
/// Lcp::restore still accepts it; every session now writes
/// kLcpCheckpointKind.
inline constexpr std::uint32_t kLegacyTrackerCheckpointKind = 0x01;
inline constexpr std::uint32_t kLcpCheckpointKind = 0x02;
inline constexpr std::uint32_t kWindowedLcpCheckpointKind = 0x03;
inline constexpr std::uint32_t kTenantCheckpointKind = 0x04;
inline constexpr std::uint32_t kTrackerCheckpointKind = 0x05;

/// CRC-32 (IEEE, reflected polynomial 0xEDB88320) of `bytes`.
std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept;

/// Accumulates a payload (little-endian scalars; doubles as IEEE-754 bit
/// patterns) and seals it into an enveloped checkpoint.
class CheckpointWriter {
 public:
  /// Reserves room for a typical payload up front (see checkpoint.cpp).
  CheckpointWriter();
  void u8(std::uint8_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void i32(std::int32_t v);
  void i64(std::int64_t v);
  void f64(double v);  // bit-exact, including infinities
  void bytes(std::span<const std::uint8_t> data);

  /// The enveloped checkpoint: header(kind, size, crc) + payload.  The
  /// writer may keep accumulating afterwards; seal() snapshots the current
  /// payload.
  std::vector<std::uint8_t> seal(std::uint32_t kind) const;

 private:
  std::vector<std::uint8_t> payload_;
};

/// Validates an envelope (magic, version, kind, size, checksum) up front,
/// then decodes payload fields; every read checks the remaining length and
/// finish() rejects unconsumed payload bytes, so no input can read out of
/// bounds or silently drop state.
class CheckpointReader {
 public:
  /// Throws CheckpointFormatError / CheckpointCorruptionError as described
  /// in the header comment.
  CheckpointReader(std::span<const std::uint8_t> data,
                   std::uint32_t expected_kind);

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  std::int32_t i32();
  std::int64_t i64();
  double f64();
  std::vector<std::uint8_t> bytes(std::size_t n);

  std::size_t remaining() const noexcept { return payload_.size() - pos_; }

  /// Requires the payload to be fully consumed (trailing payload bytes are
  /// a format error — they mean the producer and consumer disagree).
  void finish() const;

 private:
  void require(std::size_t n) const;

  std::span<const std::uint8_t> payload_;
  std::size_t pos_ = 0;
};

/// Peeks the payload kind of an enveloped checkpoint without validating the
/// checksum (for dispatch); throws CheckpointFormatError when even the
/// header is absent.
std::uint32_t checkpoint_kind(std::span<const std::uint8_t> data);

/// Envelope self-check (util/audit.hpp; DESIGN.md §13): re-parses a sealed
/// checkpoint through the validating reader — magic, version, kind, size,
/// CRC-32 — so every snapshot is proven restorable the moment it is
/// produced, not when a recovery first needs it.  Raises
/// rs::util::audit::AuditError("checkpoint-envelope-roundtrip", site)
/// wrapping the reader's typed complaint.  Always compiled; the RS_AUDIT
/// hook in CheckpointWriter::seal engages only under RIGHTSIZER_AUDIT.
void audit_envelope(std::span<const std::uint8_t> bytes, std::uint32_t kind,
                    const char* site);

/// Binary file helpers; throw std::runtime_error on I/O failure (and the
/// reader-side CheckpointErrors surface unchanged from the caller's parse).
///
/// Writes are crash-safe: the bytes land in a sibling temp file, are
/// flushed to stable storage (fsync where the platform has it), and only
/// then replace `path` via an atomic rename — a crash at any point leaves
/// either the previous complete checkpoint or a stray temp file, never a
/// truncated file under the checkpoint's name.  Concurrent writers of the
/// *same* path must serialize externally (CheckpointStore does).
void write_checkpoint_file(const std::string& path,
                           std::span<const std::uint8_t> bytes);
std::vector<std::uint8_t> read_checkpoint_file(const std::string& path);

}  // namespace rs::core
