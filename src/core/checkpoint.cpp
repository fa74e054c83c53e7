#include "core/checkpoint.hpp"

#include <array>
#include <bit>
#include <cstdio>
#include <fstream>
#include <iterator>

#include "util/audit.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace rs::core {

namespace {

// "RSCK" little-endian.
constexpr std::uint32_t kMagic = 0x4B435352u;
// magic + version + kind + payload_size + crc32.
constexpr std::size_t kHeaderSize = 4 + 4 + 4 + 8 + 4;
// Initial payload capacity.  A fleet tenant seal nests three envelopes of
// about 200 bytes each (tenant, Lcp, tracker); one block up front replaces
// the doubling chain of small reallocations, which cost more than the CRC.
constexpr std::size_t kPayloadReserve = 256;

// Slice-by-8 CRC-32 tables for the reflected polynomial 0xEDB88320.
// Table 0 is the classic byte-at-a-time table; table k maps a byte to its
// CRC contribution k zero bytes further back, so one lookup per byte in
// eight independent tables folds eight input bytes per step.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

constexpr CrcTables make_crc_tables() noexcept {
  CrcTables tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr CrcTables kCrcTables = make_crc_tables();

std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v));
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v >> 16));
  out.push_back(static_cast<std::uint8_t>(v >> 24));
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t pos) {
  return load_le32(in.subspan(pos, 4).data());
}

std::uint64_t get_u64(std::span<const std::uint8_t> in, std::size_t pos) {
  return static_cast<std::uint64_t>(get_u32(in, pos)) |
         (static_cast<std::uint64_t>(get_u32(in, pos + 4)) << 32);
}

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> bytes) noexcept {
  const CrcTables& t = kCrcTables;
  std::uint32_t crc = 0xFFFFFFFFu;
  const std::uint8_t* p = bytes.data();
  std::size_t n = bytes.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ load_le32(p);
    const std::uint32_t hi = load_le32(p + 4);
    crc = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
          t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
          t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; n > 0; ++p, --n) {
    crc = t[0][(crc ^ *p) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

CheckpointWriter::CheckpointWriter() { payload_.reserve(kPayloadReserve); }

void CheckpointWriter::u8(std::uint8_t v) { payload_.push_back(v); }

void CheckpointWriter::u32(std::uint32_t v) { put_u32(payload_, v); }

void CheckpointWriter::u64(std::uint64_t v) { put_u64(payload_, v); }

void CheckpointWriter::i32(std::int32_t v) {
  put_u32(payload_, static_cast<std::uint32_t>(v));
}

void CheckpointWriter::i64(std::int64_t v) {
  put_u64(payload_, static_cast<std::uint64_t>(v));
}

void CheckpointWriter::f64(double v) {
  put_u64(payload_, std::bit_cast<std::uint64_t>(v));
}

void CheckpointWriter::bytes(std::span<const std::uint8_t> data) {
  payload_.insert(payload_.end(), data.begin(), data.end());
}

std::vector<std::uint8_t> CheckpointWriter::seal(std::uint32_t kind) const {
  std::vector<std::uint8_t> out;
  out.reserve(kHeaderSize + payload_.size());
  put_u32(out, kMagic);
  put_u32(out, kCheckpointVersion);
  put_u32(out, kind);
  put_u64(out, static_cast<std::uint64_t>(payload_.size()));
  put_u32(out, crc32(payload_));
  out.insert(out.end(), payload_.begin(), payload_.end());
  RS_AUDIT(audit_envelope(out, kind, "CheckpointWriter::seal"));
  return out;
}

void audit_envelope(std::span<const std::uint8_t> bytes, std::uint32_t kind,
                    const char* site) {
  try {
    // The constructor validates magic, version, kind, payload size, and
    // CRC-32 — the full envelope contract a future restore depends on.
    const CheckpointReader reader(bytes, kind);
    (void)reader;
  } catch (const CheckpointError& e) {
    rs::util::audit::fail("checkpoint-envelope-roundtrip", site, e.what());
  }
}

CheckpointReader::CheckpointReader(std::span<const std::uint8_t> data,
                                   std::uint32_t expected_kind) {
  if (data.size() < kHeaderSize) {
    throw CheckpointFormatError(
        "checkpoint: truncated header (" + std::to_string(data.size()) +
        " of " + std::to_string(kHeaderSize) + " bytes)");
  }
  if (get_u32(data, 0) != kMagic) {
    throw CheckpointFormatError("checkpoint: bad magic");
  }
  const std::uint32_t version = get_u32(data, 4);
  if (version != kCheckpointVersion) {
    throw CheckpointFormatError("checkpoint: unsupported format version " +
                                std::to_string(version));
  }
  const std::uint32_t kind = get_u32(data, 8);
  if (kind != expected_kind) {
    throw CheckpointFormatError(
        "checkpoint: payload kind " + std::to_string(kind) + ", expected " +
        std::to_string(expected_kind));
  }
  const std::uint64_t size = get_u64(data, 12);
  if (size != data.size() - kHeaderSize) {
    throw CheckpointFormatError(
        "checkpoint: payload size " + std::to_string(size) + " does not "
        "match " + std::to_string(data.size() - kHeaderSize) +
        " available bytes");
  }
  payload_ = data.subspan(kHeaderSize);
  if (crc32(payload_) != get_u32(data, 20)) {
    throw CheckpointCorruptionError("checkpoint: payload checksum mismatch");
  }
}

void CheckpointReader::require(std::size_t n) const {
  if (remaining() < n) {
    throw CheckpointFormatError("checkpoint: payload field truncated");
  }
}

std::uint8_t CheckpointReader::u8() {
  require(1);
  return payload_[pos_++];
}

std::uint32_t CheckpointReader::u32() {
  require(4);
  const std::uint32_t v = get_u32(payload_, pos_);
  pos_ += 4;
  return v;
}

std::uint64_t CheckpointReader::u64() {
  require(8);
  const std::uint64_t v = get_u64(payload_, pos_);
  pos_ += 8;
  return v;
}

std::int32_t CheckpointReader::i32() {
  return static_cast<std::int32_t>(u32());
}

std::int64_t CheckpointReader::i64() {
  return static_cast<std::int64_t>(u64());
}

double CheckpointReader::f64() { return std::bit_cast<double>(u64()); }

std::vector<std::uint8_t> CheckpointReader::bytes(std::size_t n) {
  require(n);
  std::vector<std::uint8_t> out(payload_.begin() + static_cast<std::ptrdiff_t>(pos_),
                                payload_.begin() + static_cast<std::ptrdiff_t>(pos_ + n));
  pos_ += n;
  return out;
}

void CheckpointReader::finish() const {
  if (remaining() != 0) {
    throw CheckpointFormatError("checkpoint: " +
                                std::to_string(remaining()) +
                                " unconsumed payload bytes");
  }
}

std::uint32_t checkpoint_kind(std::span<const std::uint8_t> data) {
  if (data.size() < kHeaderSize) {
    throw CheckpointFormatError("checkpoint: truncated header");
  }
  if (get_u32(data, 0) != kMagic) {
    throw CheckpointFormatError("checkpoint: bad magic");
  }
  return get_u32(data, 8);
}

namespace {

// Flushes a written file's data and metadata to stable storage where the
// platform offers it; a failed fsync is a real write failure (the data may
// not survive a crash), so it throws like any other I/O error.
void sync_to_disk(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) throw std::runtime_error("cannot reopen for fsync: " + path);
  const int rc = ::fsync(fd);
  ::close(fd);
  if (rc != 0) throw std::runtime_error("fsync failed: " + path);
#else
  (void)path;
#endif
}

// Makes the rename itself durable: fsync the containing directory so the
// new directory entry survives a crash (best-effort on platforms where
// directories cannot be opened).
void sync_parent_dir(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos
                              ? std::string(".")
                              : path.substr(0, slash == 0 ? 1 : slash);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
#else
  (void)path;
#endif
}

}  // namespace

void write_checkpoint_file(const std::string& path,
                           std::span<const std::uint8_t> bytes) {
  // Crash-safe save discipline: temp file → fsync → atomic rename.  The
  // file named `path` is only ever replaced by a complete, durable image;
  // a crash mid-save leaves the previous checkpoint intact (plus at worst
  // a stray .tmp the next save overwrites).
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot open for writing: " + tmp);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      std::remove(tmp.c_str());
      throw std::runtime_error("write failed: " + tmp);
    }
  }
  try {
    sync_to_disk(tmp);
  } catch (...) {  // rs-lint: catch-all-ok (cleanup + rethrow)
    std::remove(tmp.c_str());
    throw;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("rename failed: " + tmp + " -> " + path);
  }
  sync_parent_dir(path);
}

std::vector<std::uint8_t> read_checkpoint_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open for reading: " + path);
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  if (in.bad()) throw std::runtime_error("read failed: " + path);
  return bytes;
}

}  // namespace rs::core
