#include "core/checkpoint_store.hpp"

#include <filesystem>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.hpp"

namespace rs::core {

namespace {

// Envelope-level validation: magic, version, kind header, payload size,
// CRC.  Payload *structure* stays the consumer's job (the typed restore()
// errors); the store only promises the container is intact.
bool is_well_formed(std::span<const std::uint8_t> bytes) {
  try {
    CheckpointReader reader(bytes, checkpoint_kind(bytes));
    (void)reader;
    return true;
  } catch (const CheckpointError&) {
    return false;
  }
}

}  // namespace

CheckpointStore::CheckpointStore(std::string directory)
    : directory_(std::move(directory)) {
  if (directory_.empty()) return;
  std::error_code ec;
  std::filesystem::create_directories(directory_, ec);
  if (ec) {
    throw std::runtime_error("CheckpointStore: cannot create directory " +
                             directory_ + ": " + ec.message());
  }
}

void CheckpointStore::put(std::string_view key,
                          std::vector<std::uint8_t> bytes) {
  if (key.empty()) {
    throw std::invalid_argument("CheckpointStore::put: empty key");
  }
  if (!is_well_formed(bytes)) {
    throw CheckpointFormatError(
        "CheckpointStore::put: bytes are not a sealed checkpoint envelope");
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (!directory_.empty()) {
    write_checkpoint_file(path_of(key), bytes);
  }
  if (const auto it = entries_.find(key); it != entries_.end()) {
    // The replaced envelope moves into the by-value parameter, which is
    // destroyed after `lock`: its bytes are freed outside the mutex.
    it->second.swap(bytes);
  } else {
    entries_.emplace(std::string(key), std::move(bytes));
  }
}

std::optional<std::vector<std::uint8_t>> CheckpointStore::latest(
    std::string_view key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = entries_.find(key); it != entries_.end()) {
    return it->second;
  }
  if (directory_.empty()) return std::nullopt;
  const std::string path = path_of(key);
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) return std::nullopt;
  std::vector<std::uint8_t> bytes;
  try {
    bytes = read_checkpoint_file(path);
  } catch (const std::runtime_error&) {
    return std::nullopt;
  }
  if (!is_well_formed(bytes)) return std::nullopt;
  entries_[std::string(key)] = bytes;
  return bytes;
}

bool CheckpointStore::contains(std::string_view key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.find(key) != entries_.end();
}

std::size_t CheckpointStore::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::string CheckpointStore::sanitize_key(std::string_view key) {
  std::string out;
  out.reserve(key.size());
  for (const char c : key) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
    out.push_back(safe ? c : '_');
  }
  return out;
}

std::string CheckpointStore::path_of(std::string_view key) const {
  if (directory_.empty()) return std::string();
  return directory_ + "/" + sanitize_key(key) + ".ckpt";
}

}  // namespace rs::core
