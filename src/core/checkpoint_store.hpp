// Latest-good checkpoint store — the fleet controller's recovery source.
//
// A store keeps the most recent sealed checkpoint per key in memory and,
// when constructed over a directory, mirrors every put to
// `<dir>/<sanitized-key>.ckpt` with the crash-safe discipline of
// write_checkpoint_file (temp → fsync → atomic rename), so the newest
// on-disk checkpoint is always a *complete* envelope.  latest() prefers the
// in-process copy and falls back to disk — the process-restart path: a
// fresh store over the same directory serves the previous process's last
// good save.  Both paths validate the envelope (magic, version, size,
// CRC) before returning, so "latest" really means "latest good": bit-rotted
// bytes yield nullopt / a typed error instead of reaching a restore().
//
// All members are thread-safe behind one store mutex.  A fleet puts from
// its tick workers (each tenant once per checkpoint_every slots, the
// tenants' phases spread over the cadence's rounds), so put() keeps the
// critical section short: the envelope is validated before the lock, the
// key is allocated only on a key's first put, and the replaced bytes are
// freed after the lock is released.  A persistent store also writes the
// disk mirror under the lock.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace rs::core {

class CheckpointStore {
 public:
  /// In-memory only: checkpoints live for this process's lifetime.
  CheckpointStore() = default;

  /// Memory + on-disk mirror under `directory` (created, parents included,
  /// when missing; throws std::runtime_error when creation fails).  An
  /// empty directory means memory-only, same as the default constructor —
  /// callers can pass an optional config path straight through.
  explicit CheckpointStore(std::string directory);

  /// Records `bytes` as the latest checkpoint of `key`, replacing any
  /// previous one, and mirrors it to disk when the store is persistent.
  /// `bytes` must be a well-formed sealed envelope (any kind) — storing
  /// garbage is a caller bug and throws CheckpointFormatError before
  /// anything is recorded.  Empty keys throw std::invalid_argument.
  void put(std::string_view key, std::vector<std::uint8_t> bytes);

  /// The latest good checkpoint of `key`: the in-memory copy when present,
  /// else (persistent stores) the on-disk file from a previous process —
  /// validated and cached into memory on the way through.  nullopt when no
  /// good checkpoint exists under this key.
  std::optional<std::vector<std::uint8_t>> latest(std::string_view key) const;

  /// True when latest(key) would return a value without touching disk.
  bool contains(std::string_view key) const;

  /// Number of in-memory entries.
  std::size_t size() const;

  bool persistent() const noexcept { return !directory_.empty(); }
  const std::string& directory() const noexcept { return directory_; }

  /// Filesystem-safe form of `key`: [A-Za-z0-9._-] pass through, every
  /// other byte becomes '_'.  Distinct keys may collide after
  /// sanitization; the fleet controller avoids this by requiring unique
  /// sanitized tenant names.
  static std::string sanitize_key(std::string_view key);

  /// On-disk path of `key` ("" for a memory-only store).
  std::string path_of(std::string_view key) const;

 private:
  mutable std::mutex mutex_;
  // Heterogeneous lookup so latest(string_view) never allocates a key on
  // the miss path.
  mutable std::map<std::string, std::vector<std::uint8_t>, std::less<>>
      entries_;
  std::string directory_;
};

}  // namespace rs::core
