#include "fleet/form_cache.hpp"

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <utility>

namespace rs::fleet {

SlotFormCache::SlotFormCache(std::size_t capacity) : capacity_(capacity) {
  if (capacity_ < 1) {
    throw std::invalid_argument("SlotFormCache: capacity must be >= 1");
  }
}

SlotForm SlotFormCache::form_for(const rs::core::CostPtr& cost, int m) {
  if (cost == nullptr || m < 1) return SlotForm{cost, nullptr};
  // Built before the lock, in a per-thread buffer: the key is the offer
  // thread's work, and a hit allocates nothing.
  thread_local rs::core::ValueKey key;
  key.assign(1, static_cast<std::uint64_t>(m));
  if (!cost->append_value_key(key)) {
    key.resize(1);
    key.push_back(0);  // identity tag: no family name packs to 0
    key.push_back(reinterpret_cast<std::uintptr_t>(cost.get()));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(key);
  if (it != entries_.end()) {
    ++hits_;
    return it->second;
  }
  if (entries_.size() >= capacity_) return SlotForm{cost, nullptr};
  // Convert under the kAuto budget — the same rule a kAuto tracker applies
  // when fed the CostFunction directly, so a cached (non-null) form is
  // exactly the form the tracker would have derived itself.
  ++conversions_;
  SlotForm entry{cost, nullptr};
  try {
    if (std::optional<rs::core::ConvexPwl> exact = cost->as_convex_pwl(
            m, rs::core::compact_pwl_budget_for(m))) {
      entry.form =
          std::make_shared<const rs::core::ConvexPwl>(std::move(*exact));
    }
  } catch (const std::exception&) {
    // A throwing conversion caches as "no compact form"; the tenant's own
    // cost probing decides whether the cost itself is poison.
  }
  entries_.emplace(key, entry);
  return entry;
}

std::size_t SlotFormCache::KeyHash::operator()(
    const rs::core::ValueKey& key) const noexcept {
  std::uint64_t h = key.size();
  for (const std::uint64_t word : key) {
    h = (h ^ word) * 0x9E3779B97F4A7C15ull;
    h ^= h >> 29;
  }
  return static_cast<std::size_t>(h);
}

std::uint64_t SlotFormCache::conversions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return conversions_;
}

std::uint64_t SlotFormCache::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::size_t SlotFormCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

}  // namespace rs::fleet
