// Shared cross-tenant conversion cache (DESIGN.md §12).
//
// Fleets multiplex tenants over a small family of slot-cost shapes: in the
// paper's restricted model (eq. 2) a slot's cost depends on λ_t alone, so
// a stream repeats the same few cost *values* over and over — even when
// its factory builds a fresh CostFunction graph per offer, as the
// documented default (scenario::hinge_sla_cost) does.  Without sharing,
// each tenant's tracker re-derives the convex-PWL form of every slot
// independently, and the conversion — not the advance — dominates ingest.
//
// SlotFormCache keys on VALUE: (CostFunction::value_key, m).  Each entry
// pins one canonical CostPtr beside its form, and form_for hands back that
// canonical instance; a tenant queues it in place of the freshly built
// one, so the fresh graph dies on the offer thread that allocated it, the
// tick never frees client-allocated graphs, and the fleet holds one graph
// per distinct value instead of one per queued or replayable slot.  The
// substitution is exact: equal full keys mean bitwise-equal at / eval_row
// / as_convex_pwl (the value-key contract in core/cost_function.hpp).
// Opaque costs (no value key) keep address identity under the reserved
// identity tag, pinned so the address can never be recycled — the
// canonical instance is then the offered object itself.
//
// Consumers (TenantSession::offer_run) attach the cached form to the
// queued entry and feed it through Lcp::decide_run(ConvexPwl), which is
// bit-identical to the CostFunction overload on the PWL path (the tracker
// would derive the identical form).  Negative results are cached too: a
// cost with no compact form under the kAuto budget maps to a null form,
// and callers fall back to the CostFunction path (the tracker then applies
// its own backend policy, including the forced-kPwl unbounded budget).
//
// Thread safety: all members are safe to call concurrently (offer paths
// run from producer threads while ticks run elsewhere).  The cache is
// bounded; once full it stops inserting and answers new keys with the
// argument itself and a null form — callers degrade to per-use
// conversion, never to an unbounded map.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/convex_pwl.hpp"
#include "core/cost_function.hpp"

namespace rs::fleet {

/// A slot cost resolved through the cache.
struct SlotForm {
  /// The entry's canonical instance: value-equal to the argument (the
  /// argument itself for opaque costs and on the first sight of a key), or
  /// the argument when the cache could not hold the key.
  rs::core::CostPtr cost;
  /// The exact convex-PWL form under the kAuto budget; nullptr when the
  /// cost has no compact form, the cache is full and the key new, or the
  /// argument is null/invalid.
  std::shared_ptr<const rs::core::ConvexPwl> form;
};

class SlotFormCache {
 public:
  /// `capacity` bounds the number of distinct (value, m) entries (>= 1).
  explicit SlotFormCache(std::size_t capacity = 4096);

  /// Resolves `cost` on domain [0, m]: the canonical instance and form of
  /// its (value key, m) entry, converting (under the kAuto budget,
  /// core::compact_pwl_budget_for) and pinning `cost` as the canonical
  /// instance on first sight.
  SlotForm form_for(const rs::core::CostPtr& cost, int m);

  /// Conversion attempts (== distinct keys ever inserted).
  std::uint64_t conversions() const;

  /// Lookups answered from an existing entry.
  std::uint64_t hits() const;

  std::size_t size() const;
  std::size_t capacity() const noexcept { return capacity_; }

 private:
  struct KeyHash {
    std::size_t operator()(const rs::core::ValueKey& key) const noexcept;
  };

  mutable std::mutex mutex_;
  std::size_t capacity_;
  // Key: m, then the value key — or, for opaque costs, the reserved
  // identity tag 0 and the pinned address.  Buckets hash the key; a hit
  // still compares the full key.
  std::unordered_map<rs::core::ValueKey, SlotForm, KeyHash> entries_;
  std::uint64_t conversions_ = 0;
  std::uint64_t hits_ = 0;
};

}  // namespace rs::fleet
