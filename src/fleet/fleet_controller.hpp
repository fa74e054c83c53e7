// FleetController: the resident multi-tenant serving layer (DESIGN.md §11).
//
// The ROADMAP's north star multiplexes thousands of independent data-center
// tenants — each a long-lived LCP session fed by a live λ_t stream — over
// one process.  The controller owns the tenant sessions, a shared
// CheckpointStore (in-memory, optionally mirrored to disk), and a
// SolverEngine whose batched dispatch advances every tenant due a slot in
// one tick().  Robustness is the contract:
//
//   * per-tenant fault domains — each TenantSession classifies its own
//     faults into typed state transitions; a poisoned or throwing tenant
//     quarantines alone, and the tick that advances every other tenant
//     completes regardless;
//   * checkpoint-backed self-healing — killed tenants restore from the
//     store and replay their gap mid-tick, bit-identical to an undisturbed
//     run (the chaos drill asserts this across backends and thread counts);
//   * deadline degradation — a per-tick time budget defers not-yet-started
//     tenants past the deadline (typed kDeferred events, queue
//     backpressure); at least one due tenant always advances, so a drain
//     loop terminates under any budget.
//
// Determinism: every tenant's decisions depend only on its own stream and
// fault indices, so schedules and corridor bounds are bit-identical across
// tick partitionings and thread counts (deferral changes *when* a slot is
// decided, never *what* is decided).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/checkpoint_store.hpp"
#include "engine/solver_engine.hpp"
#include "fleet/form_cache.hpp"
#include "fleet/tenant.hpp"

namespace rs::fleet {

struct FleetOptions {
  /// Engine dispatch width: 0 = process-global pool, 1 = inline, N > 1 =
  /// dedicated pool (see SolverEngine::Options::threads).
  std::size_t threads = 1;
  /// Non-empty: mirror checkpoints to this directory (created when
  /// missing) and resume tenants from it on add_tenant — the
  /// process-restart path.  Empty: in-memory store only.
  std::string checkpoint_dir;
  /// Per-tick wall-clock budget in seconds; 0 = unlimited.  Once exceeded,
  /// tenants not yet started this tick are deferred (never mid-slot).
  double tick_budget_seconds = 0.0;
  /// Controller event-log bound; past it the oldest are dropped (counted).
  std::size_t max_events = 4096;
};

/// What one tick did.
struct TickReport {
  std::size_t due = 0;               // tenants eligible at tick start
  std::size_t advanced_tenants = 0;  // tenants that committed >= 1 slot
  std::size_t advanced_slots = 0;    // slots committed across the fleet
  std::size_t deferred = 0;          // tenants pushed past the deadline
  std::size_t quarantined = 0;       // tenants newly quarantined this tick
  double seconds = 0.0;              // tick wall time
};

/// Whole-fleet aggregates (tenant stats summed at call time + controller
/// counters).
struct FleetStats {
  std::uint64_t ticks = 0;
  std::uint64_t tenant_steps = 0;  // slots committed across all ticks
  double busy_seconds = 0.0;       // Σ tick wall time
  double tenant_steps_per_second = 0.0;
  std::uint64_t checkpoints = 0;
  std::uint64_t recoveries = 0;
  std::uint64_t deferrals = 0;
  std::size_t healthy = 0;  // current census (kRecovering counts healthy)
  std::size_t degraded = 0;
  std::size_t quarantined = 0;
};

class FleetController {
 public:
  explicit FleetController(FleetOptions options = {});

  /// Registers a tenant and returns its ordinal (stable; the fault-index
  /// namespace of util::tenant_fault_index).  Names must be unique after
  /// CheckpointStore::sanitize_key (throws std::invalid_argument).  With a
  /// persistent store, a tenant whose key has a saved checkpoint resumes
  /// from it.
  std::size_t add_tenant(TenantConfig config);

  std::size_t tenant_count() const noexcept { return tenants_.size(); }
  TenantSession& tenant(std::size_t ordinal);
  const TenantSession& tenant(std::size_t ordinal) const;

  /// Ingest forwarding (thread-safe; callable while a tick runs).
  bool offer(std::size_t ordinal, double lambda);
  bool offer_run(std::size_t ordinal, double lambda, int count);
  /// End-of-stream for every tenant (windowed tails become due).
  void finish_streams();

  /// One batched tick: every due tenant advances one sample (a whole RLE
  /// run for window = 0 tenants) through the engine's dispatch; faults stay
  /// inside their tenant.  Under a time budget, tenants not yet started
  /// when it expires are deferred — except the first, so ticks always make
  /// progress.
  TickReport tick();

  /// Ticks until no tenant is due (call finish_streams() first for
  /// windowed tails).  Returns ticks used; throws std::runtime_error when
  /// max_ticks is hit (a wedged fleet is a bug, not a spin).
  std::size_t run_until_drained(std::size_t max_ticks = 1000000);

  /// Snapshot every non-quarantined tenant into the store now.
  void checkpoint_all();

  FleetStats stats() const;

  /// Copy of the bounded controller event log (tenant events merged in
  /// tick order each tick; checkpoint_all and quarantines-at-offer land on
  /// the next tick's drain or events() call).
  std::vector<FleetEvent> events() const;
  std::uint64_t dropped_events() const;

  rs::core::CheckpointStore& store() noexcept { return store_; }
  const FleetOptions& options() const noexcept { return options_; }

  /// The fleet-wide slot-cost conversion cache add_tenant injects into
  /// every tenant (unless the config brings its own).
  const SlotFormCache& form_cache() const noexcept { return form_cache_; }

 private:
  void drain_tenant_events_locked() const;

  FleetOptions options_;
  rs::core::CheckpointStore store_;
  rs::engine::SolverEngine engine_;
  SlotFormCache form_cache_;
  // unique_ptr: TenantSession owns a mutex and is immovable; the vector
  // only ever grows (ordinals are stable for the controller's lifetime).
  std::vector<std::unique_ptr<TenantSession>> tenants_;
  // Sanitized names of tenants_, for add_tenant's collision check.
  std::unordered_set<std::string> sanitized_keys_;

  mutable std::mutex mutex_;  // guards the event log + counters below
  // mutable: events() drains tenant buffers into the log on read.
  mutable std::deque<FleetEvent> events_;
  mutable std::uint64_t dropped_events_ = 0;
  std::uint64_t ticks_ = 0;
  std::uint64_t total_slots_ = 0;
  double busy_seconds_ = 0.0;
};

}  // namespace rs::fleet
