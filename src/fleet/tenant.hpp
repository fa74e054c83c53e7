// One fleet tenant: a long-lived LCP serving session wrapped in a fault
// domain (DESIGN.md §11).
//
// A tenant owns one Lcp session (a prediction window is just the lookahead
// each decision is handed), a bounded ingest queue of λ samples, and a
// replay buffer of everything decided since its last checkpoint — each
// windowed slot with the lookahead it was decided with.  The contract
// robustness rests on:
//
//   * input hardening — offer() validates the λ sample (NaN / inf /
//     negative) and probes the built slot cost (NaN / throwing) before
//     anything reaches the session; a poisoned stream quarantines *this*
//     tenant with a recorded reason instead of crashing the process;
//   * checkpoint-backed self-healing — step() snapshots into the
//     CheckpointStore every `checkpoint_every` slots, on the slots where
//     (steps + phase) crosses a multiple of the cadence; the phase is
//     checkpoint_phase(store_key()), so a fleet's seals spread evenly over
//     the cadence's rounds instead of all landing on one, and a name seals
//     on the same slots across add order, restore and process restart.
//     The gap since the last seal therefore stays below
//     `checkpoint_every` after every commit.  On a backend failure
//     (injected via FaultSite::kFleetTick or real) it restores the latest
//     good checkpoint, replays the gap from the replay buffer, and retries
//     — decisions and corridor bounds stay bit-identical to an undisturbed
//     run, even when overflow evicted queued samples a windowed slot saw
//     as lookahead (the chaos drill and the drop-oldest regression test
//     pin this);
//   * a degradation ladder — after `degrade_after` consecutive failed
//     attempts a kAuto/kDense session, windowed or not, is pinned to the
//     dense streaming backend (one typed kDegradedToDense event + an
//     immediate checkpoint, so later recoveries replay in the right mode);
//     recoveries exhausted on both rungs end in quarantine, never a wedged
//     controller.
//
// Every public member takes the tenant mutex, so a checkpoint taken from
// the controller thread while the session is mid-advance_repeated
// serializes against the step and captures the pre- or post-state — never
// a torn one (the concurrency suite hammers exactly this).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/checkpoint_store.hpp"
#include "core/cost_function.hpp"
#include "core/schedule.hpp"
#include "offline/work_function.hpp"
#include "online/lcp.hpp"

namespace rs::fleet {

/// Tenant health, in ladder order.  kRecovering is only observable from
/// another thread mid-step (or in the event stream): a step either commits
/// (back to kHealthy / kDegraded) or ends in kQuarantined.
enum class TenantState {
  kHealthy,
  kDegraded,     // pinned to the dense streaming backend
  kRecovering,   // mid restore-and-replay
  kQuarantined,  // terminal; reason in stats().quarantine_reason
};

const char* to_string(TenantState state) noexcept;

/// Ladder legality (DESIGN.md §11/§13): a state may re-assert itself;
/// kQuarantined is terminal; and kDegraded never steps back to kHealthy
/// (the dense pin is permanent — recoveries from a degraded session land
/// back on kDegraded).  Everything else moves freely along the ladder.
bool tenant_transition_legal(TenantState from, TenantState to) noexcept;

/// Raises rs::util::audit::AuditError("tenant-transition-legal", site)
/// naming both states when the move is illegal.  Always compiled; the
/// RS_AUDIT hooks inside TenantSession engage only under RIGHTSIZER_AUDIT.
void audit_tenant_transition(TenantState from, TenantState to,
                             const char* site);

/// What a full ingest queue does to the *next* sample.
enum class OverflowPolicy {
  kRejectNewest,  // offer() returns false — backpressure to the producer
  kDropOldest,    // evict the oldest undecided samples to make room
};

enum class FleetEventKind {
  kCheckpointed,     // snapshot sealed into the store
  kResumed,          // session restored from a previous process's disk save
  kRecovered,        // restore + gap replay after a failure
  kDegradedToDense,  // PWL → dense streaming rung taken
  kDeferred,         // slot pushed past a tick deadline (backpressure)
  kQuarantined,      // terminal isolation; detail holds the reason
  kOverflow,         // ingest queue overflow (either policy)
};

const char* to_string(FleetEventKind kind) noexcept;

/// One typed transition in a tenant's life; `slot` is the tenant-local
/// count of decided slots when the event fired.
struct FleetEvent {
  std::size_t tenant = 0;
  std::uint64_t slot = 0;
  FleetEventKind kind = FleetEventKind::kCheckpointed;
  std::string detail;
};

/// Scheduling class within a controller tick: every due kInteractive
/// tenant starts before any kBatch tenant, so under a tick deadline the
/// deferrals land on batch work first.  Within a class, registration
/// (ordinal) order is preserved.  Priority changes *when* a slot is
/// decided, never *what* — per-tenant decisions depend only on the
/// tenant's own stream.
enum class Priority {
  kInteractive = 0,
  kBatch = 1,
};

class SlotFormCache;

/// Answer to a TenantSession::what_if probe: the final-slot corridor and
/// eq. 13 state the session *would* show had the probed slot carried the
/// probed λ, plus repair statistics.  Replayed off to the side from the
/// tracker's rewind buffer — the live session is bitwise untouched.
struct WhatIfResult {
  int slots_repaired = 0;   // tracker advances re-executed by the probe
  bool early_exit = false;  // labels reconverged before the newest slot
  int x_lower = 0;          // corridor at the newest slot under the edit
  int x_upper = 0;
  int projected_state = 0;  // x^LCP at the newest slot under the edit
  double chat_min = 0.0;    // min Ĉ^L over the edited decided prefix
};

struct TenantConfig {
  /// Unique within a controller; doubles as the checkpoint-store key (after
  /// CheckpointStore::sanitize_key).
  std::string name;
  int m = 0;
  double beta = 1.0;
  /// 0 = plain LCP; w > 0 = LCP deciding each slot with the next w queued
  /// samples as its prediction window.
  int window = 0;
  rs::offline::WorkFunctionTracker::Backend backend =
      rs::offline::WorkFunctionTracker::Backend::kAuto;
  /// λ → slot cost; required.  May throw or return nullptr for bad samples
  /// — both quarantine the tenant with a reason instead of escaping.
  std::function<rs::core::CostPtr(double)> cost_of;
  /// Ingest bound, in slots (expanded runs count per slot).
  std::size_t queue_capacity = 1024;
  OverflowPolicy overflow = OverflowPolicy::kRejectNewest;
  /// Slots between automatic snapshots (>= 1).  A tenant seals when its
  /// decided-slot count crosses a multiple of this shifted by its phase,
  /// checkpoint_phase(name, checkpoint_every); runs and off-cadence seals
  /// do not move that grid.  The replay buffer a recovery replays stays
  /// below this many slots, so a recovery plus the retried run decides at
  /// most `checkpoint_every + run − 1` slots.
  int checkpoint_every = 16;
  /// Consecutive failed attempts on one slot before the dense rung (>= 1).
  int degrade_after = 2;
  /// Restore-and-replay attempts per slot before the ladder ends (>= 0).
  int max_recoveries = 12;
  /// Tick scheduling class (see Priority).
  Priority priority = Priority::kBatch;
  /// > 0: keep a rewind buffer of the last `what_if_slots` decided samples
  /// on the session tracker and serve what_if() probes from it.  Requires
  /// window == 0 (probes ride the plain-LCP tracker).  The buffer is
  /// process-local — never checkpointed — and restarts at every restore.
  int what_if_slots = 0;
  /// Shared conversion cache (fleet/form_cache.hpp); FleetController
  /// injects its fleet-wide cache here on add_tenant when unset.  Used by
  /// window == 0, non-kDense tenants to convert each distinct slot cost
  /// value once fleet-wide and queue its canonical instance; nullptr
  /// disables sharing (standalone sessions).
  SlotFormCache* form_cache = nullptr;
};

struct TenantStats {
  std::uint64_t offered = 0;         // slots accepted into the queue
  std::uint64_t rejected = 0;        // slots refused (overflow / quarantine)
  std::uint64_t overflow_drops = 0;  // slots evicted by kDropOldest
  std::uint64_t steps = 0;           // slots decided
  std::uint64_t checkpoints = 0;
  std::uint64_t recoveries = 0;  // successful restore + replay cycles
  std::uint64_t deferrals = 0;   // slots pushed past a tick deadline
  bool degraded_to_dense = false;
  std::string quarantine_reason;  // empty unless quarantined
  double last_step_seconds = 0.0;
};

/// A tenant's checkpoint cadence phase in [0, every): FNV-1a 64 of its
/// store key, mod `every` (>= 1; throws std::invalid_argument otherwise).
/// The phase depends on the key alone, so a tenant seals on the same
/// slots whatever its ordinal, and across resume and process restart.
int checkpoint_phase(std::string_view key, int every);

/// Decoded form of the sealed tenant checkpoint (kTenantCheckpointKind):
/// the slot count and degradation flag wrap the nested session snapshot.
struct TenantCheckpoint {
  std::uint64_t steps = 0;
  bool degraded = false;
  std::vector<std::uint8_t> session;
};

class TenantSession {
 public:
  /// Validates the config (throws std::invalid_argument).  When
  /// `resume_from` is non-null and holds a checkpoint under this tenant's
  /// key, the session restores from it (event kResumed); an unreadable
  /// save starts fresh instead of failing construction.
  TenantSession(TenantConfig config, std::size_t ordinal,
                rs::core::CheckpointStore* resume_from = nullptr);

  TenantSession(const TenantSession&) = delete;
  TenantSession& operator=(const TenantSession&) = delete;

  // ---- ingest (safe to call concurrently with step / snapshot) ----

  /// Queues one λ sample; false when rejected (validation, overflow under
  /// kRejectNewest, quarantine, finished stream).  A poisoned sample —
  /// NaN/inf/negative λ, possibly via FaultSite::kIngest corruption, or a
  /// cost that probes to NaN / throws — quarantines the tenant and returns
  /// false; it never reaches the session.
  bool offer(double lambda) { return offer_run(lambda, 1); }

  /// Queues a run of `count` slots sharing one λ (RLE ingest).  Window = 0
  /// tenants keep the run intact and decide it through the closed-form
  /// advance_repeated path; windowed tenants expand it to slots (their
  /// lookahead is slot-granular).
  bool offer_run(double lambda, int count);

  /// Declares end-of-stream: windowed tenants become due for their tail
  /// slots (with truncated lookahead), and further offers are rejected.
  void finish_stream();

  // ---- the tick path ----

  /// True when step() would advance: queue non-empty, not quarantined,
  /// and (windowed) enough lookahead queued or the stream finished.
  bool due() const;

  /// Queue fully decided (quarantined tenants count as drained — nothing
  /// further will ever advance).
  bool drained() const;

  /// Decides the next queued sample (whole run for window = 0), running
  /// the recovery ladder on failure.  Never throws: every fault is
  /// classified into state transitions and typed events.  Returns slots
  /// advanced (0 when not due or the ladder ended in quarantine).
  int step(rs::core::CheckpointStore& store);

  /// Snapshot into the store now, off-cadence (no-op when quarantined or
  /// before the first reset).  The controller's checkpoint_all and the
  /// concurrency suite call this from other threads mid-step.
  void checkpoint_now(rs::core::CheckpointStore& store);

  /// The sealed tenant checkpoint (kTenantCheckpointKind) of the current
  /// state, without storing it.
  std::vector<std::uint8_t> snapshot_bytes() const;

  /// Decodes snapshot_bytes() output (typed CheckpointErrors on bad input).
  static TenantCheckpoint decode_checkpoint(
      std::span<const std::uint8_t> bytes);

  /// Records a deadline deferral (controller tick bookkeeping).
  void note_deferred();

  /// Interactive what-if probe: "had decided slot `slot` (1-based) carried
  /// λ = `lambda` instead, where would the session be now?"  Served from
  /// the session tracker's rewind buffer (config.what_if_slots): the
  /// tracker's const probe_from replays forward from the edit with the
  /// bitwise reconvergence early-exit, then the answer is re-projected
  /// through eq. 13 — the live session, its schedule, and its checkpoint
  /// bytes are untouched (the isolation suite pins snapshot_bytes()
  /// before/after).  Returns nullopt when probes are disabled
  /// (what_if_slots == 0 or window > 0), the tenant is quarantined, `slot`
  /// is outside the rewind window, λ or its cost fails the check offer()
  /// quarantines on, or the edit would flip the tracker's backend
  /// trajectory — probes never throw and never quarantine.
  std::optional<WhatIfResult> what_if(int slot, double lambda) const;

  // ---- observation ----

  TenantState state() const;
  TenantStats stats() const;
  std::size_t ordinal() const noexcept { return ordinal_; }
  const TenantConfig& config() const noexcept { return config_; }
  const std::string& store_key() const noexcept;
  std::size_t queue_depth() const;  // undecided slots
  std::uint64_t steps() const;      // decided slots

  /// Copies of the decided trajectory so far.
  rs::core::Schedule schedule() const;
  std::vector<int> lower_bounds() const;
  std::vector<int> upper_bounds() const;

  /// Drains this tenant's pending typed events (bounded; oldest dropped
  /// past the cap, counted in the controller's dropped-events tally).
  std::vector<FleetEvent> drain_events();

  /// Returns and clears the count of events dropped past the buffer cap.
  std::uint64_t take_dropped_events();

  /// Deep session-consistency audit (util/audit.hpp; DESIGN.md §13):
  /// quarantine state and reason agree (and a quarantined tenant holds no
  /// queued or replayable work), the kDegraded state implies the sticky
  /// degraded_to_dense flag, the decided trajectory arrays stay equal
  /// length, stats().steps equals resume anchor + decided slots, and every
  /// decision sits inside its recorded corridor within [0, m].  Takes the
  /// tenant mutex; raises rs::util::audit::AuditError naming the violated
  /// invariant.
  void audit_invariants(const char* site) const;

 private:
  friend struct TenantSessionTestAccess;
  struct QueueEntry {
    double lambda = 0.0;
    int count = 0;
    // The slot cost.  With the shared fleet cache this is the cache's
    // pinned canonical instance for the cost's value, not the factory's
    // fresh one (value-equal, so bitwise-equal decisions): queued and
    // replayable slots hold no graphs of their own, and clearing the
    // replay buffer on a tick worker frees nothing the client allocated.
    rs::core::CostPtr cost;
    // Cached convex-PWL form from the shared fleet cache (nullptr when the
    // cache is absent/full or the cost has no compact form).  Replay
    // entries carry the same pinned cost and form, so a recovery consumes
    // the identical input and stays bit-identical.
    std::shared_ptr<const rs::core::ConvexPwl> form;
    // Windowed tenants: the prediction window the slot is decided with,
    // set from the queue when the decision is attempted.  Replay entries
    // keep it, so a recovery re-decides with exactly what the slot saw
    // even if overflow has since evicted those samples from the queue.
    std::vector<rs::core::CostPtr> lookahead;
  };

  // All *_locked members require mutex_ held.
  // Every ladder move funnels through here so the transition-legality
  // audit sees them all (the constructor's stale-checkpoint fallback is
  // the one deliberate exception: a session rebirth, not a ladder move).
  void set_state_locked(TenantState next, const char* site);
  void audit_invariants_locked(const char* site) const;
  bool due_locked() const;
  void emit_locked(FleetEventKind kind, std::string detail);
  void quarantine_locked(std::string reason);
  int decide_front_locked();
  void commit_front_locked(int advanced, rs::core::CheckpointStore& store);
  void checkpoint_locked(rs::core::CheckpointStore& store);
  void recover_locked(rs::core::CheckpointStore& store,
                      const std::string& reason);
  std::vector<rs::core::CostPtr> lookahead_locked() const;
  std::vector<std::uint8_t> snapshot_bytes_locked() const;
  void reset_session_locked();
  int session_decide_locked(const QueueEntry& entry);

  mutable std::mutex mutex_;
  TenantConfig config_;
  std::size_t ordinal_ = 0;

  rs::online::Lcp session_;

  std::deque<QueueEntry> queue_;
  std::size_t queued_slots_ = 0;
  bool finished_ = false;

  TenantState state_ = TenantState::kHealthy;
  TenantStats stats_;
  std::vector<FleetEvent> events_;
  std::uint64_t dropped_events_ = 0;

  // Decided trajectory (slot i of the stream → index i).
  std::vector<int> schedule_;
  std::vector<int> lower_;
  std::vector<int> upper_;

  // Entries committed since the last checkpoint, in order — the gap a
  // recovery replays.  Bounded by the checkpoint cadence; a vector, so the
  // clear() at each seal keeps its capacity and commits stop allocating.
  std::vector<QueueEntry> replay_;
  int slots_since_checkpoint_ = 0;
  // checkpoint_phase(store_key(), config_.checkpoint_every).
  int phase_ = 0;

  // Per-slot decision scratch (reused across steps).
  std::vector<int> decisions_scratch_;
  std::vector<int> lower_scratch_;
  std::vector<int> upper_scratch_;

  // Monotone fault-index counters (see util::tenant_fault_index): one
  // kFleetTick index per slot *attempt* (fresh or post-recovery retry, so
  // a retried attempt draws a new fault decision), one kIngest index per
  // offer call.
  std::uint64_t attempts_ = 0;
  std::uint64_t ingests_ = 0;
  int fail_streak_ = 0;

  // Cross-process resume anchor: schedule_/lower_/upper_ index slot
  // (resume_steps_ + i + 1) at position i, and resume_state_ is the eq. 13
  // state at slot resume_steps_ (what_if projection needs the decision
  // preceding the probed slot).  Both stay 0 for fresh sessions.
  std::uint64_t resume_steps_ = 0;
  int resume_state_ = 0;
};

/// Test-only corruption hooks for the auditor's negative tests
/// (tests/test_audit.cpp).  Callers must not race these against live
/// session threads; never use outside tests.
struct TenantSessionTestAccess {
  static TenantState& state(TenantSession& t) noexcept { return t.state_; }
  static TenantStats& stats(TenantSession& t) noexcept { return t.stats_; }
  static std::vector<int>& schedule(TenantSession& t) noexcept {
    return t.schedule_;
  }
  static std::vector<int>& lower(TenantSession& t) noexcept {
    return t.lower_;
  }
  static std::vector<int>& upper(TenantSession& t) noexcept {
    return t.upper_;
  }
  static void set_state_audited(TenantSession& t, TenantState next,
                                const char* site) {
    std::lock_guard<std::mutex> lock(t.mutex_);
    audit_tenant_transition(t.state_, next, site);
    t.state_ = next;
  }
};

}  // namespace rs::fleet
