#include "fleet/tenant.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>

#include "core/checkpoint.hpp"
#include "engine/solver_engine.hpp"
#include "fleet/form_cache.hpp"
#include "online/online_algorithm.hpp"
#include "util/audit.hpp"
#include "util/fault_injection.hpp"
#include "util/math_util.hpp"
#include "util/stopwatch.hpp"

namespace rs::fleet {

namespace {

// Per-tenant event buffer cap: enough for any drill's transition history;
// past it the oldest events drop (counted, never silently).
constexpr std::size_t kMaxPendingEvents = 256;

// The one admission check on a λ sample and the slot cost built from it,
// shared by offer_run and what_if: an invalid λ, a throwing or null
// factory, a cost that is NaN or negative at the domain ends, or a
// throwing evaluation is poison (+inf is legitimate infeasibility and
// passes).  Returns the cost, or nullptr with `poison` naming the reason.
rs::core::CostPtr admit_cost(const TenantConfig& config, double lambda,
                             std::string& poison) {
  if (!std::isfinite(lambda) || lambda < 0.0) {
    poison = "invalid λ sample: " + std::to_string(lambda);
    return nullptr;
  }
  rs::core::CostPtr cost;
  try {
    cost = config.cost_of(lambda);
  } catch (const std::exception& e) {
    poison = std::string("cost factory threw: ") + e.what();
    return nullptr;
  }
  if (cost == nullptr) {
    poison = "cost factory returned null";
    return nullptr;
  }
  try {
    const double at_zero = cost->at(0);
    const double at_m = cost->at(config.m);
    if (std::isnan(at_zero) || std::isnan(at_m)) {
      poison = "slot cost evaluates to NaN";
      return nullptr;
    }
    if (at_zero < 0.0 || at_m < 0.0) {
      poison = "slot cost is negative";
      return nullptr;
    }
  } catch (const std::exception& e) {
    poison = std::string("slot cost evaluation threw: ") + e.what();
    return nullptr;
  }
  return cost;
}

void validate_config(const TenantConfig& config) {
  if (config.name.empty()) {
    throw std::invalid_argument("TenantConfig: name must be non-empty");
  }
  if (config.m < 1) {
    throw std::invalid_argument("TenantConfig: m must be >= 1");
  }
  if (!std::isfinite(config.beta) || config.beta < 0.0) {
    throw std::invalid_argument("TenantConfig: beta must be finite and >= 0");
  }
  if (config.window < 0) {
    throw std::invalid_argument("TenantConfig: window must be >= 0");
  }
  if (!config.cost_of) {
    throw std::invalid_argument("TenantConfig: cost_of is required");
  }
  if (config.queue_capacity < 1) {
    throw std::invalid_argument("TenantConfig: queue_capacity must be >= 1");
  }
  if (config.checkpoint_every < 1) {
    throw std::invalid_argument("TenantConfig: checkpoint_every must be >= 1");
  }
  if (config.degrade_after < 1) {
    throw std::invalid_argument("TenantConfig: degrade_after must be >= 1");
  }
  if (config.max_recoveries < 0) {
    throw std::invalid_argument("TenantConfig: max_recoveries must be >= 0");
  }
  if (config.what_if_slots < 0) {
    throw std::invalid_argument("TenantConfig: what_if_slots must be >= 0");
  }
  if (config.what_if_slots > 0 && config.window > 0) {
    throw std::invalid_argument(
        "TenantConfig: what_if probes require window == 0");
  }
}

}  // namespace

int checkpoint_phase(std::string_view key, int every) {
  if (every < 1) {
    throw std::invalid_argument("checkpoint_phase: every must be >= 1");
  }
  std::uint64_t hash = 0xCBF29CE484222325ull;  // FNV-1a 64 offset basis
  for (const char c : key) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 0x100000001B3ull;  // FNV-1a 64 prime
  }
  return static_cast<int>(hash % static_cast<std::uint64_t>(every));
}

const char* to_string(TenantState state) noexcept {
  switch (state) {
    case TenantState::kHealthy:
      return "healthy";
    case TenantState::kDegraded:
      return "degraded";
    case TenantState::kRecovering:
      return "recovering";
    case TenantState::kQuarantined:
      return "quarantined";
  }
  return "unknown";
}

bool tenant_transition_legal(TenantState from, TenantState to) noexcept {
  if (from == to) return true;  // re-asserting a state is always a no-op
  if (from == TenantState::kQuarantined) return false;  // terminal
  if (from == TenantState::kDegraded && to == TenantState::kHealthy) {
    return false;  // the dense pin is permanent
  }
  return true;
}

void audit_tenant_transition(TenantState from, TenantState to,
                             const char* site) {
  rs::util::audit::require_with(
      tenant_transition_legal(from, to), "tenant-transition-legal", site,
      [&] { return std::string(to_string(from)) + " -> " + to_string(to); });
}

const char* to_string(FleetEventKind kind) noexcept {
  switch (kind) {
    case FleetEventKind::kCheckpointed:
      return "checkpointed";
    case FleetEventKind::kResumed:
      return "resumed";
    case FleetEventKind::kRecovered:
      return "recovered";
    case FleetEventKind::kDegradedToDense:
      return "degraded-to-dense";
    case FleetEventKind::kDeferred:
      return "deferred";
    case FleetEventKind::kQuarantined:
      return "quarantined";
    case FleetEventKind::kOverflow:
      return "overflow";
  }
  return "unknown";
}

TenantSession::TenantSession(TenantConfig config, std::size_t ordinal,
                             rs::core::CheckpointStore* resume_from)
    : config_(std::move(config)),
      ordinal_(ordinal),
      session_(config_.backend) {
  validate_config(config_);
  phase_ = checkpoint_phase(store_key(), config_.checkpoint_every);
  if (config_.what_if_slots > 0) {
    session_.enable_what_if(config_.what_if_slots);
  }
  reset_session_locked();
  if (resume_from == nullptr) return;
  const std::optional<std::vector<std::uint8_t>> saved =
      resume_from->latest(store_key());
  if (!saved.has_value()) return;
  try {
    TenantCheckpoint ck = decode_checkpoint(*saved);
    session_.restore(rs::online::OnlineContext{config_.m, config_.beta},
                     ck.session);
    stats_.steps = ck.steps;
    stats_.degraded_to_dense = ck.degraded;
    set_state_locked(ck.degraded ? TenantState::kDegraded
                                 : TenantState::kHealthy,
                     "TenantSession::TenantSession/resume");
    resume_steps_ = ck.steps;
    resume_state_ = session_.current_state();
    emit_locked(FleetEventKind::kResumed,
                "restored " + std::to_string(ck.steps) +
                    " decided slots from the checkpoint store");
  } catch (const std::exception& e) {
    // An unreadable save must not brick the tenant: start fresh (the
    // store's envelope validation makes this path rare — a payload-level
    // mismatch, e.g. a config change between runs).
    reset_session_locked();
    stats_ = TenantStats{};
    // Direct assignment, not set_state_locked: a failed resume rebirths
    // the session from scratch (possibly out of a half-restored kDegraded),
    // which is not a ladder move the transition audit should model.
    state_ = TenantState::kHealthy;
    emit_locked(FleetEventKind::kResumed,
                std::string("stale checkpoint ignored, starting fresh: ") +
                    e.what());
  }
}

bool TenantSession::offer_run(double lambda, int count) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (count <= 0) {
    throw std::invalid_argument("TenantSession::offer_run: count must be >= 1");
  }
  const std::uint64_t slots = static_cast<std::uint64_t>(count);
  if (state_ == TenantState::kQuarantined || finished_) {
    stats_.rejected += slots;
    return false;
  }

  // In-flight corruption site: one kIngest index per offer (runs included),
  // consumed while the tenant is live so the firing schedule is a pure
  // function of the tenant's offer count (scenario::corrupted_offers).
  if (rs::util::fault_fires(
          rs::util::FaultSite::kIngest,
          rs::util::tenant_fault_index(ordinal_, ingests_++))) {
    lambda = std::numeric_limits<double>::quiet_NaN();
  }

  std::string poison;
  rs::core::CostPtr cost = admit_cost(config_, lambda, poison);
  if (cost == nullptr) {
    stats_.rejected += slots;
    quarantine_locked(std::move(poison));
    return false;
  }

  // Bounded queue with explicit overflow policy.
  if (queued_slots_ + slots > config_.queue_capacity) {
    if (config_.overflow == OverflowPolicy::kRejectNewest) {
      stats_.rejected += slots;
      emit_locked(FleetEventKind::kOverflow,
                  "queue full: rejected run of " + std::to_string(count));
      return false;
    }
    std::uint64_t dropped = 0;
    while (!queue_.empty() &&
           queued_slots_ + slots > config_.queue_capacity) {
      dropped += static_cast<std::uint64_t>(queue_.front().count);
      queued_slots_ -= static_cast<std::size_t>(queue_.front().count);
      queue_.pop_front();
    }
    stats_.overflow_drops += dropped;
    emit_locked(FleetEventKind::kOverflow,
                "queue full: dropped " + std::to_string(dropped) +
                    " oldest slots");
    if (queued_slots_ + slots > config_.queue_capacity) {
      // The run alone exceeds capacity.
      stats_.rejected += slots;
      return false;
    }
  }

  if (config_.window > 0 && count > 1) {
    // Windowed lookahead is slot-granular: expand the run, sharing the one
    // CostPtr across its slots.
    for (int i = 0; i < count; ++i) {
      queue_.push_back(QueueEntry{lambda, 1, cost, nullptr, {}});
    }
  } else {
    // Resolve through the shared cache: the canonical cost of this value
    // (converted once, fleet-wide) replaces the fresh one, which dies here
    // on the offer thread that built it.  Only non-kDense plain-LCP
    // tenants consume forms — the dense path materializes rows
    // differently, and bit-identity with the CostFunction overload holds
    // only on the PWL path.
    std::shared_ptr<const rs::core::ConvexPwl> form;
    if (config_.form_cache != nullptr && config_.window == 0 &&
        config_.backend !=
            rs::offline::WorkFunctionTracker::Backend::kDense) {
      SlotForm resolved = config_.form_cache->form_for(cost, config_.m);
      cost = std::move(resolved.cost);
      form = std::move(resolved.form);
    }
    queue_.push_back(
        QueueEntry{lambda, count, std::move(cost), std::move(form), {}});
  }
  queued_slots_ += static_cast<std::size_t>(count);
  stats_.offered += slots;
  return true;
}

void TenantSession::finish_stream() {
  std::lock_guard<std::mutex> lock(mutex_);
  finished_ = true;
}

bool TenantSession::due() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return due_locked();
}

bool TenantSession::due_locked() const {
  if (state_ == TenantState::kQuarantined || queue_.empty()) return false;
  if (config_.window == 0) return true;
  return queued_slots_ > static_cast<std::size_t>(config_.window) ||
         finished_;
}

bool TenantSession::drained() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.empty() || state_ == TenantState::kQuarantined;
}

int TenantSession::step(rs::core::CheckpointStore& store) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!due_locked()) return 0;
  const rs::util::Stopwatch watch;
  int recoveries_this_slot = 0;
  for (;;) {
    std::string failure;
    try {
      const int advanced = decide_front_locked();
      commit_front_locked(advanced, store);
      stats_.last_step_seconds = watch.seconds();
      return advanced;
    } catch (const rs::engine::BackendFailureError& e) {
      failure = e.what();  // transient: run the recovery ladder below
    } catch (const std::exception& e) {
      // Deterministic poison (a throwing cost mid-evaluation, a violated
      // precondition): retrying cannot succeed.
      quarantine_locked(e.what());
      return 0;
    }

    ++fail_streak_;
    if (recoveries_this_slot >= config_.max_recoveries) {
      quarantine_locked("backend failure persisted after " +
                        std::to_string(recoveries_this_slot) +
                        " recoveries: " + failure);
      return 0;
    }
    ++recoveries_this_slot;
    try {
      recover_locked(store, failure);
      if (fail_streak_ >= config_.degrade_after &&
          !stats_.degraded_to_dense && session_.degrade_to_dense()) {
        // Dense rung taken: checkpoint immediately so every future
        // recovery restores a snapshot whose tracker mode matches the mode
        // the replay-buffer slots were (and will be) decided in.
        stats_.degraded_to_dense = true;
        emit_locked(FleetEventKind::kDegradedToDense,
                    "after " + std::to_string(fail_streak_) +
                        " consecutive backend failures");
        checkpoint_locked(store);
      }
    } catch (const std::exception& e) {
      quarantine_locked(std::string("recovery failed: ") + e.what());
      return 0;
    }
  }
}

int TenantSession::decide_front_locked() {
  const std::uint64_t index =
      rs::util::tenant_fault_index(ordinal_, attempts_++);
  if (rs::util::fault_fires(rs::util::FaultSite::kFleetTick, index)) {
    throw rs::engine::BackendFailureError("injected fault: fleet tick");
  }
  QueueEntry& entry = queue_.front();
  if (config_.window > 0) entry.lookahead = lookahead_locked();
  return session_decide_locked(entry);
}

int TenantSession::session_decide_locked(const QueueEntry& entry) {
  const std::size_t need = static_cast<std::size_t>(
      entry.count > 1 ? entry.count : 1);
  if (decisions_scratch_.size() < need) {
    decisions_scratch_.resize(need);
    lower_scratch_.resize(need);
    upper_scratch_.resize(need);
  }
  if (config_.window > 0) {
    decisions_scratch_[0] = session_.decide(entry.cost, entry.lookahead);
    lower_scratch_[0] = session_.last_lower();
    upper_scratch_[0] = session_.last_upper();
    return 1;
  }
  // Consume the shared cached form only while the tracker is on (or can
  // still choose) the PWL path: there decide_run(ConvexPwl) is
  // bit-identical to the CostFunction overload (the tracker would derive
  // the identical form).  After a dense fallback the CostFunction path
  // evaluates rows directly, so forms are bypassed.  The gate re-evaluates
  // identically during recovery replay — the restored tracker is in the
  // mode the slot was originally decided in.
  const rs::offline::WorkFunctionTracker* tracker = session_.tracker();
  const bool pwl_path =
      tracker != nullptr && (tracker->using_pwl() || tracker->tau() == 0);
  if (entry.form != nullptr && pwl_path) {
    session_.decide_run(*entry.form, entry.count, decisions_scratch_,
                        lower_scratch_, upper_scratch_);
  } else {
    session_.decide_run(*entry.cost, entry.count, decisions_scratch_,
                        lower_scratch_, upper_scratch_);
  }
  return entry.count;
}

void TenantSession::commit_front_locked(int advanced,
                                        rs::core::CheckpointStore& store) {
  for (int i = 0; i < advanced; ++i) {
    const std::size_t j = static_cast<std::size_t>(i);
    schedule_.push_back(decisions_scratch_[j]);
    lower_.push_back(lower_scratch_[j]);
    upper_.push_back(upper_scratch_[j]);
  }
  replay_.push_back(std::move(queue_.front()));
  queue_.pop_front();
  queued_slots_ -= static_cast<std::size_t>(advanced);
  const std::uint64_t before = stats_.steps;
  stats_.steps += static_cast<std::uint64_t>(advanced);
  slots_since_checkpoint_ += advanced;
  fail_streak_ = 0;
  set_state_locked(stats_.degraded_to_dense ? TenantState::kDegraded
                                            : TenantState::kHealthy,
                   "TenantSession::commit_front_locked");
  // Seal when this commit reaches or crosses one of the tenant's cadence
  // slots (stats_.steps ≡ −phase mod every).  The cadence is a function of
  // the absolute slot count, so off-cadence seals do not shift it.
  const auto every = static_cast<std::uint64_t>(config_.checkpoint_every);
  const auto phase = static_cast<std::uint64_t>(phase_);
  if ((before + phase) / every != (stats_.steps + phase) / every) {
    checkpoint_locked(store);
  }
  RS_AUDIT(audit_invariants_locked("TenantSession::commit_front_locked"));
}

void TenantSession::checkpoint_locked(rs::core::CheckpointStore& store) {
  store.put(store_key(), snapshot_bytes_locked());
  replay_.clear();
  slots_since_checkpoint_ = 0;
  ++stats_.checkpoints;
  emit_locked(FleetEventKind::kCheckpointed,
              "at slot " + std::to_string(stats_.steps));
}

void TenantSession::recover_locked(rs::core::CheckpointStore& store,
                                   const std::string& reason) {
  set_state_locked(TenantState::kRecovering, "TenantSession::recover_locked");
  reset_session_locked();
  const std::optional<std::vector<std::uint8_t>> saved =
      store.latest(store_key());
  if (saved.has_value()) {
    const TenantCheckpoint ck = decode_checkpoint(*saved);
    session_.restore(rs::online::OnlineContext{config_.m, config_.beta},
                     ck.session);
  }
  // Replay the gap between the restored checkpoint and the failure point.
  // No fault sites are consulted here: recovery itself is deterministic,
  // and the replayed decisions overwrite their original positions (they
  // are bit-identical by the checkpoint round-trip contract, each entry
  // carrying the lookahead its slot was decided with).
  std::size_t pos = schedule_.size() -
                    static_cast<std::size_t>(slots_since_checkpoint_);
  for (const QueueEntry& entry : replay_) {
    const int n = session_decide_locked(entry);
    for (int k = 0; k < n; ++k) {
      const std::size_t j = static_cast<std::size_t>(k);
      schedule_[pos + j] = decisions_scratch_[j];
      lower_[pos + j] = lower_scratch_[j];
      upper_[pos + j] = upper_scratch_[j];
    }
    pos += static_cast<std::size_t>(n);
  }
  ++stats_.recoveries;
  emit_locked(FleetEventKind::kRecovered,
              "replayed " + std::to_string(slots_since_checkpoint_) +
                  " slots after: " + reason);
}

void TenantSession::reset_session_locked() {
  session_.reset(rs::online::OnlineContext{config_.m, config_.beta});
}

std::vector<rs::core::CostPtr> TenantSession::lookahead_locked() const {
  // The next w queued slots after the front one.
  std::vector<rs::core::CostPtr> lookahead;
  const std::size_t w = static_cast<std::size_t>(config_.window);
  lookahead.reserve(w);
  for (std::size_t q = 1; q < queue_.size() && lookahead.size() < w; ++q) {
    lookahead.push_back(queue_[q].cost);
  }
  return lookahead;
}

void TenantSession::checkpoint_now(rs::core::CheckpointStore& store) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (state_ == TenantState::kQuarantined) return;
  try {
    checkpoint_locked(store);
  } catch (const std::exception& e) {
    quarantine_locked(std::string("checkpoint failed: ") + e.what());
  }
}

std::vector<std::uint8_t> TenantSession::snapshot_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return snapshot_bytes_locked();
}

std::vector<std::uint8_t> TenantSession::snapshot_bytes_locked() const {
  rs::core::CheckpointWriter writer;
  writer.u64(stats_.steps);
  writer.u8(stats_.degraded_to_dense ? 1 : 0);
  const std::vector<std::uint8_t> session = session_.snapshot();
  writer.u64(session.size());
  writer.bytes(session);
  return writer.seal(rs::core::kTenantCheckpointKind);
}

TenantCheckpoint TenantSession::decode_checkpoint(
    std::span<const std::uint8_t> bytes) {
  rs::core::CheckpointReader reader(bytes, rs::core::kTenantCheckpointKind);
  TenantCheckpoint ck;
  ck.steps = reader.u64();
  const std::uint8_t degraded = reader.u8();
  if (degraded > 1) {
    throw rs::core::CheckpointFormatError(
        "tenant checkpoint: invalid degraded flag");
  }
  ck.degraded = degraded == 1;
  const std::uint64_t size = reader.u64();
  ck.session = reader.bytes(static_cast<std::size_t>(size));
  reader.finish();
  return ck;
}

void TenantSession::note_deferred() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.deferrals;
  emit_locked(FleetEventKind::kDeferred,
              "tick budget exhausted; " + std::to_string(queued_slots_) +
                  " slots queued");
}

std::optional<WhatIfResult> TenantSession::what_if(int slot,
                                                   double lambda) const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (config_.what_if_slots <= 0) return std::nullopt;
  if (state_ == TenantState::kQuarantined) return std::nullopt;
  const rs::offline::WorkFunctionTracker* live = session_.tracker();
  if (live == nullptr || !live->rewind_covers(slot)) return std::nullopt;
  // A sample offer() would quarantine gets no answer either.
  std::string poison;
  const rs::core::CostPtr cost = admit_cost(config_, lambda, poison);
  if (cost == nullptr) return std::nullopt;
  try {
    // The live tracker replays the edit off to the side; it (and with it
    // the session's next checkpoint) stays bitwise untouched.
    const rs::offline::WorkFunctionTracker::Repair repair =
        live->probe_from(slot, *cost);

    WhatIfResult out;
    out.slots_repaired = repair.slots_replayed;
    out.early_exit = repair.early_exit;
    out.x_lower = repair.x_lower;
    out.x_upper = repair.x_upper;
    out.chat_min = repair.chat_min;

    // Re-run the eq. 13 projection from the decision preceding the edit:
    // repaired corridor for the replayed slots, the stored (bitwise
    // unchanged past the reconvergence boundary) corridor beyond.
    int x = 0;
    if (slot > 1) {
      const std::uint64_t prev = static_cast<std::uint64_t>(slot) - 1;
      x = prev == resume_steps_
              ? resume_state_
              : schedule_[static_cast<std::size_t>(prev - resume_steps_) - 1];
    }
    const std::size_t first = static_cast<std::size_t>(
        static_cast<std::uint64_t>(slot) - resume_steps_ - 1);
    const std::size_t repaired =
        std::min(repair.lower.size(), lower_.size() - first);
    x = rs::online::project_corridor(
        x, std::span<const int>(repair.lower).first(repaired),
        std::span<const int>(repair.upper).first(repaired));
    x = rs::online::project_corridor(
        x, std::span<const int>(lower_).subspan(first + repaired),
        std::span<const int>(upper_).subspan(first + repaired));
    out.projected_state = x;
    return out;
  } catch (const std::exception&) {
    // Probes never quarantine or throw: a non-convertible edit of a
    // PWL-mode slot (backend-trajectory flip), or any other failure,
    // simply yields "no answer".
    return std::nullopt;
  }
}

void TenantSession::quarantine_locked(std::string reason) {
  set_state_locked(TenantState::kQuarantined,
                   "TenantSession::quarantine_locked");
  stats_.quarantine_reason = reason;
  emit_locked(FleetEventKind::kQuarantined, std::move(reason));
  // Free what will never be decided; future offers are rejected outright.
  queue_.clear();
  queued_slots_ = 0;
  replay_.clear();
  RS_AUDIT(audit_invariants_locked("TenantSession::quarantine_locked"));
}

void TenantSession::set_state_locked(TenantState next,
                                     [[maybe_unused]] const char* site) {
  RS_AUDIT(audit_tenant_transition(state_, next, site));
  state_ = next;
}

void TenantSession::audit_invariants(const char* site) const {
  std::lock_guard<std::mutex> lock(mutex_);
  audit_invariants_locked(site);
}

void TenantSession::audit_invariants_locked(const char* site) const {
  namespace audit = rs::util::audit;
  const bool quarantined = state_ == TenantState::kQuarantined;
  audit::require(quarantined == !stats_.quarantine_reason.empty(),
                 "tenant-quarantine-reason", site,
                 "quarantine state and recorded reason disagree");
  if (quarantined) {
    audit::require(queue_.empty() && queued_slots_ == 0 && replay_.empty(),
                   "tenant-quarantine-drained", site,
                   "a terminal tenant must hold no queued or replayable work");
  }
  audit::require(
      state_ != TenantState::kDegraded || stats_.degraded_to_dense,
      "tenant-degraded-flag", site,
      "kDegraded without the sticky degraded_to_dense flag");
  audit::require(
      schedule_.size() == lower_.size() && schedule_.size() == upper_.size(),
      "tenant-trajectory-shape", site);
  audit::require(stats_.steps ==
                     resume_steps_ +
                         static_cast<std::uint64_t>(schedule_.size()),
                 "tenant-steps-accounting", site);
  for (std::size_t i = 0; i < schedule_.size(); ++i) {
    audit::require_with(
        0 <= lower_[i] && lower_[i] <= schedule_[i] &&
            schedule_[i] <= upper_[i] && upper_[i] <= config_.m,
        "tenant-decision-in-corridor", site, [&] {
          return "slot " + std::to_string(resume_steps_ + i + 1) +
                 ": x = " + std::to_string(schedule_[i]) + " outside [" +
                 std::to_string(lower_[i]) + ", " +
                 std::to_string(upper_[i]) + "] in [0, " +
                 std::to_string(config_.m) + "]";
        });
  }
}

void TenantSession::emit_locked(FleetEventKind kind, std::string detail) {
  if (events_.size() >= kMaxPendingEvents) {
    // Keep the newest: a late quarantine or recovery must stay visible.
    events_.erase(events_.begin());
    ++dropped_events_;
  }
  events_.push_back(
      FleetEvent{ordinal_, stats_.steps, kind, std::move(detail)});
}

TenantState TenantSession::state() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return state_;
}

TenantStats TenantSession::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

const std::string& TenantSession::store_key() const noexcept {
  return config_.name;
}

std::size_t TenantSession::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queued_slots_;
}

std::uint64_t TenantSession::steps() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_.steps;
}

rs::core::Schedule TenantSession::schedule() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return schedule_;
}

std::vector<int> TenantSession::lower_bounds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lower_;
}

std::vector<int> TenantSession::upper_bounds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return upper_;
}

std::vector<FleetEvent> TenantSession::drain_events() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FleetEvent> out;
  out.swap(events_);
  return out;
}

std::uint64_t TenantSession::take_dropped_events() {
  std::lock_guard<std::mutex> lock(mutex_);
  const std::uint64_t dropped = dropped_events_;
  dropped_events_ = 0;
  return dropped;
}

}  // namespace rs::fleet
