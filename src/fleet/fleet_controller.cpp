#include "fleet/fleet_controller.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "util/audit.hpp"
#include "util/stopwatch.hpp"

namespace rs::fleet {

FleetController::FleetController(FleetOptions options)
    : options_(std::move(options)),
      store_(options_.checkpoint_dir),
      engine_(rs::engine::SolverEngine::Options{options_.threads}) {
  if (options_.tick_budget_seconds < 0.0) {
    throw std::invalid_argument(
        "FleetOptions: tick_budget_seconds must be >= 0");
  }
  if (options_.max_events < 1) {
    throw std::invalid_argument("FleetOptions: max_events must be >= 1");
  }
}

std::size_t FleetController::add_tenant(TenantConfig config) {
  // Sanitized names key the checkpoint store; a collision would make two
  // tenants overwrite each other's recovery state.
  std::string key = rs::core::CheckpointStore::sanitize_key(config.name);
  if (sanitized_keys_.contains(key)) {
    throw std::invalid_argument(
        "FleetController::add_tenant: duplicate tenant name (after "
        "sanitization): " +
        config.name);
  }
  const std::size_t ordinal = tenants_.size();
  if (config.form_cache == nullptr) config.form_cache = &form_cache_;
  tenants_.push_back(std::make_unique<TenantSession>(
      std::move(config), ordinal, store_.persistent() ? &store_ : nullptr));
  sanitized_keys_.insert(std::move(key));
  return ordinal;
}

TenantSession& FleetController::tenant(std::size_t ordinal) {
  if (ordinal >= tenants_.size()) {
    throw std::out_of_range("FleetController::tenant: bad ordinal");
  }
  return *tenants_[ordinal];
}

const TenantSession& FleetController::tenant(std::size_t ordinal) const {
  if (ordinal >= tenants_.size()) {
    throw std::out_of_range("FleetController::tenant: bad ordinal");
  }
  return *tenants_[ordinal];
}

bool FleetController::offer(std::size_t ordinal, double lambda) {
  return tenant(ordinal).offer(lambda);
}

bool FleetController::offer_run(std::size_t ordinal, double lambda,
                                int count) {
  return tenant(ordinal).offer_run(lambda, count);
}

void FleetController::finish_streams() {
  for (const auto& session : tenants_) session->finish_stream();
}

TickReport FleetController::tick() {
  std::vector<std::size_t> due;
  due.reserve(tenants_.size());
  for (std::size_t i = 0; i < tenants_.size(); ++i) {
    if (tenants_[i]->due()) due.push_back(i);
  }
  // Interactive tenants start (and therefore finish) ahead of batch ones,
  // so a tick deadline defers batch work first; stable within a class, so
  // registration order still breaks ties.  Decisions are unaffected —
  // priority only reorders who runs when.
  std::stable_sort(due.begin(), due.end(),
                   [this](std::size_t a, std::size_t b) {
                     return static_cast<int>(tenants_[a]->config().priority) <
                            static_cast<int>(tenants_[b]->config().priority);
                   });
  TickReport report;
  report.due = due.size();
  const rs::util::Stopwatch watch;
  if (!due.empty()) {
    std::vector<int> advanced(due.size(), 0);
    std::vector<std::uint8_t> deferred(due.size(), 0);
    std::vector<double> seconds(due.size(), 0.0);
    const double budget = options_.tick_budget_seconds;
    // Progress guarantee: the first tenant to reach the gate always runs,
    // so even a sub-microsecond budget cannot defer a whole tick forever.
    std::atomic<bool> started{false};
    engine_.for_each_timed(
        due.size(),
        [&](std::size_t i) {
          const bool first = !started.exchange(true, std::memory_order_acq_rel);
          if (!first && budget > 0.0 && watch.seconds() > budget) {
            deferred[i] = 1;
            tenants_[due[i]]->note_deferred();
            return;
          }
          advanced[i] = tenants_[due[i]]->step(store_);
        },
        seconds);
    for (std::size_t i = 0; i < due.size(); ++i) {
      if (deferred[i] != 0) {
        ++report.deferred;
        continue;
      }
      if (advanced[i] > 0) {
        ++report.advanced_tenants;
        report.advanced_slots += static_cast<std::size_t>(advanced[i]);
      }
      // Every due tenant was non-quarantined at tick start, so a
      // quarantined state now is a this-tick transition.
      if (tenants_[due[i]]->state() == TenantState::kQuarantined) {
        ++report.quarantined;
      }
    }
  }
  report.seconds = watch.seconds();
  // Post-tick consistency sweep: every tenant the tick touched is back in
  // a coherent resting state (no tenant is left mid-recovery, every
  // quarantine carries its reason, trajectories in-corridor).
  RS_AUDIT(for (const std::size_t i : due) {
    tenants_[i]->audit_invariants("FleetController::tick");
  });
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++ticks_;
    total_slots_ += report.advanced_slots;
    busy_seconds_ += report.seconds;
    drain_tenant_events_locked();
  }
  return report;
}

std::size_t FleetController::run_until_drained(std::size_t max_ticks) {
  for (std::size_t t = 0; t < max_ticks; ++t) {
    bool any_due = false;
    for (const auto& session : tenants_) {
      if (session->due()) {
        any_due = true;
        break;
      }
    }
    if (!any_due) return t;
    tick();
  }
  throw std::runtime_error(
      "FleetController::run_until_drained: fleet not drained after " +
      std::to_string(max_ticks) + " ticks");
}

void FleetController::checkpoint_all() {
  for (const auto& session : tenants_) session->checkpoint_now(store_);
  std::lock_guard<std::mutex> lock(mutex_);
  drain_tenant_events_locked();
}

FleetStats FleetController::stats() const {
  FleetStats out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.ticks = ticks_;
    out.tenant_steps = total_slots_;
    out.busy_seconds = busy_seconds_;
  }
  out.tenant_steps_per_second =
      out.busy_seconds > 0.0
          ? static_cast<double>(out.tenant_steps) / out.busy_seconds
          : 0.0;
  for (const auto& session : tenants_) {
    const TenantStats stats = session->stats();
    out.checkpoints += stats.checkpoints;
    out.recoveries += stats.recoveries;
    out.deferrals += stats.deferrals;
    switch (session->state()) {
      case TenantState::kQuarantined:
        ++out.quarantined;
        break;
      case TenantState::kDegraded:
        ++out.degraded;
        break;
      case TenantState::kHealthy:
      case TenantState::kRecovering:
        ++out.healthy;
        break;
    }
  }
  return out;
}

std::vector<FleetEvent> FleetController::events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  drain_tenant_events_locked();
  return {events_.begin(), events_.end()};
}

std::uint64_t FleetController::dropped_events() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return dropped_events_;
}

void FleetController::drain_tenant_events_locked() const {
  for (const auto& session : tenants_) {
    dropped_events_ += session->take_dropped_events();
    for (FleetEvent& event : session->drain_events()) {
      events_.push_back(std::move(event));
      if (events_.size() > options_.max_events) {
        events_.pop_front();  // keep the newest
        ++dropped_events_;
      }
    }
  }
}

}  // namespace rs::fleet
