#include "offline/delta_session.hpp"

#include <stdexcept>
#include <utility>

#include "offline/backward_solver.hpp"
#include "offline/dp_solver.hpp"

namespace rs::offline {

DpDeltaSession DpSolver::begin_delta(const rs::core::Problem& p) const {
  return DpDeltaSession(p, backend_ == Backend::kDense
                               ? WorkFunctionTracker::Backend::kDense
                               : WorkFunctionTracker::Backend::kAuto);
}

namespace {

WorkFunctionTracker make_base_tracker(const rs::core::Problem& p,
                                      WorkFunctionTracker::Backend backend,
                                      BoundTrajectory& bounds) {
  if (p.horizon() == 0) {
    throw std::invalid_argument("DpDeltaSession: empty horizon");
  }
  // One rewind entry per slot (the base solve advances slot-by-slot), and
  // repairs never split single-slot entries, so horizon-many entries cover
  // every future edit.
  return track_slots(p, backend, &bounds, p.horizon());
}

}  // namespace

DpDeltaSession::DpDeltaSession(const rs::core::Problem& p,
                               WorkFunctionTracker::Backend backend)
    : m_(p.max_servers()),
      beta_(p.beta()),
      backend_(backend),
      costs_([&p] {
        std::vector<rs::core::CostPtr> costs;
        costs.reserve(static_cast<std::size_t>(p.horizon()));
        for (int t = 1; t <= p.horizon(); ++t) costs.push_back(p.f_ptr(t));
        return costs;
      }()),
      tracker_(make_base_tracker(p, backend_, bounds_)) {
  cost_ = tracker_.chat_min();
}

void DpDeltaSession::rebuild() {
  BoundTrajectory bounds;
  WorkFunctionTracker fresh = make_base_tracker(
      rs::core::Problem(m_, beta_, costs_), backend_, bounds);
  tracker_ = std::move(fresh);
  bounds_ = std::move(bounds);
  cost_ = tracker_.chat_min();
  schedule_dirty_ = true;
}

const OfflineResult& DpDeltaSession::result() {
  if (schedule_dirty_) {
    result_.cost = cost_;
    result_.schedule =
        result_.feasible() ? backward_schedule(bounds_) : rs::core::Schedule{};
    schedule_dirty_ = false;
  }
  return result_;
}

void DpDeltaSession::resolve_delta(int slot, rs::core::CostPtr cost,
                                   DeltaStats* stats) {
  if (cost == nullptr) {
    throw std::invalid_argument("DpDeltaSession::resolve_delta: null cost");
  }
  if (slot < 1 || slot > horizon()) {
    throw std::invalid_argument(
        "DpDeltaSession::resolve_delta: slot outside [1, T]");
  }
  rs::core::CostPtr previous =
      std::exchange(costs_[static_cast<std::size_t>(slot - 1)],
                    std::move(cost));
  try {
    WorkFunctionTracker::Repair repair = tracker_.repair_from(
        slot, *costs_[static_cast<std::size_t>(slot - 1)]);
    for (std::size_t i = 0; i < repair.lower.size(); ++i) {
      const std::size_t at = static_cast<std::size_t>(slot - 1) + i;
      bounds_.lower[at] = repair.lower[i];
      bounds_.upper[at] = repair.upper[i];
    }
    cost_ = tracker_.chat_min();
    schedule_dirty_ = true;
    if (stats != nullptr) {
      stats->slots_repaired = repair.slots_replayed;
      stats->early_exit = repair.early_exit;
      stats->full_replay = false;
    }
  } catch (const std::invalid_argument&) {
    // The edit changed the kAuto backend trajectory (or has no PWL form on
    // a forced-PWL session): repair cannot reproduce the from-scratch run,
    // so do the from-scratch run.  rebuild() has the strong guarantee; if
    // it throws too (forced-PWL, non-convertible edit), undo the mirror so
    // the session still matches its tracker.
    try {
      rebuild();
    } catch (...) {  // rs-lint: catch-all-ok (undo the mirror + rethrow)
      costs_[static_cast<std::size_t>(slot - 1)] = std::move(previous);
      throw;
    }
    if (stats != nullptr) {
      stats->slots_repaired = horizon();
      stats->early_exit = false;
      stats->full_replay = true;
    }
  }
}

OfflineResult DpDeltaSession::probe_delta(int slot, rs::core::CostPtr cost,
                                          DeltaStats* stats) {
  if (slot < 1 || slot > horizon()) {
    throw std::invalid_argument(
        "DpDeltaSession::probe_delta: slot outside [1, T]");
  }
  rs::core::CostPtr previous = costs_[static_cast<std::size_t>(slot - 1)];
  resolve_delta(slot, std::move(cost), stats);
  OfflineResult probed = result();
  // Repairing the original cost back in reproduces the original states:
  // the inverse repair reconverges exactly where the forward one did (the
  // stored post-states beyond that boundary are the original run's), so
  // the session is restored bitwise — no snapshot needed.
  resolve_delta(slot, std::move(previous), nullptr);
  return probed;
}

}  // namespace rs::offline
