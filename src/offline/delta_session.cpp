#include "offline/delta_session.hpp"

#include <algorithm>
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

// The offline result of a solved corridor: the Lemma-11 backward clamp.
OfflineResult solved(double cost, const BoundTrajectory& bounds) {
  OfflineResult result;
  result.cost = cost;
  if (result.feasible()) result.schedule = backward_schedule(bounds);
  return result;
}

// Writes a repair's corridor over the slots it replayed.
void splice(BoundTrajectory& bounds, const WorkFunctionTracker::Repair& r) {
  const auto at = static_cast<std::ptrdiff_t>(r.first_slot - 1);
  std::copy(r.lower.begin(), r.lower.end(), bounds.lower.begin() + at);
  std::copy(r.upper.begin(), r.upper.end(), bounds.upper.begin() + at);
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

const OfflineResult& DpDeltaSession::result() {
  if (schedule_dirty_) {
    result_ = solved(cost_, bounds_);
    schedule_dirty_ = false;
  }
  return result_;
}

void DpDeltaSession::check_edit(int slot, const rs::core::CostPtr& cost) const {
  if (cost == nullptr) {
    throw std::invalid_argument("DpDeltaSession: null edit cost");
  }
  if (slot < 1 || slot > horizon()) {
    throw std::invalid_argument("DpDeltaSession: edit slot outside [1, T]");
  }
}

DpDeltaSession DpDeltaSession::edited(int slot, rs::core::CostPtr cost,
                                      DeltaStats* stats) const {
  std::vector<rs::core::CostPtr> costs = costs_;
  costs[static_cast<std::size_t>(slot - 1)] = std::move(cost);
  DpDeltaSession fresh(rs::core::Problem(m_, beta_, std::move(costs)),
                       backend_);
  if (stats != nullptr) *stats = {horizon(), false, true};
  return fresh;
}

bool DpDeltaSession::may_turn_pwl(int slot,
                                  const rs::core::CostFunction& cost) const {
  const int budget = rs::core::compact_pwl_budget_for(m_);
  if (backend_ != WorkFunctionTracker::Backend::kAuto ||
      tracker_.using_pwl() || !cost.as_convex_pwl(m_, budget)) {
    return false;
  }
  // The scan stops at the first other opaque slot, so it converts no more
  // slots than the re-solve it may spare.
  for (std::size_t t = 0; t < costs_.size(); ++t) {
    if (t + 1 != static_cast<std::size_t>(slot) &&
        !costs_[t]->as_convex_pwl(m_, budget)) {
      return false;
    }
  }
  return true;
}

void DpDeltaSession::resolve_delta(int slot, rs::core::CostPtr cost,
                                   DeltaStats* stats) {
  check_edit(slot, cost);
  if (may_turn_pwl(slot, *cost)) {
    *this = edited(slot, std::move(cost), stats);
    return;
  }
  try {
    const WorkFunctionTracker::Repair repair =
        tracker_.repair_from(slot, *cost);
    splice(bounds_, repair);
    cost_ = repair.chat_min;
    costs_[static_cast<std::size_t>(slot - 1)] = std::move(cost);
    schedule_dirty_ = true;
    if (stats != nullptr) {
      *stats = {repair.slots_replayed, repair.early_exit, false};
    }
  } catch (const std::invalid_argument&) {
    // The edit changed the kAuto backend trajectory (or has no PWL form on
    // a forced-PWL session): repair cannot reproduce the from-scratch run,
    // so do the from-scratch run.  The repair left the session untouched,
    // and a throwing re-solve (forced-PWL, non-convertible edit) leaves it
    // so too.
    *this = edited(slot, std::move(cost), stats);
  }
}

OfflineResult DpDeltaSession::probe_delta(int slot, rs::core::CostPtr cost,
                                          DeltaStats* stats) const {
  check_edit(slot, cost);
  if (may_turn_pwl(slot, *cost)) {
    return edited(slot, std::move(cost), stats).result();
  }
  try {
    const WorkFunctionTracker::Repair repair = tracker_.probe_from(slot, *cost);
    BoundTrajectory bounds = bounds_;
    splice(bounds, repair);
    if (stats != nullptr) {
      *stats = {repair.slots_replayed, repair.early_exit, false};
    }
    return solved(repair.chat_min, bounds);
  } catch (const std::invalid_argument&) {
    return edited(slot, std::move(cost), stats).result();
  }
}

}  // namespace rs::offline
