#include "offline/backward_solver.hpp"

#include <stdexcept>

#include "util/math_util.hpp"

namespace rs::offline {

rs::core::Schedule backward_schedule(const BoundTrajectory& bounds) {
  if (bounds.lower.size() != bounds.upper.size()) {
    throw std::invalid_argument("backward_schedule: bound size mismatch");
  }
  const int T = static_cast<int>(bounds.lower.size());
  rs::core::Schedule x(static_cast<std::size_t>(T), 0);
  int successor = 0;  // x̂_{T+1} = 0
  for (int t = T; t >= 1; --t) {
    const int lo = bounds.lower[static_cast<std::size_t>(t - 1)];
    const int hi = bounds.upper[static_cast<std::size_t>(t - 1)];
    if (lo > hi) {
      throw std::logic_error("backward_schedule: x^L > x^U (invalid bounds)");
    }
    successor = rs::util::project(successor, lo, hi);
    x[static_cast<std::size_t>(t - 1)] = successor;
  }
  return x;
}

OfflineResult corridor_optimum(double cost, const BoundTrajectory* bounds) {
  OfflineResult result;
  result.cost = cost;
  if (bounds != nullptr && result.feasible()) {
    result.schedule = backward_schedule(*bounds);
  }
  return result;
}

OfflineResult corridor_solve(const rs::core::SlotSource& source,
                             bool want_schedule) {
  BoundTrajectory bounds;
  BoundTrajectory* const kept = want_schedule ? &bounds : nullptr;
  const WorkFunctionTracker tracker =
      track_slots(source, WorkFunctionTracker::Backend::kAuto, kept);
  return corridor_optimum(tracker.tau() == 0 ? 0.0 : tracker.chat_min(),
                          kept);
}

OfflineResult BackwardSolver::solve(const rs::core::SlotSource& source) const {
  OfflineResult result;
  result.schedule = backward_schedule(
      compute_bounds(source, WorkFunctionTracker::Backend::kDense));
  result.cost = rs::core::total_cost(source, result.schedule);
  if (!result.feasible()) result.schedule.clear();
  return result;
}

}  // namespace rs::offline
