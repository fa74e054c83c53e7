// Common interface of the offline optimal solvers (Section 2).
#pragma once

#include <string>

#include "core/schedule.hpp"
#include "core/slot_source.hpp"

namespace rs::offline {

struct OfflineResult {
  rs::core::Schedule schedule;  // empty iff the instance is infeasible
  double cost = rs::util::kInf;

  bool feasible() const noexcept { return std::isfinite(cost); }
};

/// An algorithm computing an optimal schedule for eq. (1), over any input
/// form: a Problem, DenseProblem, PwlProblem or RleProblem binds to the
/// one core::SlotSource entry as is.
class OfflineSolver {
 public:
  virtual ~OfflineSolver() = default;

  /// Computes an optimal schedule and its cost.  All solvers in this module
  /// return schedules with identical (optimal) cost; the schedules
  /// themselves may differ when the optimum is not unique.
  virtual OfflineResult solve(const rs::core::SlotSource& source) const = 0;

  /// Optimal cost only; the default forwards to solve().  Overridden by
  /// solvers that can avoid storing reconstruction state.
  virtual double solve_cost(const rs::core::SlotSource& source) const {
    return solve(source).cost;
  }

  virtual std::string name() const = 0;
};

}  // namespace rs::offline
