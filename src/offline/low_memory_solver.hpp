// Optimal schedules with O(m + T) working memory, for instances whose
// T·(m+1) parent table (DpSolver's dense path) would not fit.
//
// The solve is the Lemma-11 corridor solve (offline/backward_solver.hpp):
// one work-function pass keeps the per-slot corridor (x^L_t, x^U_t) — T
// pairs of ints — and the labels Ĉ^L, O(m) dense or O(K) when every slot
// admits a compact convex-PWL form; the backward projection through the
// corridor is an optimal schedule.  Each slot is read once (an RleProblem
// run once), and the schedule follows the shared tie rule, so it is
// bitwise the same for every input form and backend.  A NaN slot cost
// throws std::invalid_argument.
#pragma once

#include "core/slot_source.hpp"
#include "offline/backward_solver.hpp"
#include "offline/solver.hpp"

namespace rs::offline {

class LowMemorySolver final : public OfflineSolver {
 public:
  /// Solves any input form: PwlProblem forms run the PWL labels with no
  /// conversion, DenseProblem rows the dense labels, and Problem or
  /// RleProblem slots convert as they are fed (dense labels from slot 1
  /// when some slot has no compact form, bitwise the table's solve).
  OfflineResult solve(const rs::core::SlotSource& source) const override {
    return corridor_solve(source);
  }

  std::string name() const override { return "low_memory"; }
};

}  // namespace rs::offline
