// Offline optimal schedule from the Lemma-11 backward recursion:
//
//   x̂_{T+1} = 0,   x̂_t = [ x̂_{t+1} ]^{x^U_t}_{x^L_t}  for t = T..1,
//
// i.e. project the successor state into the online bound corridor.  Lemma 11
// proves the result is optimal; this gives an O(T·m) optimal solver whose
// machinery is shared with the online LCP algorithm, and an executable
// witness for the Lemma-6/11 property tests.
#pragma once

#include "core/slot_source.hpp"
#include "offline/solver.hpp"
#include "offline/work_function.hpp"

namespace rs::offline {

/// The reference solver: an explicit dense bound pass over any input form,
/// the schedule priced by total_cost (the property tests' witness).
class BackwardSolver final : public OfflineSolver {
 public:
  OfflineResult solve(const rs::core::SlotSource& source) const override;
  std::string name() const override { return "backward_lemma11"; }
};

/// The Lemma-11 schedule for precomputed bounds (exposed for tests).
rs::core::Schedule backward_schedule(const BoundTrajectory& bounds);

/// The one offline corridor solve, over any input form.  The DP labels
/// coincide with the bound work function Ĉ^L (eq. 11), so one tracker pass
/// (track_slots, kAuto) yields the optimal cost min Ĉ^L_T and the per-slot
/// corridor, whose backward projection (backward_schedule) is an optimal
/// schedule — no parent table.  Time O(T·(K + B)) on the PWL backend, else
/// O(T·m); memory O(T) corridor ints plus O(K) or O(m) labels, and no
/// corridor at all without `want_schedule`.  The schedule follows the
/// shared tie rule (core/tie_rule.hpp), so it is bitwise the same for every
/// input form and backend; kAuto is resolved per instance, so the cost is
/// too wherever a slot has no compact form (all forms run dense labels).
/// A NaN slot cost throws std::invalid_argument.
OfflineResult corridor_solve(const rs::core::SlotSource& source,
                             bool want_schedule = true);

/// What corridor_solve reads off its finished pass: the cost min Ĉ^L_T of
/// `tracker` (0 when it advanced no slot) and, when `bounds` holds the
/// pass's corridor and the cost is finite, the backward projection through
/// it.  The batch engine calls it on the one corridor pass it shares
/// between LCP replays and low-memory solves of an instance.
OfflineResult corridor_optimum(const WorkFunctionTracker& tracker,
                               const BoundTrajectory* bounds);

}  // namespace rs::offline
