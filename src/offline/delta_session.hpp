// Incremental re-solve sessions: delta propagation instead of replay.
//
// A DpDeltaSession keeps a solved instance *live*: the work-function
// tracker that produced the solution stays resident with its rewind buffer
// (offline/work_function.hpp) covering the whole horizon, so editing one
// slot costs a forward repair from the edit point — with a bitwise
// reconvergence early-exit — instead of an O(T) replay.  The repaired
// result (cost, corridor bounds, Lemma-11 schedule) is bit-identical to
// tearing the session down and re-solving the edited instance from scratch
// on the same backend; edits that may flip a kAuto base's whole-instance
// backend choice (a convertible slot becoming non-convertible on a PWL
// base, or vice versa on a dense one) are handled by an automatic full
// re-solve, preserving the same contract.
//
// probe_delta answers what-if questions without touching the session: the
// tracker replays the edit off to the side (WorkFunctionTracker::
// probe_from) and the repaired corridor is spliced into a copy of the
// bounds, so a const session serves concurrent probes.
//
// This is the incremental-propagator idiom of constraint solvers applied
// to the paper's work-function recursion; SolverEngine's kDeltaResolve job
// kind and the fleet's what_if probes are the serving-layer consumers.
#pragma once

#include <vector>

#include "core/problem.hpp"
#include "offline/solver.hpp"
#include "offline/work_function.hpp"

namespace rs::offline {

class DpDeltaSession {
 public:
  /// Per-edit repair statistics.
  struct DeltaStats {
    int slots_repaired = 0;  // slots re-advanced by the repair
    bool early_exit = false;  // labels reconverged before the horizon end
    bool full_replay = false;  // backend trajectory changed: full re-solve
  };

  /// Solves `p` from scratch and keeps the session live.  Requires a
  /// non-empty horizon.  The slot costs are retained (shared_ptr copies);
  /// the Problem itself is not referenced after construction.
  /// `backend` picks the label representation that carries the session
  /// (kAuto = PWL if every slot converts compactly, else dense).
  explicit DpDeltaSession(const rs::core::Problem& p,
                          WorkFunctionTracker::Backend backend =
                              WorkFunctionTracker::Backend::kAuto);

  int horizon() const noexcept { return static_cast<int>(costs_.size()); }
  int max_servers() const noexcept { return m_; }
  double beta() const noexcept { return beta_; }
  WorkFunctionTracker::Backend backend() const noexcept { return backend_; }

  /// Cost of the current (possibly edited) instance; O(1).
  double cost() const noexcept { return cost_; }

  /// Bound corridor of the current instance.
  const BoundTrajectory& bounds() const noexcept { return bounds_; }

  /// Full result; the Lemma-11 schedule is materialized lazily (one O(T)
  /// backward clamp after a batch of edits, not one per edit).
  const OfflineResult& result();

  /// Replaces f_slot (1-based) with `cost` and repairs the labels forward
  /// from the edit.  Bit-identical to re-solving the edited instance from
  /// scratch on this backend.  Throws std::invalid_argument on a null cost
  /// or slot outside [1, T]; a failed repair falls back to the full
  /// re-solve internally (reported via stats->full_replay).
  void resolve_delta(int slot, rs::core::CostPtr cost,
                     DeltaStats* stats = nullptr);

  /// What-if probe: the result resolve_delta(slot, cost) would produce,
  /// leaving the session untouched.  Same validation; `stats` reports the
  /// repair (or the full re-solve of a trajectory-flipping edit).
  OfflineResult probe_delta(int slot, rs::core::CostPtr cost,
                            DeltaStats* stats = nullptr) const;

 private:
  void check_edit(int slot, const rs::core::CostPtr& cost) const;
  // Whether the edit flips a dense kAuto base to PWL: it gives `slot` a
  // compact form and no other slot lacks one (a repair would stay dense).
  bool may_turn_pwl(int slot, const rs::core::CostFunction& cost) const;
  // A fresh session over the current costs with f_slot replaced: the full
  // re-solve of an edit that flips the backend, reported in `stats`.
  DpDeltaSession edited(int slot, rs::core::CostPtr cost,
                        DeltaStats* stats) const;

  int m_;
  double beta_;
  WorkFunctionTracker::Backend backend_;
  std::vector<rs::core::CostPtr> costs_;  // costs_[t-1] = current f_t
  BoundTrajectory bounds_;  // declared before tracker_: the base solve
                            // fills it while constructing the tracker
  WorkFunctionTracker tracker_;
  double cost_ = rs::util::kInf;
  OfflineResult result_;
  bool schedule_dirty_ = true;
};

}  // namespace rs::offline
