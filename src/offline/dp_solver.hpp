// Exact dynamic program over the full state space.
//
// Computes W_t(x) = min_{x'} { W_{t-1}(x') + β(x − x')⁺ } + f_t(x) for all
// x in {0,..,m}.  One step is the in-place two-pass relax + add of
// offline/dense_step.hpp (a forward power-up fold, then a backward
// free-power-down fold fused with the f_t addition), so it costs O(m) —
// O(T·m) total, the standard baseline the paper's O(T·log m) algorithm
// improves on (a naive shortest-path in the Figure-1 graph would be
// O(T·m²)).
//
// Backends:
//   kDense      — the O(T·m) table DP above with parent-pointer schedule
//                 reconstruction; the reference tie-breaking.  Its labels,
//                 the cost-only DP's and the dense work-function tracker's
//                 come from the same step, so the three are bitwise equal
//                 for every β.
//   kConvexAuto — convex fast path, the Lemma-11 corridor solve
//                 (corridor_solve, offline/backward_solver.hpp): W_t is
//                 exactly the bound work function Ĉ^L_t (eq. 11), so when
//                 every slot admits a compact convex-PWL form the labels
//                 are maintained as convex piecewise-linear functions
//                 (per-step cost independent of m), the optimal cost is
//                 min Ĉ^L_T, and an optimal schedule follows from the
//                 Lemma-11 backward projection through the per-step bound
//                 corridor.  One slot without a compact form runs the
//                 whole instance on the same dense step (still O(T·m),
//                 no parent table), and the cost is then bitwise kDense's;
//                 on PWL labels it agrees with kDense up to FP association
//                 order (bit-identical on integer instances).  The schedule is
//                 optimal but tie-breaks per Lemma 11 rather than per the
//                 parent-pointer reconstruction.
#pragma once

#include "core/slot_source.hpp"
#include "offline/solver.hpp"

namespace rs::offline {

class DpDeltaSession;

class DpSolver final : public OfflineSolver {
 public:
  enum class Backend { kDense, kConvexAuto };

  DpSolver() : DpSolver(Backend::kDense) {}
  explicit DpSolver(Backend backend) : backend_(backend) {}

  /// Solves any input form; the one implementation entry.  The form
  /// decides the backend of materialized inputs — DenseProblem rows run
  /// the table DP, PwlProblem forms run the convex fast path — and
  /// `backend` applies to Problem and RleProblem sources, whose rows are
  /// streamed through CostFunction::eval_row (once per RLE run): the
  /// per-step cost is a contiguous O(m) scan with no virtual dispatch in
  /// the inner loop.  On the table DP a NaN slot cost yields a NaN cost
  /// and no schedule (the convex path rejects it with invalid_argument).
  OfflineResult solve(const rs::core::SlotSource& source) const override;

  /// O(m)-memory variant that skips parent bookkeeping (O(K)-memory on the
  /// convex fast path); used by the scaling benchmarks where T·m parent
  /// tables would not fit.  Same backend selection as solve().
  double solve_cost(const rs::core::SlotSource& source) const override;

  Backend backend() const noexcept { return backend_; }

  /// Solves `p` and keeps the solution live for incremental re-solves:
  /// edited slots are repaired in place via the work-function rewind buffer
  /// (offline/delta_session.hpp) instead of replaying the horizon.  The
  /// session labels follow this solver's backend (kConvexAuto → PWL or
  /// dense per instance, kDense → dense label rows); defined in
  /// delta_session.cpp.
  DpDeltaSession begin_delta(const rs::core::Problem& p) const;

  std::string name() const override { return "dp"; }

 private:
  // Whether `source` takes the convex fast path (forms always; Problem and
  // RleProblem under kConvexAuto) rather than the table DP.
  bool runs_convex(const rs::core::SlotSource& source) const noexcept;

  Backend backend_ = Backend::kDense;
};

/// The kDense table DP itself, from a pinned start x_0 = `start_state`
/// (0 for the paper's problem): labels over the source's rows (a
/// DenseProblem's table views, or rows streamed once per run through
/// eval_row), parent pointers, and a backtrack from the cheapest final
/// state, since powering down at the end is free.  RHC and AFHC plan their
/// windows with it (online/receding_horizon.hpp).  Scratch comes from the
/// calling thread's workspace, so repeated solves do not allocate once it
/// has grown.  An infeasible source returns cost +inf and no schedule.  A
/// NaN anywhere in a row returns cost NaN and no schedule: the source's
/// NaN report decides that, because the min folds would drop the NaN.
/// Throws std::invalid_argument if `start_state` is outside [0, m].
OfflineResult solve_dense(const rs::core::SlotSource& source,
                          int start_state = 0);

}  // namespace rs::offline
