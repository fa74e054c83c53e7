// rs-lint: minmax-audited — the DP label folds are approved branch-free
// kernels: a poisoned NaN row is surfaced by the `poison` accumulators
// below, never laundered into +inf by std::min (DESIGN.md §13).
#include "offline/dp_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>

#include "offline/backward_solver.hpp"
#include "offline/work_function.hpp"
#include "util/math_util.hpp"
#include "util/workspace.hpp"

namespace rs::offline {

using rs::core::DenseProblem;
using rs::core::Problem;
using rs::core::Schedule;
using rs::util::kInf;
using rs::util::Workspace;

namespace {

// One DP step: given W_{t-1} (in `previous`) and the dense row f_t(0..m),
// writes W_t into `next` and, if `parent` is non-null, records the argmin
// predecessor of each state.  The row comes from CostFunction::eval_row (or
// a DenseProblem), so the loop is branch-light and dispatch-free.
// Tie-breaking: the prefix candidate (largest x' <= x among prefix argmins)
// is preferred only when strictly better than the suffix candidate, and
// argmins keep the smallest x'.
//
// Extended-real arithmetic: labels and row values live in [0, +inf], so
// `transition + f` is +inf exactly when either operand is — the value
// computation carries no isinf guards.  The argmin bookkeeping keeps its
// rarely-taken branches (the predictor makes them free; select chains
// would serialize the loop-carried minima).
void dp_step(std::span<const double> frow, double beta,
             std::span<const double> previous, std::span<double> next,
             std::span<double> suffix_min, std::span<std::int32_t> suffix_arg,
             std::int32_t* parent) {
  const int m = static_cast<int>(frow.size()) - 1;

  // Suffix minima of W_{t-1}: suffix_min[x] = min_{x' >= x} W_{t-1}(x').
  // The suffix workspaces are owned by the caller so the per-step loop is
  // allocation-free.
  suffix_min[static_cast<std::size_t>(m)] = previous[static_cast<std::size_t>(m)];
  suffix_arg[static_cast<std::size_t>(m)] = m;
  for (int x = m - 1; x >= 0; --x) {
    const double here = previous[static_cast<std::size_t>(x)];
    if (here <= suffix_min[static_cast<std::size_t>(x + 1)]) {
      suffix_min[static_cast<std::size_t>(x)] = here;
      suffix_arg[static_cast<std::size_t>(x)] = x;  // smallest argmin
    } else {
      suffix_min[static_cast<std::size_t>(x)] = suffix_min[static_cast<std::size_t>(x + 1)];
      suffix_arg[static_cast<std::size_t>(x)] = suffix_arg[static_cast<std::size_t>(x + 1)];
    }
  }

  // Running prefix minimum of W_{t-1}(x') − β·x'.
  double prefix_min = kInf;
  std::int32_t prefix_arg = -1;
  for (int x = 0; x <= m; ++x) {
    const double shifted =
        previous[static_cast<std::size_t>(x)] - beta * static_cast<double>(x);
    if (shifted < prefix_min) {
      prefix_min = shifted;
      prefix_arg = static_cast<std::int32_t>(x);
    }
    const double up_candidate = prefix_min + beta * static_cast<double>(x);
    const double stay_candidate = suffix_min[static_cast<std::size_t>(x)];
    double transition;
    std::int32_t chosen;
    if (up_candidate < stay_candidate) {
      transition = up_candidate;
      chosen = prefix_arg;
    } else {
      transition = stay_candidate;
      chosen = suffix_arg[static_cast<std::size_t>(x)];
    }
    next[static_cast<std::size_t>(x)] =
        transition + frow[static_cast<std::size_t>(x)];
    if (parent != nullptr) parent[x] = chosen;
  }
}

// W_0 encodes x_0 = 0: transitioning to x costs β·x in the power-up
// accounting, folded into the first dp_step via W_0(0) = 0, +inf else.
void initial_labels(std::span<double> w) {
  std::fill(w.begin(), w.end(), kInf);
  w[0] = 0.0;
}

// The full solver parameterized over a row provider `row_at(t)`; shared by
// the streaming (eval_row per step, O(m) extra memory) and the table-backed
// (DenseProblem) entry points.  All scratch comes from the calling thread's
// workspace, so repeated solves are allocation-free after warm-up.
template <typename RowAt>
OfflineResult solve_impl(int T, int m, double beta, RowAt&& row_at) {
  OfflineResult result;
  if (T == 0) {
    result.schedule = {};
    result.cost = 0.0;
    return result;
  }

  const std::size_t width = static_cast<std::size_t>(m) + 1;
  Workspace& workspace = rs::util::this_thread_workspace();
  auto parents =
      workspace.borrow<std::int32_t>(static_cast<std::size_t>(T) * width);
  auto current = workspace.borrow<double>(width);
  auto next = workspace.borrow<double>(width);
  auto suffix_min = workspace.borrow<double>(width);
  auto suffix_arg = workspace.borrow<std::int32_t>(width);
  initial_labels(current.span());
  for (int t = 1; t <= T; ++t) {
    dp_step(row_at(t), beta, current.span(), next.span(), suffix_min.span(),
            suffix_arg.span(),
            parents.data() + static_cast<std::size_t>(t - 1) * width);
    std::swap(current.vec(), next.vec());
  }

  // Final state: cheapest label (power-down to x_{T+1} = 0 is free).
  int best = 0;
  for (int x = 1; x <= m; ++x) {
    if (current[static_cast<std::size_t>(x)] < current[static_cast<std::size_t>(best)]) {
      best = x;
    }
  }
  result.cost = current[static_cast<std::size_t>(best)];
  if (!result.feasible()) return result;

  result.schedule.assign(static_cast<std::size_t>(T), 0);
  int state = best;
  for (int t = T; t >= 1; --t) {
    result.schedule[static_cast<std::size_t>(t - 1)] = state;
    state = parents[static_cast<std::size_t>(t - 1) * width +
                    static_cast<std::size_t>(state)];
  }
  return result;
}

// Cost-only DP: no argmin bookkeeping, so the transition relax runs
// in-place in two passes (forward prefix fold, backward suffix fold fused
// with the f_t addition) — the same extended-real minima as dp_step, hence
// bit-identical labels, at roughly half the memory traffic.  Both passes
// are straight min/add chains with no data-dependent branches.
//
// std::min discards NaN (it loses every `<` comparison), so a NaN row value
// would silently launder into +inf one slot later — indistinguishable from
// legitimate infeasibility.  The branch-free `poison` accumulator keeps this
// entry point consistent with the parent-tracking DP, whose suffix seed
// copies labels verbatim and therefore propagates NaN to the final cost.
template <typename RowAt>
double solve_cost_impl(int T, int m, double beta, RowAt&& row_at) {
  if (T == 0) return 0.0;
  Workspace& workspace = rs::util::this_thread_workspace();
  auto labels = workspace.borrow<double>(static_cast<std::size_t>(m) + 1);
  initial_labels(labels.span());
  double* w = labels.data();
  double poison = 0.0;  // NaN iff any row value was NaN
  for (int t = 1; t <= T; ++t) {
    const std::span<const double> frow = row_at(t);
    double best_shifted = kInf;  // min W_{t-1}(x') − βx'
    for (int x = 0; x <= m; ++x) {
      best_shifted =
          std::min(best_shifted, w[x] - beta * static_cast<double>(x));
      w[x] = std::min(w[x], best_shifted + beta * static_cast<double>(x));
    }
    double suffix = kInf;  // free power-down: min over x' >= x
    for (int x = m; x >= 0; --x) {
      suffix = std::min(suffix, w[x]);
      w[x] = suffix + frow[static_cast<std::size_t>(x)];
      poison += frow[static_cast<std::size_t>(x)];
    }
  }
  if (std::isnan(poison)) return poison;
  return *std::min_element(labels.begin(), labels.end());
}

// The convex fast path: the DP labels coincide with the bound work
// function Ĉ^L (same relax, same f_t addition), so one auto-backend
// tracker pass yields the optimal cost (min Ĉ^L_T) and the per-step bound
// corridor, from which the Lemma-11 backward projection reconstructs an
// optimal schedule without any parent table.  With the PWL backend this is
// O(T·B log K) time and O(T + K) memory; on the dense fallback it is the
// usual O(T·m).
// Shared by the streaming (per-slot conversion inside the tracker) and the
// cached-forms (PwlProblem) entry points; `advance_at(tracker, t)` feeds
// slot t into the tracker.
template <typename AdvanceAt>
OfflineResult solve_convex_impl(int T, int m, double beta, bool want_schedule,
                                WorkFunctionTracker::Backend backend,
                                AdvanceAt&& advance_at) {
  OfflineResult result;
  if (T == 0) {
    result.schedule = {};
    result.cost = 0.0;
    return result;
  }
  WorkFunctionTracker tracker(m, beta, backend);
  BoundTrajectory bounds;
  if (want_schedule) {
    bounds.lower.reserve(static_cast<std::size_t>(T));
    bounds.upper.reserve(static_cast<std::size_t>(T));
  }
  for (int t = 1; t <= T; ++t) {
    advance_at(tracker, t);
    if (want_schedule) {
      bounds.lower.push_back(tracker.x_lower());
      bounds.upper.push_back(tracker.x_upper());
    }
  }
  result.cost = tracker.chat_min();
  if (want_schedule && result.feasible()) {
    result.schedule = backward_schedule(bounds);
  }
  return result;
}

OfflineResult solve_convex_auto(const Problem& p, bool want_schedule) {
  return solve_convex_impl(
      p.horizon(), p.max_servers(), p.beta(), want_schedule,
      WorkFunctionTracker::Backend::kAuto,
      [&p](WorkFunctionTracker& tracker, int t) { tracker.advance(p.f(t)); });
}

OfflineResult solve_convex_cached(const rs::core::PwlProblem& pwl,
                                  bool want_schedule) {
  return solve_convex_impl(pwl.horizon(), pwl.max_servers(), pwl.beta(),
                           want_schedule, WorkFunctionTracker::Backend::kPwl,
                           [&pwl](WorkFunctionTracker& tracker, int t) {
                             tracker.advance(pwl.form(t));
                           });
}

}  // namespace

OfflineResult DpSolver::solve(const Problem& p) const {
  if (backend_ == Backend::kConvexAuto) {
    return solve_convex_auto(p, /*want_schedule=*/true);
  }
  const int m = p.max_servers();
  auto frow = rs::util::this_thread_workspace().borrow<double>(
      static_cast<std::size_t>(m) + 1);
  return solve_impl(p.horizon(), m, p.beta(),
                    [&p, m, &frow](int t) -> std::span<const double> {
                      p.f(t).eval_row(m, frow.span());
                      return frow.span();
                    });
}

OfflineResult DpSolver::solve(const DenseProblem& dense) const {
  return solve_impl(dense.horizon(), dense.max_servers(), dense.beta(),
                    [&dense](int t) { return dense.row(t); });
}

OfflineResult DpSolver::solve(const rs::core::PwlProblem& pwl) const {
  return solve_convex_cached(pwl, /*want_schedule=*/true);
}

double DpSolver::solve_cost(const rs::core::PwlProblem& pwl) const {
  return solve_convex_cached(pwl, /*want_schedule=*/false).cost;
}

double DpSolver::solve_cost(const Problem& p) const {
  if (backend_ == Backend::kConvexAuto) {
    return solve_convex_auto(p, /*want_schedule=*/false).cost;
  }
  const int m = p.max_servers();
  auto frow = rs::util::this_thread_workspace().borrow<double>(
      static_cast<std::size_t>(m) + 1);
  return solve_cost_impl(p.horizon(), m, p.beta(),
                         [&p, m, &frow](int t) -> std::span<const double> {
                           p.f(t).eval_row(m, frow.span());
                           return frow.span();
                         });
}

double DpSolver::solve_cost(const DenseProblem& dense) const {
  return solve_cost_impl(dense.horizon(), dense.max_servers(), dense.beta(),
                         [&dense](int t) { return dense.row(t); });
}

}  // namespace rs::offline
