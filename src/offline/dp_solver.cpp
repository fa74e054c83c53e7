// rs-lint: minmax-audited — the DP label folds are approved branch-free
// kernels: a poisoned NaN row is surfaced by the source's NaN report
// (SlotSource::for_each_row), never laundered into +inf by std::min
// (DESIGN.md §13).
#include "offline/dp_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>

#include "offline/backward_solver.hpp"
#include "util/math_util.hpp"
#include "util/workspace.hpp"

namespace rs::offline {

using rs::core::SlotSource;
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

// W_0 encodes the pinned x_0: transitioning to x costs β·(x − x_0)⁺,
// folded into the first dp_step via W_0(x_0) = 0, +inf else.
void initial_labels(std::span<double> w, int start_state = 0) {
  std::fill(w.begin(), w.end(), kInf);
  w[static_cast<std::size_t>(start_state)] = 0.0;
}

}  // namespace

OfflineResult solve_dense(const SlotSource& source, int start_state) {
  OfflineResult result;
  const int T = source.horizon();
  const int m = source.max_servers();
  const double beta = source.beta();
  if (start_state < 0 || start_state > m) {
    throw std::invalid_argument("solve_dense: start state outside [0, m]");
  }
  const std::size_t width = static_cast<std::size_t>(m) + 1;
  Workspace& workspace = rs::util::this_thread_workspace();
  auto parents =
      workspace.borrow<std::int32_t>(static_cast<std::size_t>(T) * width);
  auto current = workspace.borrow<double>(width);
  auto next = workspace.borrow<double>(width);
  auto suffix_min = workspace.borrow<double>(width);
  auto suffix_arg = workspace.borrow<std::int32_t>(width);
  auto frow = workspace.borrow<double>(width);
  initial_labels(current.span(), start_state);
  std::int32_t* parent = parents.data();
  const bool poisoned = source.for_each_row(
      frow.span(), [&](std::span<const double> row, int length) {
        for (int i = 0; i < length; ++i, parent += width) {
          dp_step(row, beta, current.span(), next.span(), suffix_min.span(),
                  suffix_arg.span(), parent);
          std::swap(current.vec(), next.vec());
        }
      });
  if (poisoned) {
    result.cost = std::numeric_limits<double>::quiet_NaN();
    return result;
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

namespace {

// Cost-only DP: no argmin bookkeeping, so the transition relax runs
// in-place in two passes (forward prefix fold, backward suffix fold fused
// with the f_t addition) — the same extended-real minima as dp_step, hence
// bit-identical labels, at roughly half the memory traffic.  Both passes
// are straight min/add chains with no data-dependent branches.  std::min
// discards NaN (it loses every `<` comparison), so a poisoned row is
// classified by the source's NaN report, as in solve_dense.
double solve_cost_dense(const SlotSource& source) {
  const int m = source.max_servers();
  const double beta = source.beta();
  Workspace& workspace = rs::util::this_thread_workspace();
  auto labels = workspace.borrow<double>(static_cast<std::size_t>(m) + 1);
  auto frow = workspace.borrow<double>(static_cast<std::size_t>(m) + 1);
  initial_labels(labels.span());
  double* w = labels.data();
  const bool poisoned = source.for_each_row(
      frow.span(), [&](std::span<const double> row, int length) {
        for (int i = 0; i < length; ++i) {
          double best_shifted = kInf;  // min W_{t-1}(x') − βx'
          for (int x = 0; x <= m; ++x) {
            best_shifted =
                std::min(best_shifted, w[x] - beta * static_cast<double>(x));
            w[x] = std::min(w[x], best_shifted + beta * static_cast<double>(x));
          }
          double suffix = kInf;  // free power-down: min over x' >= x
          for (int x = m; x >= 0; --x) {
            suffix = std::min(suffix, w[x]);
            w[x] = suffix + row[static_cast<std::size_t>(x)];
          }
        }
      });
  if (poisoned) return std::numeric_limits<double>::quiet_NaN();
  return *std::min_element(labels.begin(), labels.end());
}

}  // namespace

bool DpSolver::runs_convex(const SlotSource& source) const noexcept {
  return source.pwl() != nullptr ||
         (source.has_cost_functions() && backend_ == Backend::kConvexAuto);
}

OfflineResult DpSolver::solve(const SlotSource& source) const {
  if (source.horizon() == 0) return OfflineResult{{}, 0.0};
  return runs_convex(source) ? corridor_solve(source) : solve_dense(source);
}

double DpSolver::solve_cost(const SlotSource& source) const {
  if (source.horizon() == 0) return 0.0;
  return runs_convex(source)
             ? corridor_solve(source, /*want_schedule=*/false).cost
             : solve_cost_dense(source);
}

}  // namespace rs::offline
