#include "offline/dp_solver.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>

#include "offline/backward_solver.hpp"
#include "offline/dense_step.hpp"
#include "util/math_util.hpp"
#include "util/workspace.hpp"

namespace rs::offline {

using rs::core::SlotSource;
using rs::util::kInf;
using rs::util::Workspace;

namespace {

// W_0 encodes the pinned x_0: transitioning to x costs β·(x − x_0)⁺,
// folded into the first step via W_0(x_0) = 0, +inf else.
void initial_labels(std::span<double> w, int start_state = 0) {
  std::fill(w.begin(), w.end(), kInf);
  w[static_cast<std::size_t>(start_state)] = 0.0;
}

// Cost-only DP: the same step without parent bookkeeping, so O(m) memory.
// The step's folds discard NaN, so a poisoned row is classified by the
// source's NaN report, as in solve_dense.
double solve_cost_dense(const SlotSource& source) {
  const std::size_t width = static_cast<std::size_t>(source.max_servers()) + 1;
  const double beta = source.beta();
  Workspace& workspace = rs::util::this_thread_workspace();
  auto labels = workspace.borrow<double>(width);
  auto frow = workspace.borrow<double>(width);
  initial_labels(labels.span());
  const bool poisoned = source.for_each_row(
      frow.span(), [&](std::span<const double> row, int length) {
        for (int i = 0; i < length; ++i) {
          dense_step<DenseStep::kLabels>(labels.span(), row, beta);
        }
      });
  if (poisoned) return std::numeric_limits<double>::quiet_NaN();
  return *std::min_element(labels.begin(), labels.end());
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
  auto frow = workspace.borrow<double>(width);
  initial_labels(current.span(), start_state);
  std::int32_t* parent = parents.data();
  const bool poisoned = source.for_each_row(
      frow.span(), [&](std::span<const double> row, int length) {
        for (int i = 0; i < length; ++i, parent += width) {
          dense_step<DenseStep::kParents>(current.span(), row, beta, parent);
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
