#include "offline/dp_solver.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>

#include "core/tie_rule.hpp"
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
void initial_labels(std::span<double> w, int start_state) {
  std::fill(w.begin(), w.end(), kInf);
  w[static_cast<std::size_t>(start_state)] = 0.0;
}

// Steps `labels` through every row of `source` with one kernel variant:
// the parent variants write slot t's parents at parent + (t − 1)·(m + 1),
// the minima variants slot t's corridor.  Returns whether a row held a NaN;
// from that row on the labels stay put, but the rows are still evaluated.
template <DenseStep kStep>
bool step_rows(const SlotSource& source, std::span<double> labels,
               [[maybe_unused]] std::int32_t* parent,
               [[maybe_unused]] BoundTrajectory* corridor) {
  constexpr bool kWithParents =
      kStep == DenseStep::kParents || kStep == DenseStep::kParentsMinima;
  constexpr bool kWithCorridor =
      kStep == DenseStep::kMinima || kStep == DenseStep::kParentsMinima;
  const std::size_t width = labels.size();
  const double beta = source.beta();
  // A table knows from its construction whether it holds a NaN, so a clean
  // one is not scanned again.
  const bool scan = source.dense() == nullptr || source.dense()->has_nan();
  auto frow = rs::util::this_thread_workspace().borrow<double>(width);
  bool poisoned = false;
  std::size_t t = 0;  // 0-based slot
  source.for_each_row(frow.span(), [&](std::span<const double> row,
                                       int length) {
    poisoned = poisoned || (scan && rs::util::any_nan(row));
    if (poisoned) return;
    for (int i = 0; i < length; ++i, ++t) {
      std::int32_t* slot_parent = nullptr;
      if constexpr (kWithParents) slot_parent = parent + t * width;
      const DenseStepMinima minima =
          dense_step<kStep>(labels, row, beta, slot_parent);
      if constexpr (kWithCorridor) {
        const rs::core::Corridor c = rs::core::tie_corridor(
            labels, labels, beta, minima.lower, minima.upper);
        corridor->lower[t] = c.lower;
        corridor->upper[t] = c.upper;
      }
    }
  });
  return poisoned;
}

}  // namespace

OfflineResult dense_pass(const SlotSource& source, bool want_schedule,
                         BoundTrajectory* corridor, int start_state) {
  OfflineResult result;
  const int T = source.horizon();
  const int m = source.max_servers();
  if (start_state < 0 || start_state > m) {
    throw std::invalid_argument("dense_pass: start state outside [0, m]");
  }
  const std::size_t width = static_cast<std::size_t>(m) + 1;
  const std::size_t horizon = static_cast<std::size_t>(T);
  Workspace& workspace = rs::util::this_thread_workspace();
  auto labels = workspace.borrow<double>(width);
  initial_labels(labels.span(), start_state);
  if (corridor != nullptr) {
    corridor->lower.assign(horizon, 0);
    corridor->upper.assign(horizon, 0);
  }
  Workspace::Buffer<std::int32_t> parents;
  bool poisoned = false;
  if (want_schedule) {
    parents = workspace.borrow<std::int32_t>(horizon * width);
    poisoned = corridor != nullptr
                   ? step_rows<DenseStep::kParentsMinima>(
                         source, labels.span(), parents.data(), corridor)
                   : step_rows<DenseStep::kParents>(source, labels.span(),
                                                    parents.data(), nullptr);
  } else {
    poisoned = corridor != nullptr
                   ? step_rows<DenseStep::kMinima>(source, labels.span(),
                                                   nullptr, corridor)
                   : step_rows<DenseStep::kLabels>(source, labels.span(),
                                                   nullptr, nullptr);
  }
  if (poisoned) {
    result.cost = std::numeric_limits<double>::quiet_NaN();
    return result;
  }

  // Final state: cheapest label (power-down to x_{T+1} = 0 is free).
  int best = 0;
  for (int x = 1; x <= m; ++x) {
    if (labels[static_cast<std::size_t>(x)] <
        labels[static_cast<std::size_t>(best)]) {
      best = x;
    }
  }
  result.cost = labels[static_cast<std::size_t>(best)];
  if (!want_schedule || !result.feasible()) return result;

  result.schedule.assign(horizon, 0);
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
             : dense_pass(source, /*want_schedule=*/false, nullptr).cost;
}

}  // namespace rs::offline
