// rs-lint: minmax-audited — the rolling-label folds are approved
// branch-free kernels: a poisoned NaN row is surfaced by the source's NaN
// report (SlotSource::for_each_row), never laundered into +inf by std::min
// (DESIGN.md §13).
#include "offline/low_memory_solver.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>

#include "util/math_util.hpp"
#include "util/workspace.hpp"

namespace rs::offline {

using rs::core::Schedule;
using rs::core::SlotSource;
using rs::util::kInf;
using rs::util::Workspace;

namespace {

// One forward relax step: labels(x) <- min_x' labels(x') + β(x−x')⁺, then
// += f_t(x).  Identical kernel to the DP solver, kept local for the
// self-contained O(m) memory guarantee.  Labels are extended reals in
// [0, +inf], so the suffix fold and the f_t addition fuse into one
// branchless backward pass (x + inf = inf covers the old isinf guard).
void forward_step(std::span<const double> frow, double beta,
                  std::span<double> labels) {
  const int m = static_cast<int>(frow.size()) - 1;
  double best_shifted = kInf;
  for (int x = 0; x <= m; ++x) {
    best_shifted =
        std::min(best_shifted, labels[static_cast<std::size_t>(x)] -
                                   beta * static_cast<double>(x));
    labels[static_cast<std::size_t>(x)] =
        std::min(labels[static_cast<std::size_t>(x)],
                 best_shifted + beta * static_cast<double>(x));
  }
  double suffix = kInf;
  for (int x = m; x >= 0; --x) {
    suffix = std::min(suffix, labels[static_cast<std::size_t>(x)]);
    labels[static_cast<std::size_t>(x)] =
        suffix + frow[static_cast<std::size_t>(x)];
  }
}

// One backward relax step: given B_t (cost of suffix starting *after* slot
// t from state x), produce B_{t-1}(x) = min_x' β(x'−x)⁺ + f_t(x') + B_t(x').
// `d` is caller-owned scratch so the per-step loop is allocation-free.
void backward_step(std::span<const double> frow, double beta,
                   std::span<double> labels, std::span<double> d) {
  const int m = static_cast<int>(frow.size()) - 1;
  for (int x = 0; x <= m; ++x) {
    labels[static_cast<std::size_t>(x)] =
        labels[static_cast<std::size_t>(x)] + frow[static_cast<std::size_t>(x)];
  }
  // d(x) = min( min_{x'>=x} g(x') + β(x'−x), min_{x'<=x} g(x') ).
  double best_shifted = kInf;
  std::span<double> g = labels;
  for (int x = m; x >= 0; --x) {
    best_shifted = std::min(best_shifted,
                            g[static_cast<std::size_t>(x)] +
                                beta * static_cast<double>(x));
    d[static_cast<std::size_t>(x)] = best_shifted - beta * static_cast<double>(x);
  }
  double prefix = kInf;
  for (int x = 0; x <= m; ++x) {
    prefix = std::min(prefix, g[static_cast<std::size_t>(x)]);
    d[static_cast<std::size_t>(x)] = std::min(d[static_cast<std::size_t>(x)], prefix);
    labels[static_cast<std::size_t>(x)] = d[static_cast<std::size_t>(x)];
  }
}

// PWL mirror of the recursion: identical splits, identical tie-breaks.
// Forward labels follow the work-function recursion (relax then add);
// backward labels follow the completion-cost recursion (add then relax
// with the opposite clip).  Every argmin is taken as ArgminInterval::lo —
// the smallest minimizer, matching the dense scans' strict-< updates.
struct PwlRecursion {
  const rs::core::PwlProblem& pwl;
  Schedule& out;

  rs::core::ConvexPwl forward_labels(int lo, int hi, int start) const {
    rs::core::ConvexPwl w = rs::core::ConvexPwl::point(start, 0.0);
    for (int t = lo; t <= hi; ++t) {
      w.relax_charge_up(pwl.beta(), 0, pwl.max_servers());
      w.add(pwl.form(t));
    }
    return w;
  }

  void run(int lo, int hi, int start, std::optional<int> end) const {
    const int m = pwl.max_servers();
    if (lo > hi) return;
    if (lo == hi) {
      if (end) {
        out[static_cast<std::size_t>(lo - 1)] = *end;
        return;
      }
      // Single slot: smallest argmin of β(x − start)⁺ + f(x); the dense
      // scan leaves `start` in place when every state is infinite.
      const rs::core::ConvexPwl w = forward_labels(lo, lo, start);
      out[static_cast<std::size_t>(lo - 1)] =
          w.is_infinite() ? start : w.argmin().lo;
      return;
    }

    const int mid = lo + (hi - lo) / 2;
    const rs::core::ConvexPwl forward = forward_labels(lo, mid, start);

    rs::core::ConvexPwl backward =
        end ? rs::core::ConvexPwl::point(*end, 0.0)
            : rs::core::ConvexPwl::constant(0, m, 0.0);
    for (int t = hi; t > mid; --t) {
      backward.add(pwl.form(t));
      backward.relax_charge_down(pwl.beta(), 0, m);
    }

    rs::core::ConvexPwl sum = forward;
    sum.add(backward);
    if (sum.is_infinite()) {
      throw std::logic_error("LowMemorySolver: infeasible sub-range");
    }
    const int best_mid = sum.argmin().lo;
    out[static_cast<std::size_t>(mid - 1)] = best_mid;
    run(lo, mid, start, best_mid);  // left half, x_mid pinned
    run(mid + 1, hi, best_mid, end);
  }
};

// The divide-and-conquer recursion re-evaluates each slot O(log T) times;
// rows come from SlotSource::row — streamed through eval_row into the
// shared scratch unless the source is already a table — preserving the
// solver's O(m) memory guarantee.
struct Recursion {
  const SlotSource& source;
  Schedule& out;
  std::span<double> frow;  // shared O(m) row scratch
  const int m = source.max_servers();
  const double beta = source.beta();

  // Serves slots lo..hi given x_{lo-1} = start; if `end` is set, x_hi must
  // equal *end.  Writes the optimal states into out[lo-1..hi-1].
  void run(int lo, int hi, int start, std::optional<int> end) {
    if (lo > hi) return;
    if (lo == hi) {
      if (end) {
        out[static_cast<std::size_t>(lo - 1)] = *end;
        return;
      }
      // Single slot: pick argmin of the direct transition (+inf rows never
      // improve, so the old isinf skip is subsumed by the comparison).
      const std::span<const double> row = source.row(lo, frow);
      int best = start;
      double best_value = kInf;
      for (int x = 0; x <= m; ++x) {
        const double value =
            beta * static_cast<double>(std::max(0, x - start)) +
            row[static_cast<std::size_t>(x)];
        if (value < best_value) {
          best_value = value;
          best = x;
        }
      }
      out[static_cast<std::size_t>(lo - 1)] = best;
      return;
    }

    const int mid = lo + (hi - lo) / 2;
    const std::size_t width = static_cast<std::size_t>(m) + 1;
    Workspace& workspace = rs::util::this_thread_workspace();

    // Forward labels over lo..mid from the pinned start state.
    auto forward = workspace.borrow<double>(width);
    std::fill(forward.begin(), forward.end(), kInf);
    forward[static_cast<std::size_t>(start)] = 0.0;
    for (int t = lo; t <= mid; ++t) {
      forward_step(source.row(t, frow), beta, forward.span());
    }

    // Backward labels over mid+1..hi, terminal condition from `end`.
    auto backward = workspace.borrow<double>(width);
    auto step_scratch = workspace.borrow<double>(width);
    if (end) {
      std::fill(backward.begin(), backward.end(), kInf);
      backward[static_cast<std::size_t>(*end)] = 0.0;
    } else {
      std::fill(backward.begin(), backward.end(), 0.0);
    }
    for (int t = hi; t > mid; --t) {
      backward_step(source.row(t, frow), beta, backward.span(),
                    step_scratch.span());
    }

    int best_mid = -1;
    double best_value = kInf;
    for (int x = 0; x <= m; ++x) {
      const double value = forward[static_cast<std::size_t>(x)] +
                           backward[static_cast<std::size_t>(x)];
      if (value < best_value) {
        best_value = value;
        best_mid = x;
      }
    }
    if (best_mid < 0) {
      throw std::logic_error("LowMemorySolver: infeasible sub-range");
    }
    out[static_cast<std::size_t>(mid - 1)] = best_mid;
    // Release the label scratch before recursing so both halves reuse the
    // same pooled buffers instead of deepening the arena by O(log T).
    forward.reset();
    backward.reset();
    step_scratch.reset();
    run(lo, mid, start, best_mid);  // left half, x_mid pinned
    run(mid + 1, hi, best_mid, end);
  }
};

OfflineResult solve_pwl(const rs::core::PwlProblem& pwl) {
  OfflineResult result;
  const int T = pwl.horizon();
  // Feasibility and optimal value via one forward sweep over the forms;
  // the dense sweep's "min over final labels" is the argmin value.
  PwlRecursion recursion{pwl, result.schedule};
  const rs::core::ConvexPwl final_labels = recursion.forward_labels(1, T, 0);
  result.cost =
      final_labels.is_infinite() ? kInf : final_labels.argmin().value;
  if (!result.feasible()) return result;

  result.schedule.assign(static_cast<std::size_t>(T), 0);
  recursion.run(1, T, 0, std::nullopt);
  return result;
}

OfflineResult solve_dense(const SlotSource& source) {
  OfflineResult result;
  const int T = source.horizon();
  // Feasibility and optimal value via one forward sweep.  std::min discards
  // NaN, so a NaN row value would launder into +inf one slot later; the
  // source's NaN report surfaces it as a NaN cost instead (same guard as
  // DpSolver).
  const std::size_t width = static_cast<std::size_t>(source.max_servers()) + 1;
  Workspace& workspace = rs::util::this_thread_workspace();
  auto frow = workspace.borrow<double>(width);
  auto labels = workspace.borrow<double>(width);
  std::fill(labels.begin(), labels.end(), kInf);
  labels[0] = 0.0;
  const bool poisoned = source.for_each_row(
      frow.span(), [&](std::span<const double> row, int length) {
        for (int i = 0; i < length; ++i) {
          forward_step(row, source.beta(), labels.span());
        }
      });
  double optimum = kInf;
  for (double label : labels) optimum = std::min(optimum, label);
  result.cost = poisoned ? std::numeric_limits<double>::quiet_NaN() : optimum;
  labels.reset();
  if (!result.feasible()) return result;

  result.schedule.assign(static_cast<std::size_t>(T), 0);
  Recursion recursion{source, result.schedule, frow.span()};
  recursion.run(1, T, 0, std::nullopt);
  return result;
}

}  // namespace

OfflineResult LowMemorySolver::solve(const SlotSource& source) const {
  if (source.horizon() == 0) return OfflineResult{{}, 0.0};
  if (const rs::core::PwlProblem* pwl = source.pwl()) return solve_pwl(*pwl);
  if (backend_ == Backend::kConvexAuto && source.has_cost_functions()) {
    // One conversion per slot, up front; the D&C revisits each slot
    // O(log T) times but only ever touches the cached forms.
    const std::optional<rs::core::PwlProblem> pwl =
        source.rle() != nullptr
            ? rs::core::PwlProblem::try_convert(source.rle()->expand())
            : rs::core::PwlProblem::try_convert(*source.problem());
    if (pwl) return solve_pwl(*pwl);
  }
  return solve_dense(source);
}

}  // namespace rs::offline
