// rs-lint: minmax-audited — the label folds are approved branch-free
// kernels: every caller checks a cost row for NaN before stepping it (the
// dense pass of offline/dp_solver.hpp reports a poisoned source, the
// tracker throws), and the RIGHTSIZER_AUDIT labels-nan-free check pins the
// tracker labels (DESIGN.md §13).
//
// The one dense step of the O(T·m) DP of Theorem 1, which is also the
// recursion of the bound work function Ĉ^L (eq. 11, Lemma 7):
//
//   W_t(x) = min_{x'} { W_{t-1}(x') + β(x − x')⁺ } + f_t(x),   x in {0..m},
//
// run in place on the label row in two passes:
//
//   1. forward — the power-up part of the relax:
//        W(x) <- min( W(x), min_{x'<=x} W(x') + β(x − x') );
//   2. backward — free power-down (the suffix minimum of the relaxed row)
//      plus the f_t addition.
//
// Every dense label row in offline/ (the dense pass behind the table DP,
// the cost-only DP and the batch engine, and the work-function tracker)
// steps through this one kernel, so their labels are bitwise equal by
// construction.  Labels and costs are extended reals in [0, +inf], so
// `suffix + f` is +inf exactly when either operand is and the value passes
// carry no isinf guards.  A NaN cost would be dropped by the min folds, so
// callers check the row first; the kernel never throws.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <span>

#include "util/math_util.hpp"

namespace rs::offline {

/// What a dense step writes besides the labels; each caller picks its
/// variant at compile time.
enum class DenseStep {
  kLabels,         // labels only (the cost-only DP)
  kParents,        // labels and one parent pointer per state (the table DP)
  kMinima,         // labels and the tie-rule minima (the corridor)
  kParentsMinima,  // both (a batch pass with schedule and corridor members)
};

/// The two minima the tie rule (core/tie_rule.hpp) reads off a stepped row:
/// min_x W(x) and min_x W(x) − βx.  Filled by the minima variants only.
struct DenseStepMinima {
  double lower = rs::util::kInf;
  double upper = rs::util::kInf;
};

/// Steps the label row `w` (W_{t-1} in, W_t out; m+1 entries) by the cost
/// row `f` (f_t(0..m), NaN-free).  The parent variants write parent[x], the
/// argmin predecessor of state x, under the table DP's tie rule: a power-up
/// from x' < x wins only when strictly better than staying or powering
/// down, and among equal candidates the smallest x' wins.
template <DenseStep kStep>
DenseStepMinima dense_step(std::span<double> w, std::span<const double> f,
                           double beta,
                           [[maybe_unused]] std::int32_t* parent = nullptr) {
  constexpr bool kWithParents =
      kStep == DenseStep::kParents || kStep == DenseStep::kParentsMinima;
  constexpr bool kWithMinima =
      kStep == DenseStep::kMinima || kStep == DenseStep::kParentsMinima;
  assert(f.size() == w.size());
  const int m = static_cast<int>(w.size()) - 1;
  double* label = w.data();
  const double* cost = f.data();

  // Forward.  The parent variants record where each relaxed label came
  // from: the prefix argmin x' < x of W(x') − βx' when the power-up is
  // strictly cheaper, else x itself.
  double best_up = rs::util::kInf;  // min_{x'<=x} W(x') − βx'
  [[maybe_unused]] std::int32_t up_arg = -1;  // its smallest argmin
  for (int x = 0; x <= m; ++x) {
    const double shifted = label[x] - beta * static_cast<double>(x);
    if constexpr (kWithParents) {
      if (shifted < best_up) up_arg = x;
    }
    best_up = std::min(best_up, shifted);
    const double up = best_up + beta * static_cast<double>(x);
    if constexpr (kWithParents) {
      parent[x] = up < label[x] ? up_arg : x;
    }
    label[x] = std::min(label[x], up);
  }

  // Backward.  The parent variants turn each recorded source into the
  // predecessor: the suffix argmin, moved to a smaller state on a tie
  // unless that state was reached by a power-up, which must be strictly
  // cheaper.
  double suffix = rs::util::kInf;  // min_{x'>=x} of the relaxed row
  [[maybe_unused]] std::int32_t suffix_arg = m;
  DenseStepMinima minima;
  for (int x = m; x >= 0; --x) {
    if constexpr (kWithParents) {
      const bool stays = parent[x] == x;
      if (stays ? label[x] <= suffix : label[x] < suffix) {
        suffix_arg = parent[x];
      }
      parent[x] = suffix_arg;
    }
    suffix = std::min(suffix, label[x]);
    label[x] = suffix + cost[x];
    if constexpr (kWithMinima) {
      minima.lower = std::min(minima.lower, label[x]);
      minima.upper =
          std::min(minima.upper, label[x] - beta * static_cast<double>(x));
    }
  }
  return minima;
}

}  // namespace rs::offline
