// Convex-PWL evaluation layer: cached exact forms over a Problem.
//
// The ConvexPwl analog of DenseProblem.  The m-independent backends
// (work-function tracker, LCP, the DP fast path, the grid-restricted
// bounded DP, the low-memory corridor solve) all consume the exact
// convex piecewise-linear form of each slot cost.  Without a cache the
// conversions leak work: SolverEngine's capability probe converts every
// slot and discards the forms, and each routed job re-converts per
// advance.  PwlProblem converts each slot of an instance exactly once
// (pool-parallel for long horizons, mirroring the eager DenseProblem fill)
// and hands out `const ConvexPwl&` views that are immutable after
// construction, hence safe to share across a batch's worker threads the
// way eager DenseProblems are.  (Streaming consumers that see slots one at
// a time keep their own memo: Lcp::decide's sliding form cache converts
// each prediction-window slot once as the window slides, and the fleet's
// SlotFormCache shares forms across tenants.)
//
// Construction is all-or-nothing: try_convert returns nullopt as soon as
// any slot has no exact convex-PWL form within the per-slot breakpoint
// budget, so a non-null PwlProblem *is* the capability certificate that
// admits_compact_pwl(p) merely reports — the engine probes by building the
// cache and keeps it.
#pragma once

#include <optional>
#include <vector>

#include "core/convex_pwl.hpp"
#include "core/problem.hpp"

namespace rs::core {

class PwlProblem {
 public:
  /// Converts every slot of `p`, or returns nullopt on the first slot with
  /// no exact convex-PWL form within `max_breakpoints` (0 = the m-relative
  /// auto budget `compact_pwl_budget_for(m)`, the same rule the tracker's
  /// kAuto backend applies).  Each slot is converted exactly once; slots
  /// are converted in parallel over the global pool for long horizons.
  static std::optional<PwlProblem> try_convert(const Problem& p,
                                               int max_breakpoints = 0);

  int horizon() const noexcept { return static_cast<int>(forms_.size()); }
  int max_servers() const noexcept { return m_; }
  double beta() const noexcept { return beta_; }

  /// Per-slot breakpoint budget the forms were converted under.
  int budget() const noexcept { return budget_; }

  /// Exact form of f_t (paper's 1-based t); immutable, shareable.
  const ConvexPwl& form(int t) const {
    return forms_[static_cast<std::size_t>(t - 1)];
  }

  /// Number of as_convex_pwl conversions performed at construction — one
  /// per slot, by contract.  BatchStats::pwl_conversions sums these so the
  /// one-conversion-per-slot-per-batch invariant is assertable.
  std::size_t conversions() const noexcept { return forms_.size(); }

 private:
  PwlProblem(int m, double beta, int budget, std::vector<ConvexPwl> forms)
      : m_(m), beta_(beta), budget_(budget), forms_(std::move(forms)) {}

  int m_;
  double beta_;
  int budget_;
  std::vector<ConvexPwl> forms_;
};

}  // namespace rs::core
