// Dense evaluation layer: flat row-major cost tables over a Problem.
//
// Every inner loop of the paper's algorithms (the O(T·m) DP of Theorem 1,
// the work-function tracker behind LCP, the analysis sweeps) reads whole
// rows f_t(0..m).  Evaluating them one state at a time through
// Problem::cost_at pays a bounds check plus a virtual call per point —
// frequently through nested decorator chains (ScaledCost→StrideCost→
// PaddedCost) or a std::function.  DenseProblem materializes the T×(m+1)
// value matrix once via CostFunction::eval_row (one virtual call per row)
// and hands out contiguous spans, turning the solvers into pure
// memory-bandwidth loops.
//
// The eager constructor fills every row (parallelized over
// util::global_pool for large instances), so the table is immutable
// afterwards and safe to share across threads.  A caller that fills many
// tables on its own executor (the batch engine) allocates them unfilled
// instead, fills disjoint row ranges with fill_rows on any threads, and
// seals each table before sharing it; both paths run the same row fill.
// NaN values are kept, not rejected: has_nan() records whether any row
// holds one, so the dense solvers can surface a poisoned instance without
// scanning rows in their inner loops.
//
// Bounds checks are debug assertions here (the Problem API keeps its
// throwing checks); callers cross the boundary once, not per point.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <vector>

#include "core/problem.hpp"

namespace rs::core {

class DenseProblem {
 public:
  /// Kept for call sites that name the mode; every table is eager.
  enum class Mode { kEager };

  /// Kept for call sites that name it; a table caches no minimizers.
  enum class MinimizerCache { kPrecompute, kOnDemand };

  explicit DenseProblem(const Problem& p, Mode mode = Mode::kEager,
                        MinimizerCache minimizers = MinimizerCache::kPrecompute);

  /// Tag for the two-phase construction below.
  struct Unfilled {};

  /// Allocates p's T×(m+1) table without evaluating a row.  Fill rows
  /// [0, T) exactly once with fill_rows, then call seal() before any read.
  DenseProblem(const Problem& p, Unfilled);

  /// Evaluates rows first..last-1 (0-based, slots first+1..last) of p, the
  /// Problem this table was allocated for.  Calls on disjoint ranges may
  /// run concurrently; a throwing cost function propagates and leaves the
  /// table unusable.
  void fill_rows(const Problem& p, std::size_t first, std::size_t last);

  /// Completes a filled table: reduces the per-row NaN flags into
  /// has_nan().  Call once, after every fill_rows call has returned.
  void seal();

  int horizon() const noexcept { return T_; }
  int max_servers() const noexcept { return m_; }
  double beta() const noexcept { return beta_; }

  /// True when some f_t(x) is NaN (a poisoned instance).
  bool has_nan() const noexcept { return has_nan_; }

  /// Contiguous values f_t(0..m) (paper's 1-based t).
  std::span<const double> row(int t) const {
    assert(t >= 1 && t <= T_);
    return {values_.data() + static_cast<std::size_t>(t - 1) * stride_,
            stride_};
  }

  /// f_t(x) by direct table lookup (debug-assert bounds).
  double at(int t, int x) const {
    assert(x >= 0 && x <= m_);
    return row(t)[static_cast<std::size_t>(x)];
  }

  /// Deep row-invariant audit (util/audit.hpp; DESIGN.md §13): table shape
  /// consistent (T×(m+1) values) and no row containing -inf or a negative
  /// value (extended-real costs live in [0, +inf]; NaN is legal here —
  /// poisoned instances are *detected* on the dense path, not rejected by
  /// it).  Raises
  /// rs::util::audit::AuditError naming the violated invariant.  Always
  /// compiled; the RS_AUDIT hook after construction engages only under
  /// RIGHTSIZER_AUDIT.
  void audit_rows(const char* site) const;

 private:
  friend struct DenseProblemTestAccess;

  int T_;
  int m_;
  double beta_;
  std::size_t stride_;          // m + 1
  std::vector<double> values_;  // T x (m+1), row-major
  bool has_nan_ = false;
  std::vector<std::uint8_t> nan_rows_;  // per-row flags until seal()
};

/// Test-only corruption hooks for the auditor's negative tests
/// (tests/test_audit.cpp).  Never use outside tests.
struct DenseProblemTestAccess {
  static std::vector<double>& values(DenseProblem& d) noexcept {
    return d.values_;
  }
};

}  // namespace rs::core
