#include "core/dense_problem.hpp"

#include <cmath>
#include <string>

#include "util/audit.hpp"
#include "util/math_util.hpp"
#include "util/thread_pool.hpp"

namespace rs::core {

namespace {

// Eager construction switches to the pool above this many matrix entries;
// below it the task-dispatch overhead dominates the row fills.
constexpr std::size_t kParallelThreshold = 1u << 15;

// Minimizer scans with the exact tie-breaking of smallest_minimizer_scan /
// largest_minimizer_scan (core/cost_function.cpp), on a materialized row.
std::int32_t row_smallest_minimizer(std::span<const double> row) {
  std::size_t best = 0;
  for (std::size_t x = 1; x < row.size(); ++x) {
    if (row[x] < row[best]) best = x;
  }
  return static_cast<std::int32_t>(best);
}

std::int32_t row_largest_minimizer(std::span<const double> row) {
  std::size_t best = 0;
  for (std::size_t x = 1; x < row.size(); ++x) {
    if (row[x] <= row[best]) best = x;  // ties move right
  }
  return static_cast<std::int32_t>(best);
}

}  // namespace

DenseProblem::DenseProblem(const Problem& p, Mode /*mode*/,
                           MinimizerCache minimizers)
    : DenseProblem(p, Unfilled{}, minimizers) {
  const std::size_t rows = static_cast<std::size_t>(T_);
  if (values_.size() >= kParallelThreshold && rows > 1) {
    rs::util::global_pool().parallel_for(
        0, rows, [this, &p](std::size_t i) { fill_rows(p, i, i + 1); });
  } else {
    fill_rows(p, 0, rows);
  }
  seal();
}

DenseProblem::DenseProblem(const Problem& p, Unfilled,
                           MinimizerCache minimizers)
    : T_(p.horizon()),
      m_(p.max_servers()),
      beta_(p.beta()),
      stride_(static_cast<std::size_t>(m_) + 1),
      precompute_minimizers_(minimizers == MinimizerCache::kPrecompute) {
  const std::size_t rows = static_cast<std::size_t>(T_);
  values_.resize(rows * stride_);
  min_small_.assign(rows, -1);
  min_large_.assign(rows, -1);
  nan_rows_.assign(rows, 0);
}

void DenseProblem::fill_rows(const Problem& p, std::size_t first,
                             std::size_t last) {
  assert(last <= nan_rows_.size());
  // Each row is scanned for NaN while it is cache-hot; rows may fill in
  // parallel, so the flags are per row and seal() reduces them.  With
  // kPrecompute the minimizer caches are filled here too, so the table is
  // fully immutable once sealed; kOnDemand defers them to the first query.
  for (std::size_t i = first; i < last; ++i) {
    const std::span<double> out{values_.data() + i * stride_, stride_};
    p.f(static_cast<int>(i) + 1).eval_row(m_, out);
    nan_rows_[i] = rs::util::any_nan(out) ? 1 : 0;
    if (precompute_minimizers_) ensure_minimizers(static_cast<int>(i) + 1);
  }
}

void DenseProblem::seal() {
  for (const std::uint8_t nan : nan_rows_) has_nan_ = has_nan_ || nan != 0;
  nan_rows_ = {};
  RS_AUDIT(audit_rows("DenseProblem::seal"));
}

void DenseProblem::audit_rows(const char* site) const {
  namespace audit = rs::util::audit;
  const std::size_t rows = static_cast<std::size_t>(T_);
  audit::require(stride_ == static_cast<std::size_t>(m_) + 1 &&
                     values_.size() == rows * stride_ &&
                     min_small_.size() == rows && min_large_.size() == rows,
                 "dense-table-shape", site);
  for (std::size_t i = 0; i < rows; ++i) {
    const std::span<const double> row{values_.data() + i * stride_, stride_};
    bool poisoned = false;
    for (const double v : row) {
      // NaN is deliberately allowed: poisoned instances travel the dense
      // path so the solvers can classify them.
      audit::require(v != -rs::util::kInf && !(v < 0.0),
                     "dense-row-nonnegative", site);
      poisoned = poisoned || v != v;  // rs-lint: float-eq-ok (NaN probe)
    }
    // A poisoned row has no well-defined argmin (NaN poisons every
    // comparison), so the cache cross-check only applies to clean rows.
    if (!poisoned && min_small_[i] >= 0) {
      audit::require_with(
          min_small_[i] == row_smallest_minimizer(row) &&
              min_large_[i] == row_largest_minimizer(row),
          "dense-minimizer-cache", site,
          [&] { return "row " + std::to_string(i + 1); });
    }
  }
}

void DenseProblem::ensure_minimizers(int t) const {
  const std::size_t i = static_cast<std::size_t>(t - 1);
  if (min_small_[i] >= 0) return;
  const std::span<const double> values{values_.data() + i * stride_, stride_};
  min_small_[i] = row_smallest_minimizer(values);
  min_large_[i] = row_largest_minimizer(values);
}

}  // namespace rs::core
