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
    : T_(p.horizon()),
      m_(p.max_servers()),
      beta_(p.beta()),
      stride_(static_cast<std::size_t>(m_) + 1) {
  values_.resize(static_cast<std::size_t>(T_) * stride_);
  min_small_.assign(static_cast<std::size_t>(T_), -1);
  min_large_.assign(static_cast<std::size_t>(T_), -1);
  if (T_ == 0) return;

  // Each row is scanned for NaN while it is cache-hot; rows may fill in
  // parallel, so the flags are per row and reduced afterwards.  With
  // kPrecompute the minimizer caches are filled here too, so the table is
  // fully immutable afterwards; kOnDemand defers them to the first query.
  std::vector<std::uint8_t> nan_rows(static_cast<std::size_t>(T_), 0);
  const bool precompute = minimizers == MinimizerCache::kPrecompute;
  const auto build_row = [this, &p, &nan_rows, precompute](std::size_t i) {
    const std::span<double> out{values_.data() + i * stride_, stride_};
    p.f(static_cast<int>(i) + 1).eval_row(m_, out);
    nan_rows[i] = rs::util::any_nan(out) ? 1 : 0;
    if (precompute) ensure_minimizers(static_cast<int>(i) + 1);
  };
  if (values_.size() >= kParallelThreshold && T_ > 1) {
    rs::util::global_pool().parallel_for(0, static_cast<std::size_t>(T_),
                                         build_row);
  } else {
    for (std::size_t i = 0; i < static_cast<std::size_t>(T_); ++i) {
      build_row(i);
    }
  }
  for (const std::uint8_t nan : nan_rows) has_nan_ = has_nan_ || nan != 0;
  RS_AUDIT(audit_rows("DenseProblem::DenseProblem"));
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
