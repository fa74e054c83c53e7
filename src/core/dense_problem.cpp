#include "core/dense_problem.hpp"

#include <cmath>

#include "util/audit.hpp"
#include "util/math_util.hpp"
#include "util/thread_pool.hpp"

namespace rs::core {

namespace {

// Eager construction switches to the pool above this many matrix entries;
// below it the task-dispatch overhead dominates the row fills.
constexpr std::size_t kParallelThreshold = 1u << 15;

}  // namespace

DenseProblem::DenseProblem(const Problem& p, Mode /*mode*/,
                           MinimizerCache /*minimizers*/)
    : DenseProblem(p, Unfilled{}) {
  const std::size_t rows = static_cast<std::size_t>(T_);
  if (values_.size() >= kParallelThreshold && rows > 1) {
    rs::util::global_pool().parallel_for(
        0, rows, [this, &p](std::size_t i) { fill_rows(p, i, i + 1); });
  } else {
    fill_rows(p, 0, rows);
  }
  seal();
}

DenseProblem::DenseProblem(const Problem& p, Unfilled)
    : T_(p.horizon()),
      m_(p.max_servers()),
      beta_(p.beta()),
      stride_(static_cast<std::size_t>(m_) + 1) {
  const std::size_t rows = static_cast<std::size_t>(T_);
  values_.resize(rows * stride_);
  nan_rows_.assign(rows, 0);
}

void DenseProblem::fill_rows(const Problem& p, std::size_t first,
                             std::size_t last) {
  assert(last <= nan_rows_.size());
  // Each row is scanned for NaN while it is cache-hot; rows may fill in
  // parallel, so the flags are per row and seal() reduces them.
  for (std::size_t i = first; i < last; ++i) {
    const std::span<double> out{values_.data() + i * stride_, stride_};
    p.f(static_cast<int>(i) + 1).eval_row(m_, out);
    nan_rows_[i] = rs::util::any_nan(out) ? 1 : 0;
  }
}

void DenseProblem::seal() {
  for (const std::uint8_t nan : nan_rows_) has_nan_ = has_nan_ || nan != 0;
  nan_rows_ = {};
  RS_AUDIT(audit_rows("DenseProblem::seal"));
}

void DenseProblem::audit_rows(const char* site) const {
  namespace audit = rs::util::audit;
  audit::require(stride_ == static_cast<std::size_t>(m_) + 1 &&
                     values_.size() == static_cast<std::size_t>(T_) * stride_,
                 "dense-table-shape", site);
  // NaN is deliberately allowed: poisoned instances travel the dense path so
  // the solvers can classify them.
  for (const double v : values_) {
    audit::require(v != -rs::util::kInf && !(v < 0.0), "dense-row-nonnegative",
                   site);
  }
}

}  // namespace rs::core
