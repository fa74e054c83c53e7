#include "core/cost_function.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/workspace.hpp"

namespace rs::core {

using util::kInf;

double CostFunction::at_real(double x) const {
  if (x < 0.0) throw std::invalid_argument("CostFunction::at_real: x < 0");
  const double floor_x = std::floor(x);
  const int lo = static_cast<int>(floor_x);
  const double theta = x - floor_x;
  // rs-lint: float-eq-ok (x - floor(x) is exactly 0 iff x is integral)
  if (theta == 0.0) return at(lo);
  const double f_lo = at(lo);
  const double f_hi = at(lo + 1);
  if (std::isinf(f_lo) || std::isinf(f_hi)) return kInf;
  return (1.0 - theta) * f_lo + theta * f_hi;
}

void CostFunction::eval_row(int m, std::span<double> out) const {
  assert(m >= 0 && out.size() >= static_cast<std::size_t>(m) + 1);
  for (int x = 0; x <= m; ++x) {
    out[static_cast<std::size_t>(x)] = at(x);
  }
}

std::optional<ConvexPwl> CostFunction::as_convex_pwl_impl(int m,
                                                     int max_breakpoints) const {
  (void)m;
  (void)max_breakpoints;
  return std::nullopt;  // no compact exact form known for this family
}

std::optional<ConvexPwl> convex_pwl_from_kinks(const CostFunction& f, int m,
                                               std::vector<long long> kinks,
                                               int max_breakpoints) {
  kinks.push_back(0);
  kinks.push_back(m);
  for (long long& k : kinks) k = std::clamp(k, 0LL, static_cast<long long>(m));
  std::sort(kinks.begin(), kinks.end());
  kinks.erase(std::unique(kinks.begin(), kinks.end()), kinks.end());

  std::vector<double> values(kinks.size());
  int first = -1;
  int last = -1;
  for (std::size_t i = 0; i < kinks.size(); ++i) {
    const double v = f.at(static_cast<int>(kinks[i]));
    if (std::isnan(v)) return std::nullopt;
    values[i] = v;
    if (std::isfinite(v)) {
      if (first < 0) first = static_cast<int>(i);
      last = static_cast<int>(i);
    }
  }
  if (first < 0) {
    // Every sampled kink is infinite.  A finite island strictly inside a
    // gap would make the all-infinite form silently wrong, and no probe
    // budget can rule that out — so decline and let the caller fall back
    // to the dense backend (which handles all-infinite rows natively).
    // Families with genuinely all-infinite slots (TableCost) detect that
    // from their own storage instead of through this helper.
    return std::nullopt;
  }
  for (int i = first; i <= last; ++i) {
    if (!std::isfinite(values[static_cast<std::size_t>(i)])) {
      return std::nullopt;  // infinite interior: not a convex domain
    }
  }
  const int lo = static_cast<int>(kinks[static_cast<std::size_t>(first)]);
  const int hi = static_cast<int>(kinks[static_cast<std::size_t>(last)]);
  // The kink list must contain the exact domain boundaries.
  if (lo > 0 && std::isfinite(f.at(lo - 1))) return std::nullopt;
  if (hi < m && std::isfinite(f.at(hi + 1))) return std::nullopt;

  ConvexPwlBuilder builder;
  builder.start(lo, values[static_cast<std::size_t>(first)]);
  for (int i = first + 1; i <= last; ++i) {
    const long long p = kinks[static_cast<std::size_t>(i - 1)];
    const long long q = kinks[static_cast<std::size_t>(i)];
    const double rise = values[static_cast<std::size_t>(i)] -
                        values[static_cast<std::size_t>(i - 1)];
    const double slope = rise / static_cast<double>(q - p);
    if (q - p > 1) {
      const long long mid = p + (q - p) / 2;
      const double expected = values[static_cast<std::size_t>(i - 1)] +
                              slope * static_cast<double>(mid - p);
      if (!util::approx_equal(f.at(static_cast<int>(mid)), expected, 1e-9,
                              1e-9)) {
        return std::nullopt;  // not linear between these kinks
      }
    }
    builder.run(slope, static_cast<int>(q));
  }
  return builder.finish(max_breakpoints);
}

// ---------------------------------------------------------------------------

TableCost::TableCost(std::vector<double> values, std::string label)
    : values_(std::move(values)), label_(std::move(label)) {
  if (values_.empty()) {
    throw std::invalid_argument("TableCost: empty value table");
  }
}

double TableCost::at(int x) const {
  if (x < 0) throw std::invalid_argument("TableCost::at: x < 0");
  const int n = static_cast<int>(values_.size());
  if (x < n) return values_[static_cast<std::size_t>(x)];
  // Extend linearly with the last slope (0 for single-entry tables) so that
  // convex tables stay convex beyond their explicit domain.
  const double last = values_[static_cast<std::size_t>(n - 1)];
  const double slope =
      n >= 2 ? last - values_[static_cast<std::size_t>(n - 2)] : 0.0;
  if (std::isinf(last)) return last;
  return last + slope * static_cast<double>(x - (n - 1));
}

void TableCost::eval_row(int m, std::span<double> out) const {
  assert(m >= 0 && out.size() >= static_cast<std::size_t>(m) + 1);
  const int n = static_cast<int>(values_.size());
  const int copied = std::min(n, m + 1);
  std::copy_n(values_.begin(), copied, out.begin());
  if (m + 1 <= n) return;
  // Same linear extension (and exact expression) as at(); the infinite-last
  // case is hoisted so the extension loop is a pure FMA chain.
  const double last = values_[static_cast<std::size_t>(n - 1)];
  if (std::isinf(last)) {
    std::fill(out.begin() + n, out.begin() + (m + 1), last);
    return;
  }
  const double slope =
      n >= 2 ? last - values_[static_cast<std::size_t>(n - 2)] : 0.0;
  for (int x = n; x <= m; ++x) {
    out[static_cast<std::size_t>(x)] =
        last + slope * static_cast<double>(x - (n - 1));
  }
}

bool TableCost::is_convex() const {
  return as_convex_pwl(static_cast<int>(values_.size()) - 1,
                       kUnboundedBreakpoints)
      .has_value();
}

std::optional<ConvexPwl> TableCost::as_convex_pwl_impl(int m,
                                                  int max_breakpoints) const {
  const int n = static_cast<int>(values_.size());
  const int top = std::min(n - 1, m);
  // Contiguous finite range of the stored prefix; NaN and interior
  // infinities reject.
  int lo = -1;
  int hi = -1;
  for (int x = 0; x <= top; ++x) {
    const double v = values_[static_cast<std::size_t>(x)];
    if (std::isnan(v)) return std::nullopt;
    if (std::isfinite(v)) {
      if (lo >= 0 && hi < x - 1) return std::nullopt;  // finite, inf, finite
      if (lo < 0) lo = x;
      hi = x;
    }
  }
  if (lo < 0) return ConvexPwl::infinite();

  ConvexPwlBuilder builder;
  builder.start(lo, values_[static_cast<std::size_t>(lo)]);
  for (int x = lo; x < hi; ++x) {
    builder.run(values_[static_cast<std::size_t>(x + 1)] -
                    values_[static_cast<std::size_t>(x)],
                x + 1);
  }
  if (m > top && hi == n - 1) {
    // Linear extension beyond the table, same expression as at(): constant
    // for single-entry tables, else the last stored slope.
    const double slope =
        n >= 2 ? values_[static_cast<std::size_t>(n - 1)] -
                     values_[static_cast<std::size_t>(n - 2)]
               : 0.0;
    builder.run(slope, m);
  }
  return builder.finish(max_breakpoints);
}

bool TableCost::value_key_impl(ValueKey& key) const {
  key.push_back(value_key_tag("table"));
  key.push_back(values_.size());
  for (const double v : values_) append_key_bits(key, v);
  return true;
}

// ---------------------------------------------------------------------------

AffineAbsCost::AffineAbsCost(double slope, double center, double offset)
    : slope_(slope), center_(center), offset_(offset) {
  if (slope < 0.0) throw std::invalid_argument("AffineAbsCost: slope < 0");
}

double AffineAbsCost::at(int x) const {
  return slope_ * std::fabs(static_cast<double>(x) - center_) + offset_;
}

double AffineAbsCost::at_real(double x) const {
  return slope_ * std::fabs(x - center_) + offset_;
}

void AffineAbsCost::eval_row(int m, std::span<double> out) const {
  assert(m >= 0 && out.size() >= static_cast<std::size_t>(m) + 1);
  for (int x = 0; x <= m; ++x) {
    out[static_cast<std::size_t>(x)] =
        slope_ * std::fabs(static_cast<double>(x) - center_) + offset_;
  }
}

std::optional<ConvexPwl> AffineAbsCost::as_convex_pwl_impl(
    int m, int max_breakpoints) const {
  // Linear except around the center: the integer restriction kinks at
  // floor(center) and ceil(center).  The clamp keeps the double->int cast
  // defined for centers far outside [0, m] (the function is then linear on
  // the whole domain anyway).
  const double center = std::clamp(center_, -2.0, static_cast<double>(m) + 2.0);
  const long long knee = static_cast<long long>(std::floor(center));
  return convex_pwl_from_kinks(*this, m, {knee - 1, knee, knee + 1, knee + 2},
                        max_breakpoints);
}

bool AffineAbsCost::value_key_impl(ValueKey& key) const {
  key.push_back(value_key_tag("affabs"));
  append_key_bits(key, slope_);
  append_key_bits(key, center_);
  append_key_bits(key, offset_);
  return true;
}

// ---------------------------------------------------------------------------

QuadraticCost::QuadraticCost(double curvature, double center, double offset)
    : curvature_(curvature), center_(center), offset_(offset) {
  if (curvature < 0.0) {
    throw std::invalid_argument("QuadraticCost: curvature < 0");
  }
}

double QuadraticCost::at(int x) const {
  return at_real(static_cast<double>(x));
}

double QuadraticCost::at_real(double x) const {
  const double d = x - center_;
  return curvature_ * d * d + offset_;
}

void QuadraticCost::eval_row(int m, std::span<double> out) const {
  assert(m >= 0 && out.size() >= static_cast<std::size_t>(m) + 1);
  for (int x = 0; x <= m; ++x) {
    const double d = static_cast<double>(x) - center_;
    out[static_cast<std::size_t>(x)] = curvature_ * d * d + offset_;
  }
}

std::optional<ConvexPwl> QuadraticCost::as_convex_pwl_impl(
    int m, int max_breakpoints) const {
  // rs-lint: float-eq-ok (exact degenerate-quadratic sentinel, never
  // computed)
  if (curvature_ == 0.0) {
    ConvexPwlBuilder builder;
    builder.start(0, offset_);
    if (m > 0) builder.run(0.0, m);
    return builder.finish(max_breakpoints);
  }
  // Every integer is a kink; bail before sampling when the budget cannot
  // fit them (this is what routes large-m quadratics to the dense backend).
  if (m > max_breakpoints) return std::nullopt;
  ConvexPwlBuilder builder;
  builder.start(0, at(0));
  for (int x = 0; x < m; ++x) builder.run(at(x + 1) - at(x), x + 1);
  return builder.finish(max_breakpoints);
}

bool QuadraticCost::value_key_impl(ValueKey& key) const {
  key.push_back(value_key_tag("quad"));
  append_key_bits(key, curvature_);
  append_key_bits(key, center_);
  append_key_bits(key, offset_);
  return true;
}

// ---------------------------------------------------------------------------

FunctionCost::FunctionCost(std::function<double(int)> fn, std::string label)
    : fn_(std::move(fn)), label_(std::move(label)) {
  if (!fn_) throw std::invalid_argument("FunctionCost: null callable");
}

double FunctionCost::at(int x) const { return fn_(x); }

void FunctionCost::eval_row(int m, std::span<double> out) const {
  assert(m >= 0 && out.size() >= static_cast<std::size_t>(m) + 1);
  // One std::function dereference instead of one virtual + one std::function
  // call per point.
  const std::function<double(int)>& fn = fn_;
  for (int x = 0; x <= m; ++x) {
    out[static_cast<std::size_t>(x)] = fn(x);
  }
}

// ---------------------------------------------------------------------------

RestrictedSlotCost::RestrictedSlotCost(
    std::shared_ptr<const std::function<double(double)>> f, double lambda)
    : f_(std::move(f)), lambda_(lambda) {
  if (!f_ || !*f_) {
    throw std::invalid_argument("RestrictedSlotCost: null load-cost function");
  }
  if (!(lambda >= 0.0)) {  // rejects NaN along with negatives
    throw std::invalid_argument("RestrictedSlotCost: negative workload");
  }
}

double RestrictedSlotCost::at(int x) const {
  return at_real(static_cast<double>(x));
}

double RestrictedSlotCost::at_real(double x) const {
  if (x < 0.0) throw std::invalid_argument("RestrictedSlotCost: x < 0");
  if (x < lambda_) return kInf;  // constraint x_t >= λ_t (paper eq. 2)
  // rs-lint: float-eq-ok (exact empty-center sentinel)
  if (x == 0.0) return 0.0;      // λ must be 0 here; an empty center is free
  return x * (*f_)(lambda_ / x);
}

void RestrictedSlotCost::eval_row(int m, std::span<double> out) const {
  assert(m >= 0 && out.size() >= static_cast<std::size_t>(m) + 1);
  // Mirrors at_real() on integers with the shared_ptr resolved once.  The
  // infeasible prefix {x < λ} and the x = 0 special case are resolved up
  // front (λ is fixed), so the feasible-range loop carries no branches.
  const std::function<double(double)>& fn = *f_;
  // Compare in double before casting: lambda_ is only validated
  // non-negative and may exceed INT_MAX, where a bare int cast is UB.
  const int first_feasible = lambda_ > static_cast<double>(m)
                                 ? m + 1
                                 : static_cast<int>(std::ceil(lambda_));
  std::fill(out.begin(), out.begin() + first_feasible, kInf);
  int x = first_feasible;
  if (x == 0) {
    out[0] = 0.0;  // λ must be 0 here; an empty center is free
    x = 1;
  }
  for (; x <= m; ++x) {
    const double xr = static_cast<double>(x);
    out[static_cast<std::size_t>(x)] = xr * fn(lambda_ / xr);
  }
}

// ---------------------------------------------------------------------------

LinearLoadSlotCost::LinearLoadSlotCost(double base, double rate,
                                       double lambda)
    : base_(base), rate_(rate), lambda_(lambda) {
  if (!(base >= 0.0)) {  // rejects NaN along with negatives
    throw std::invalid_argument("LinearLoadSlotCost: negative base tariff");
  }
  if (!(rate >= 0.0)) {
    throw std::invalid_argument("LinearLoadSlotCost: negative load rate");
  }
  if (!(lambda >= 0.0)) {
    throw std::invalid_argument("LinearLoadSlotCost: negative workload");
  }
}

double LinearLoadSlotCost::at(int x) const {
  return at_real(static_cast<double>(x));
}

double LinearLoadSlotCost::at_real(double x) const {
  if (x < 0.0) throw std::invalid_argument("LinearLoadSlotCost: x < 0");
  if (x < lambda_) return kInf;  // constraint x_t >= λ_t (paper eq. 2)
  // rs-lint: float-eq-ok (exact empty-center sentinel)
  if (x == 0.0) return 0.0;      // λ must be 0 here; an empty center is free
  return base_ * x + rate_ * lambda_;
}

void LinearLoadSlotCost::eval_row(int m, std::span<double> out) const {
  assert(m >= 0 && out.size() >= static_cast<std::size_t>(m) + 1);
  // Mirrors at() on integers with the same expression per state; the
  // infeasible prefix and the x = 0 special case are resolved up front.
  // Careful double-space comparison before the cast (λ may exceed INT_MAX).
  const int first_feasible = lambda_ > static_cast<double>(m)
                                 ? m + 1
                                 : static_cast<int>(std::ceil(lambda_));
  std::fill(out.begin(), out.begin() + first_feasible, kInf);
  int x = first_feasible;
  if (x == 0) {
    out[0] = 0.0;
    x = 1;
  }
  const double load_term = rate_ * lambda_;
  for (; x <= m; ++x) {
    out[static_cast<std::size_t>(x)] =
        base_ * static_cast<double>(x) + load_term;
  }
}

std::optional<ConvexPwl> LinearLoadSlotCost::as_convex_pwl_impl(
    int m, int max_breakpoints) const {
  (void)max_breakpoints;  // zero breakpoints always fit any budget
  if (lambda_ > static_cast<double>(m)) return ConvexPwl::infinite();
  const int lo = static_cast<int>(std::ceil(lambda_));
  ConvexPwlBuilder builder;
  builder.start(lo, at(lo));
  // Affine on the whole feasible range: at(lo+1) − at(lo) reproduces the
  // base slope exactly (the x = 0 special value is at(0) = 0 = base·0 +
  // rate·0, consistent with the closed form since λ = 0 there).
  if (lo < m) builder.run(at(lo + 1) - at(lo), m);
  return builder.finish(max_breakpoints);
}

bool LinearLoadSlotCost::value_key_impl(ValueKey& key) const {
  key.push_back(value_key_tag("linload"));
  append_key_bits(key, base_);
  append_key_bits(key, rate_);
  append_key_bits(key, lambda_);
  return true;
}

// ---------------------------------------------------------------------------

ScaledCost::ScaledCost(CostPtr base, double factor)
    : base_(std::move(base)), factor_(factor) {
  if (!base_) throw std::invalid_argument("ScaledCost: null base");
  if (factor < 0.0) throw std::invalid_argument("ScaledCost: factor < 0");
}

double ScaledCost::at(int x) const { return factor_ * base_->at(x); }

double ScaledCost::at_real(double x) const {
  return factor_ * base_->at_real(x);
}

void ScaledCost::eval_row(int m, std::span<double> out) const {
  base_->eval_row(m, out);
  for (int x = 0; x <= m; ++x) {
    out[static_cast<std::size_t>(x)] = factor_ * out[static_cast<std::size_t>(x)];
  }
}

std::optional<ConvexPwl> ScaledCost::as_convex_pwl_impl(int m,
                                                   int max_breakpoints) const {
  std::optional<ConvexPwl> base = base_->as_convex_pwl(m, max_breakpoints);
  if (!base) return std::nullopt;
  // rs-lint: float-eq-ok (exact zero-scale sentinel, never computed)
  if (factor_ == 0.0) {
    // at() is 0·base(x), which is NaN on infeasible base states; only the
    // everywhere-finite case has a representable (zero) form.
    if (base->is_infinite() || base->lo() > 0 || base->hi() < m) {
      return std::nullopt;
    }
    return ConvexPwl::constant(0, m, 0.0);
  }
  if (base->is_infinite()) return ConvexPwl::infinite();
  std::vector<long long> kinks;
  for (int p : base->kink_positions()) kinks.push_back(p);
  return convex_pwl_from_kinks(*this, m, std::move(kinks), max_breakpoints);
}

std::string ScaledCost::name() const { return "scaled(" + base_->name() + ")"; }

bool ScaledCost::value_key_impl(ValueKey& key) const {
  key.push_back(value_key_tag("scaled"));
  append_key_bits(key, factor_);
  return base_->append_value_key(key);
}

// ---------------------------------------------------------------------------

StrideCost::StrideCost(CostPtr base, int stride)
    : base_(std::move(base)), stride_(stride) {
  if (!base_) throw std::invalid_argument("StrideCost: null base");
  if (stride <= 0) throw std::invalid_argument("StrideCost: stride <= 0");
}

double StrideCost::at(int x) const { return base_->at(x * stride_); }

void StrideCost::eval_row(int m, std::span<double> out) const {
  assert(m >= 0 && out.size() >= static_cast<std::size_t>(m) + 1);
  if (stride_ == 1) {
    base_->eval_row(m, out);
    return;
  }
  // For small strides (the common Ψ_l refinement steps), materializing the
  // base row keeps the whole decorator chain below on its bulk path and
  // costs only stride·m sequential writes; for large strides the gathered
  // states are sparse in the base domain and a per-point gather wins.  The
  // base row is workspace scratch: repeated row fills (one per DP step /
  // tracker advance) stay allocation-free after warm-up.
  const long long base_m = static_cast<long long>(m) * stride_;
  if (stride_ <= 4 && base_m + 1 <= (1LL << 22)) {
    auto base_row = rs::util::this_thread_workspace().borrow<double>(
        static_cast<std::size_t>(base_m) + 1);
    base_->eval_row(static_cast<int>(base_m), base_row.span());
    for (int x = 0; x <= m; ++x) {
      out[static_cast<std::size_t>(x)] =
          base_row[static_cast<std::size_t>(x) * static_cast<std::size_t>(stride_)];
    }
    return;
  }
  const CostFunction& base = *base_;
  for (int x = 0; x <= m; ++x) {
    out[static_cast<std::size_t>(x)] = base.at(x * stride_);
  }
}

std::optional<ConvexPwl> StrideCost::as_convex_pwl_impl(int m,
                                                   int max_breakpoints) const {
  const long long base_m = static_cast<long long>(m) * stride_;
  if (base_m > (1LL << 30)) return std::nullopt;  // conversion domain guard
  std::optional<ConvexPwl> base =
      base_->as_convex_pwl(static_cast<int>(base_m), max_breakpoints);
  if (!base) return std::nullopt;
  if (base->is_infinite()) return ConvexPwl::infinite();
  // A base kink at p maps to a kink of x -> base(x·stride) somewhere in
  // {floor(p/stride) - 1, .., floor(p/stride) + 2}; sample that
  // neighbourhood (the probes in pwl_from_kinks verify it).
  std::vector<long long> kinks;
  kinks.reserve(4 * base->kink_positions().size());
  for (int p : base->kink_positions()) {
    const long long q = p / stride_;
    for (long long offset = -1; offset <= 2; ++offset) {
      kinks.push_back(q + offset);
    }
  }
  return convex_pwl_from_kinks(*this, m, std::move(kinks), max_breakpoints);
}

std::string StrideCost::name() const {
  return "stride" + std::to_string(stride_) + "(" + base_->name() + ")";
}

bool StrideCost::value_key_impl(ValueKey& key) const {
  key.push_back(value_key_tag("stride"));
  key.push_back(static_cast<std::uint64_t>(stride_));
  return base_->append_value_key(key);
}

// ---------------------------------------------------------------------------

PaddingTail::PaddingTail(double f_below_m, double f_m) : f_m(f_m) {
  if (std::isfinite(f_m) && std::isfinite(f_below_m)) {
    slope = std::max(f_m - f_below_m, 0.0) + 1.0;
  }
}

PaddedCost::PaddedCost(CostPtr base, int original_m)
    : base_(std::move(base)), original_m_(original_m) {
  if (!base_) throw std::invalid_argument("PaddedCost: null base");
  if (original_m < 0) throw std::invalid_argument("PaddedCost: m < 0");
  tail_ = PaddingTail(original_m >= 1 ? base_->at(original_m - 1) : kInf,
                      base_->at(original_m));
}

double PaddedCost::at(int x) const {
  return x <= original_m_ ? base_->at(x) : tail_.at(x - original_m_);
}

void PaddedCost::eval_row(int m, std::span<double> out) const {
  assert(m >= 0 && out.size() >= static_cast<std::size_t>(m) + 1);
  base_->eval_row(std::min(m, original_m_), out);
  for (int x = original_m_ + 1; x <= m; ++x) {
    out[static_cast<std::size_t>(x)] = tail_.at(x - original_m_);
  }
}

std::optional<ConvexPwl> PaddedCost::as_convex_pwl_impl(int m,
                                                   int max_breakpoints) const {
  const int inner = std::min(m, original_m_);
  std::optional<ConvexPwl> base = base_->as_convex_pwl(inner, max_breakpoints);
  if (!base) return std::nullopt;
  if (base->is_infinite()) return ConvexPwl::infinite();
  std::vector<long long> kinks;
  for (int p : base->kink_positions()) kinks.push_back(p);
  // The extension starts right after original_m with its own slope.
  kinks.push_back(original_m_);
  kinks.push_back(static_cast<long long>(original_m_) + 1);
  return convex_pwl_from_kinks(*this, m, std::move(kinks), max_breakpoints);
}

std::string PaddedCost::name() const {
  return "padded(" + base_->name() + ")";
}

bool PaddedCost::value_key_impl(ValueKey& key) const {
  // tail_ is derived from the base and original_m_.
  key.push_back(value_key_tag("padded"));
  key.push_back(static_cast<std::uint64_t>(original_m_));
  return base_->append_value_key(key);
}

// ---------------------------------------------------------------------------

CostFunctionReport validate_cost_function(const CostFunction& f, int m) {
  CostFunctionReport report;
  if (m < 0) throw std::invalid_argument("validate_cost_function: m < 0");

  std::vector<double> values(static_cast<std::size_t>(m) + 1);
  for (int x = 0; x <= m; ++x) {
    values[static_cast<std::size_t>(x)] = f.at(x);
  }

  for (int x = 0; x <= m; ++x) {
    const double v = values[static_cast<std::size_t>(x)];
    if (std::isnan(v)) {
      report.convex = false;
      report.non_negative = false;
      continue;
    }
    if (v < 0.0) report.non_negative = false;
    if (std::isfinite(v)) {
      if (report.first_finite < 0) report.first_finite = x;
      report.last_finite = x;
    }
  }
  if (report.first_finite < 0) {
    report.finite_somewhere = false;
    report.contiguous_finite_range = true;
    return report;
  }
  for (int x = report.first_finite; x <= report.last_finite; ++x) {
    if (!std::isfinite(values[static_cast<std::size_t>(x)])) {
      report.contiguous_finite_range = false;
      report.convex = false;
    }
  }
  // Slopes non-decreasing on the finite range.
  double previous_slope = -util::kInf;
  for (int x = report.first_finite + 1; x <= report.last_finite; ++x) {
    const double slope = values[static_cast<std::size_t>(x)] -
                         values[static_cast<std::size_t>(x - 1)];
    if (slope + 1e-9 < previous_slope) {
      report.convex = false;
      break;
    }
    previous_slope = std::max(previous_slope, slope);
  }
  return report;
}

int smallest_minimizer_scan(const CostFunction& f, int m) {
  int best = 0;
  double best_value = f.at(0);
  for (int x = 1; x <= m; ++x) {
    const double v = f.at(x);
    if (v < best_value) {
      best_value = v;
      best = x;
    }
  }
  return best;
}

int largest_minimizer_scan(const CostFunction& f, int m) {
  int best = 0;
  double best_value = f.at(0);
  for (int x = 1; x <= m; ++x) {
    const double v = f.at(x);
    if (v <= best_value) {  // ties move right
      best_value = v;
      best = x;
    }
  }
  return best;
}

int smallest_minimizer_convex(const CostFunction& f, int m) {
  // Find the smallest x with f(x+1) - f(x) >= 0; for convex f the slopes are
  // non-decreasing so this is a monotone predicate.  +inf prefixes (from
  // constraint states) are skipped by treating inf-to-finite slopes as
  // negative and finite-to-inf slopes as positive.
  int lo = 0;
  int hi = m;  // invariant: answer in [lo, hi]
  while (lo < hi) {
    const int mid = lo + (hi - lo) / 2;
    const double here = f.at(mid);
    const double next = f.at(mid + 1);
    bool non_decreasing;
    if (std::isinf(here) && std::isinf(next)) {
      // Deep in an infeasible prefix or suffix; decide by probing which side
      // the finite range is on (cheap: one probe at lo).
      non_decreasing = std::isinf(f.at(lo)) ? false : true;
    } else if (std::isinf(here)) {
      non_decreasing = false;  // slope -inf: still descending
    } else if (std::isinf(next)) {
      non_decreasing = true;  // slope +inf: already ascending
    } else {
      non_decreasing = next - here >= 0.0;
    }
    if (non_decreasing) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return lo;
}

double interpolate(const CostFunction& f, double x) {
  // Route through the default implementation regardless of overrides, so the
  // result always matches paper eq. (3) exactly.
  const double floor_x = std::floor(x);
  const int lo = static_cast<int>(floor_x);
  const double theta = x - floor_x;
  // rs-lint: float-eq-ok (x - floor(x) is exactly 0 iff x is integral)
  if (theta == 0.0) return f.at(lo);
  const double f_lo = f.at(lo);
  const double f_hi = f.at(lo + 1);
  if (std::isinf(f_lo) || std::isinf(f_hi)) return kInf;
  return (1.0 - theta) * f_lo + theta * f_hi;
}

}  // namespace rs::core
