#include "core/piecewise_linear.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "util/workspace.hpp"

namespace rs::core {

PiecewiseLinearCost::PiecewiseLinearCost(std::vector<Breakpoint> breakpoints)
    : breakpoints_(std::move(breakpoints)) {
  if (breakpoints_.empty()) {
    throw std::invalid_argument("PiecewiseLinearCost: no breakpoints");
  }
  double previous_slope = -rs::util::kInf;
  for (std::size_t i = 1; i < breakpoints_.size(); ++i) {
    const double dx = breakpoints_[i].x - breakpoints_[i - 1].x;
    if (!(dx > 0.0)) {
      throw std::invalid_argument(
          "PiecewiseLinearCost: breakpoints must have increasing x");
    }
    const double slope = (breakpoints_[i].value - breakpoints_[i - 1].value) / dx;
    if (slope + 1e-12 < previous_slope) {
      throw std::invalid_argument("PiecewiseLinearCost: not convex");
    }
    previous_slope = slope;
  }
}

double PiecewiseLinearCost::at(int x) const {
  return at_real(static_cast<double>(x));
}

double PiecewiseLinearCost::at_real(double x) const {
  if (breakpoints_.size() == 1) return breakpoints_.front().value;
  // Find the segment; extend the boundary segments outward.
  std::size_t hi = 1;
  while (hi + 1 < breakpoints_.size() && breakpoints_[hi].x < x) ++hi;
  const Breakpoint& a = breakpoints_[hi - 1];
  const Breakpoint& b = breakpoints_[hi];
  const double slope = (b.value - a.value) / (b.x - a.x);
  return a.value + slope * (x - a.x);
}

void PiecewiseLinearCost::eval_row(int m, std::span<double> out) const {
  assert(m >= 0 && out.size() >= static_cast<std::size_t>(m) + 1);
  if (breakpoints_.size() == 1) {
    std::fill(out.begin(), out.begin() + (m + 1), breakpoints_.front().value);
    return;
  }
  // The segment index of at_real() is monotone in x, so hoist the search
  // across the row; the per-point expression (anchor + slope·dx with the
  // same operands) is unchanged, keeping the values bit-identical to at().
  std::size_t hi = 1;
  double slope = (breakpoints_[1].value - breakpoints_[0].value) /
                 (breakpoints_[1].x - breakpoints_[0].x);
  for (int x = 0; x <= m; ++x) {
    while (hi + 1 < breakpoints_.size() &&
           breakpoints_[hi].x < static_cast<double>(x)) {
      ++hi;
      slope = (breakpoints_[hi].value - breakpoints_[hi - 1].value) /
              (breakpoints_[hi].x - breakpoints_[hi - 1].x);
    }
    const Breakpoint& a = breakpoints_[hi - 1];
    out[static_cast<std::size_t>(x)] =
        a.value + slope * (static_cast<double>(x) - a.x);
  }
}

std::optional<ConvexPwl> PiecewiseLinearCost::as_convex_pwl_impl(
    int m, int max_breakpoints) const {
  // A (possibly fractional) breakpoint at b.x kinks the integer restriction
  // at floor(b.x) and ceil(b.x); sample that neighbourhood.
  std::vector<long long> kinks;
  kinks.reserve(4 * breakpoints_.size());
  for (const Breakpoint& b : breakpoints_) {
    const double clamped =
        std::clamp(b.x, -2.0, static_cast<double>(m) + 2.0);
    const long long knee = static_cast<long long>(std::floor(clamped));
    for (long long offset = -1; offset <= 2; ++offset) {
      kinks.push_back(knee + offset);
    }
  }
  return convex_pwl_from_kinks(*this, m, std::move(kinks), max_breakpoints);
}

bool PiecewiseLinearCost::value_key_impl(ValueKey& key) const {
  key.push_back(value_key_tag("pwl"));
  key.push_back(breakpoints_.size());
  for (const Breakpoint& b : breakpoints_) {
    append_key_bits(key, b.x);
    append_key_bits(key, b.value);
  }
  return true;
}

CostPtr make_hinge(double slope, double knee) {
  if (slope < 0.0) throw std::invalid_argument("make_hinge: slope < 0");
  return std::make_shared<PiecewiseLinearCost>(std::vector<Breakpoint>{
      {knee - 1.0, 0.0}, {knee, 0.0}, {knee + 1.0, slope}});
}

CostPtr make_shortfall_hinge(double slope, double knee) {
  if (slope < 0.0) {
    throw std::invalid_argument("make_shortfall_hinge: slope < 0");
  }
  return std::make_shared<PiecewiseLinearCost>(std::vector<Breakpoint>{
      {knee - 1.0, slope}, {knee, 0.0}, {knee + 1.0, 0.0}});
}

SumCost::SumCost(std::vector<CostPtr> parts) : parts_(std::move(parts)) {
  if (parts_.empty()) throw std::invalid_argument("SumCost: no parts");
  for (const CostPtr& part : parts_) {
    if (!part) throw std::invalid_argument("SumCost: null part");
  }
}

double SumCost::at(int x) const {
  double sum = 0.0;
  for (const CostPtr& part : parts_) {
    const double v = part->at(x);
    if (std::isinf(v)) return v;
    sum += v;
  }
  return sum;
}

double SumCost::at_real(double x) const {
  double sum = 0.0;
  for (const CostPtr& part : parts_) {
    const double v = part->at_real(x);
    if (std::isinf(v)) return v;
    sum += v;
  }
  return sum;
}

void SumCost::eval_row(int m, std::span<double> out) const {
  assert(m >= 0 && out.size() >= static_cast<std::size_t>(m) + 1);
  parts_.front()->eval_row(m, out);
  if (parts_.size() == 1) return;
  auto scratch = rs::util::this_thread_workspace().borrow<double>(
      static_cast<std::size_t>(m) + 1);
  for (std::size_t i = 1; i < parts_.size(); ++i) {
    parts_[i]->eval_row(m, scratch.span());
    for (int x = 0; x <= m; ++x) {
      out[static_cast<std::size_t>(x)] += scratch[static_cast<std::size_t>(x)];
    }
  }
}

bool SumCost::is_convex() const {
  return std::all_of(parts_.begin(), parts_.end(),
                     [](const CostPtr& part) { return part->is_convex(); });
}

std::optional<ConvexPwl> SumCost::as_convex_pwl_impl(int m,
                                                int max_breakpoints) const {
  // Kinks of the sum are the union of the parts' kinks; sampling this->at()
  // there keeps the kink values bit-identical to the dense path.
  std::vector<long long> kinks;
  for (const CostPtr& part : parts_) {
    const std::optional<ConvexPwl> form =
        part->as_convex_pwl(m, max_breakpoints);
    if (!form) return std::nullopt;
    if (form->is_infinite()) return ConvexPwl::infinite();
    for (int p : form->kink_positions()) kinks.push_back(p);
  }
  return convex_pwl_from_kinks(*this, m, std::move(kinks), max_breakpoints);
}

bool SumCost::value_key_impl(ValueKey& key) const {
  key.push_back(value_key_tag("sum"));
  key.push_back(parts_.size());
  return std::all_of(parts_.begin(), parts_.end(), [&key](const CostPtr& part) {
    return part->append_value_key(key);
  });
}

}  // namespace rs::core
