#include "core/convex_pwl.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "util/audit.hpp"

namespace rs::core {

using rs::util::kInf;

namespace {

// The first increment in [first, last) at a position >= x.
ConvexPwl::Increments::const_iterator first_at_or_after(
    ConvexPwl::Increments::const_iterator first,
    ConvexPwl::Increments::const_iterator last, int x) {
  return std::partition_point(
      first, last, [x](const auto& increment) { return increment.first < x; });
}

// Adds the increments [first, last) (ascending, all inside the domain of
// `into`) position by position, in place.  A self-add shares every
// position, so it never grows the array and may alias `into`.
void merge_increments(ConvexPwl::Increments& into,
                      ConvexPwl::Increments::const_iterator first,
                      ConvexPwl::Increments::const_iterator last) {
  // Pass 1: sum at shared positions — the merge's only floating-point
  // operation, one d_own + d_g per position — and count the positions only
  // the addend has.
  std::size_t fresh = 0;
  auto own = into.begin();
  for (auto it = first; it != last; ++it) {
    while (own != into.end() && own->first < it->first) ++own;
    if (own != into.end() && own->first == it->first) {
      own->second += it->second;
    } else {
      ++fresh;
    }
  }
  if (fresh == 0) return;
  // Pass 2: grow once and merge the fresh positions in from the back, so
  // every entry moves at most once.
  std::size_t i = into.size();
  into.resize(i + fresh);
  std::size_t k = into.size();
  for (auto it = last; it != first;) {
    --it;
    while (i > 0 && into[i - 1].first > it->first) into[--k] = into[--i];
    if (i > 0 && into[i - 1].first == it->first) continue;  // summed
    into[--k] = *it;
  }
}

}  // namespace

void audit_convex_pwl(const ConvexPwl& f, const char* site) {
  namespace audit = rs::util::audit;
  if (f.is_infinite()) return;  // the empty function has no representation
  audit::require(f.lo() <= f.hi(), "pwl-domain-ordered", site);
  audit::require(std::isfinite(f.value_lo()), "pwl-anchor-finite", site);
  audit::require(std::isfinite(f.first_slope()), "pwl-slope-finite", site);
  if (f.lo() == f.hi()) {
    // rs-lint: float-eq-ok (representation contract: a point domain stores
    // exactly 0.0, assigned, never computed)
    audit::require(f.first_slope() == 0.0 && f.slope_increments().empty(),
                   "pwl-point-domain-flat", site);
    return;
  }
  int previous = f.lo();
  for (const auto& [position, increment] : f.slope_increments()) {
    audit::require_with(
        position > f.lo() && position < f.hi(), "pwl-breakpoint-in-domain",
        site, [&] { return "position " + std::to_string(position); });
    audit::require_with(
        increment > 0.0 && std::isfinite(increment), "pwl-increment-positive",
        site, [&] {
          return "position " + std::to_string(position) + " increment " +
                 std::to_string(increment);
        });
    audit::require_with(
        position > previous, "pwl-breakpoints-ascending", site, [&] {
          return "position " + std::to_string(position) + " after " +
                 std::to_string(previous);
        });
    previous = position;
  }
}

ConvexPwl ConvexPwl::point(int x, double value) {
  return ConvexPwl(x, x, value);
}

ConvexPwl ConvexPwl::constant(int lo, int hi, double value) {
  if (lo > hi) throw std::invalid_argument("ConvexPwl::constant: lo > hi");
  return ConvexPwl(lo, hi, value);  // slope0_ = 0 covers the whole range
}

ConvexPwl ConvexPwl::from_parts(int lo, int hi, double v_lo, double slope0,
                                Increments dslope) {
  if (lo > hi) throw std::invalid_argument("ConvexPwl::from_parts: lo > hi");
  if (!std::isfinite(v_lo)) {
    throw std::invalid_argument("ConvexPwl::from_parts: non-finite value");
  }
  if (!std::isfinite(slope0)) {
    throw std::invalid_argument("ConvexPwl::from_parts: non-finite slope");
  }
  // rs-lint: float-eq-ok (representation contract: a point domain stores
  // exactly 0.0)
  if (lo == hi && (slope0 != 0.0 || !dslope.empty())) {
    throw std::invalid_argument(
        "ConvexPwl::from_parts: point domain carries slopes");
  }
  int previous = lo;
  for (const auto& [position, increment] : dslope) {
    if (position <= lo || position >= hi) {
      throw std::invalid_argument(
          "ConvexPwl::from_parts: increment position outside (lo, hi)");
    }
    if (position <= previous) {
      throw std::invalid_argument(
          "ConvexPwl::from_parts: increment positions must strictly ascend");
    }
    previous = position;
    if (!(increment > 0.0) || !std::isfinite(increment)) {
      throw std::invalid_argument(
          "ConvexPwl::from_parts: increments must be positive and finite");
    }
  }
  ConvexPwl out(lo, hi, v_lo);
  out.slope0_ = slope0;
  out.dslope_ = std::move(dslope);
  RS_AUDIT(audit_convex_pwl(out, "ConvexPwl::from_parts"));
  return out;
}

double ConvexPwl::value_at(int x) const {
  if (infinite_ || x < lo_ || x > hi_) return kInf;
  double value = v_lo_;
  double slope = slope0_;
  int position = lo_;
  for (const auto& [p, d] : dslope_) {
    if (p > x) break;
    value += slope * static_cast<double>(p - position);
    slope += d;
    position = p;
  }
  value += slope * static_cast<double>(x - position);
  return value;
}

void ConvexPwl::eval_at_sorted(std::span<const int> xs,
                               std::span<double> out) const {
  assert(out.size() >= xs.size());
  std::size_t i = 0;
  if (infinite_) {
    for (; i < xs.size(); ++i) out[i] = kInf;
    return;
  }
  for (; i < xs.size() && xs[i] < lo_; ++i) out[i] = kInf;
  // One forward accumulation shared by all in-domain positions.  Values
  // agree with value_at up to FP association order (exactly on
  // integer-valued forms) — the same contract the conversions carry.
  double value = v_lo_;
  double slope = slope0_;
  int position = lo_;
  auto it = dslope_.begin();
  for (; i < xs.size() && xs[i] <= hi_; ++i) {
    const int x = xs[i];
    assert(x >= position && "eval_at_sorted: positions must ascend");
    while (it != dslope_.end() && it->first <= x) {
      value += slope * static_cast<double>(it->first - position);
      position = it->first;
      slope += it->second;
      ++it;
    }
    value += slope * static_cast<double>(x - position);
    position = x;
    out[i] = value;
  }
  for (; i < xs.size(); ++i) out[i] = kInf;
}

ConvexPwl ConvexPwl::resample_stride(int stride) const {
  assert(stride >= 1);
  if (infinite_) return infinite();
  if (stride == 1) return *this;
  // In-library domains live in [0, m], so plain division is floor/ceil.
  const int y_lo = (lo_ + stride - 1) / stride;
  const int y_hi = hi_ / stride;
  if (y_lo > y_hi) return infinite();

  // Slope sum over the x-range [x0, x1).  Computed as slope·length terms
  // (never as a difference of accumulated values), so rounding stays
  // relative to slope magnitudes — the scale the builder's merge epsilon
  // is calibrated against.  Cells are queried in ascending, disjoint
  // order, so the walk resumes where the previous cell ended (O(K) across
  // the whole resample, not per cell) — increments consumed inside a cell
  // lie strictly left of every later cell.
  auto it = dslope_.begin();
  double running_slope = slope0_;
  const auto cell_delta = [this, &it, &running_slope](int x0, int x1) {
    while (it != dslope_.end() && it->first <= x0) {
      running_slope += it->second;
      ++it;
    }
    double delta = 0.0;
    int position = x0;
    while (it != dslope_.end() && it->first < x1) {
      delta += running_slope * static_cast<double>(it->first - position);
      position = it->first;
      running_slope += it->second;
      ++it;
    }
    delta += running_slope * static_cast<double>(x1 - position);
    return delta;
  };

  ConvexPwlBuilder builder;
  builder.start(y_lo, value_at(y_lo * stride));
  if (y_lo < y_hi) {
    // Grid cells between candidate positions share one slope sum: a
    // breakpoint at p only perturbs the cell containing it (and shifts the
    // steady-state slope from the next cell on), so floor(p/stride) and
    // floor(p/stride)+1 bracket every distinct per-cell delta.
    std::vector<int> candidates;
    candidates.reserve(2 * dslope_.size() + 2);
    candidates.push_back(y_lo);
    for (const auto& [p, d] : dslope_) {
      const int q = p / stride;
      if (q > y_lo && q < y_hi) candidates.push_back(q);
      if (q + 1 > y_lo && q + 1 < y_hi) candidates.push_back(q + 1);
    }
    candidates.push_back(y_hi);
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (std::size_t i = 0; i + 1 < candidates.size(); ++i) {
      const int a = candidates[i];
      builder.run(cell_delta(a * stride, (a + 1) * stride),
                  candidates[i + 1]);
    }
  }
  // (1 << 30) mirrors kUnboundedBreakpoints, which lives one layer up in
  // cost_function.hpp.
  std::optional<ConvexPwl> result = builder.finish(1 << 30);
  // Restriction of a convex function to an arithmetic grid is convex; the
  // builder could only decline on rounding noise beyond the merge epsilon,
  // which the slope-sum evaluation above keeps orders of magnitude below.
  if (!result) {
    throw std::logic_error("ConvexPwl::resample_stride: non-convex resample");
  }
  return *result;
}

ConvexPwl::ArgminInterval ConvexPwl::argmin(double tilt) const {
  assert(!infinite_ && "argmin of the infinite function");
  ArgminInterval result;
  if (lo_ == hi_) {
    result.lo = lo_;
    result.hi = lo_;
    result.value = v_lo_ + tilt * static_cast<double>(lo_);
    return result;
  }
  // Walk the slope sequence: the minimum starts where slopes stop being
  // negative and extends across the (exactly) zero-slope run.
  double value = v_lo_ + tilt * static_cast<double>(lo_);
  double slope = slope0_ + tilt;
  int position = lo_;
  auto it = dslope_.begin();
  while (slope < 0.0) {
    const int next = it == dslope_.end() ? hi_ : it->first;
    value += slope * static_cast<double>(next - position);
    position = next;
    if (it == dslope_.end()) {
      // Strictly decreasing to the right edge: minimum at hi.
      result.lo = hi_;
      result.hi = hi_;
      result.value = value;
      return result;
    }
    slope += it->second;
    ++it;
  }
  result.lo = position;
  result.value = value;
  // rs-lint: float-eq-ok (a flat plateau is an exactly-zero slope run by
  // the builder's merge contract)
  while (slope == 0.0) {
    const int next = it == dslope_.end() ? hi_ : it->first;
    position = next;
    if (it == dslope_.end()) break;
    slope += it->second;
    ++it;
  }
  result.hi = position;
  return result;
}

ConvexPwl::ArgminInterval ConvexPwl::near_argmin(double tilt,
                                                 double tol_scale) const {
  const ArgminInterval exact = argmin(tilt);
  if (lo_ == hi_) return exact;
  ArgminInterval result = exact;
  const double threshold =
      exact.value + tol_scale * std::max(1.0, std::fabs(exact.value));
  // One forward walk over g, accumulating values exactly as argmin() does
  // (so g(exact.lo) reproduces exact.value bit for bit).  Left of exact.lo
  // every segment descends; right of exact.hi every segment ascends.
  double value = v_lo_ + tilt * static_cast<double>(lo_);
  double slope = slope0_ + tilt;
  int position = lo_;
  auto it = dslope_.begin();
  const auto segment_length = [&] {
    return static_cast<double>((it == dslope_.end() ? hi_ : it->first) -
                               position);
  };
  const auto step_to_next = [&] {
    value += slope * segment_length();
    position = it == dslope_.end() ? hi_ : it->first;
    if (it != dslope_.end()) {
      slope += it->second;
      ++it;
    }
  };
  // Smallest x: the first segment start within the threshold, or the first
  // point of a descending segment that drops below it.
  while (value > threshold) {
    const double steps =
        std::max(1.0, std::ceil((value - threshold) / -slope));
    if (steps < segment_length()) {
      result.lo = position + static_cast<int>(steps);
      break;
    }
    step_to_next();
  }
  if (value <= threshold) result.lo = position;
  // Largest x: walk on to exact.hi, then across ascending segments while
  // they stay within the threshold.
  while (position < exact.hi) step_to_next();
  result.hi = hi_;
  while (position < hi_) {
    const double steps =
        std::max(0.0, std::floor((threshold - value) / slope));
    if (steps < segment_length()) {
      result.hi = position + static_cast<int>(steps);
      break;
    }
    step_to_next();
  }
  return result;
}

void ConvexPwl::materialize(int m, std::span<double> out) const {
  assert(out.size() >= static_cast<std::size_t>(m) + 1);
  std::fill(out.begin(), out.begin() + (m + 1), kInf);
  if (infinite_) return;
  const int from = std::max(lo_, 0);
  const int to = std::min(hi_, m);
  if (from > to) return;
  // One forward accumulation (not value_at per point, which would be
  // O(m·K)).
  double value = v_lo_;
  double slope = slope0_;
  int position = lo_;
  auto it = dslope_.begin();
  auto flush = [&](int until) {  // advance `position` to `until`
    value += slope * static_cast<double>(until - position);
    position = until;
  };
  // Skip to `from` first (handles lo_ < 0 callers; in-library domains are
  // already inside [0, m]).
  while (it != dslope_.end() && it->first <= from) {
    flush(it->first);
    slope += it->second;
    ++it;
  }
  flush(from);
  for (int x = from; x <= to; ++x) {
    out[static_cast<std::size_t>(x)] = value;
    if (x == to) break;
    if (it != dslope_.end() && it->first == x) {  // slope change at x
      slope += it->second;
      ++it;
    }
    value += slope;
    position = x + 1;
  }
}

std::vector<int> ConvexPwl::kink_positions() const {
  std::vector<int> positions;
  if (infinite_) return positions;
  positions.reserve(dslope_.size() + 2);
  positions.push_back(lo_);
  for (const auto& [p, d] : dslope_) positions.push_back(p);
  if (hi_ != lo_) positions.push_back(hi_);
  return positions;
}

double ConvexPwl::last_slope() const {
  assert(!infinite_ && lo_ < hi_);
  double slope = slope0_;
  for (const auto& [p, d] : dslope_) slope += d;
  return slope;
}

void ConvexPwl::clip_back(double s_max) {
  if (infinite_ || lo_ == hi_) return;
  if (slope0_ > s_max) {
    // Every slope exceeds the cap: the whole function becomes the s_max
    // tangent through (lo, v_lo).
    slope0_ = s_max;
    dslope_.clear();
    return;
  }
  double slope = slope0_;
  for (auto it = dslope_.begin(); it != dslope_.end(); ++it) {
    const double next = slope + it->second;
    if (next > s_max) {
      const double kept = s_max - slope;  // >= 0
      if (kept > 0.0) {
        it->second = kept;
        ++it;
      }
      dslope_.erase(it, dslope_.end());
      return;
    }
    slope = next;
  }
}

void ConvexPwl::clip_front(double s_min) {
  if (infinite_ || lo_ == hi_) return;
  if (slope0_ >= s_min) return;
  // Find the first position xc whose outgoing slope is >= s_min,
  // accumulating W(xc) on the way; left of xc the function becomes the
  // s_min tangent through (xc, W(xc)).
  double value = v_lo_;
  double slope = slope0_;
  int position = lo_;
  for (auto it = dslope_.begin(); it != dslope_.end(); ++it) {
    const int p = it->first;
    value += slope * static_cast<double>(p - position);
    position = p;
    slope += it->second;
    if (slope >= s_min) {
      // The increments left of p fold into the tangent; the one at p keeps
      // only its excess over s_min.
      const double excess = slope - s_min;
      if (excess > 0.0) {
        it->second = excess;
      } else {
        ++it;
      }
      dslope_.erase(dslope_.begin(), it);
      v_lo_ = value - s_min * static_cast<double>(p - lo_);
      slope0_ = s_min;
      return;
    }
  }
  // Slopes stay below s_min all the way: the tangent passes through
  // (hi, W(hi)).
  dslope_.clear();
  value += slope * static_cast<double>(hi_ - position);
  v_lo_ = value - s_min * static_cast<double>(hi_ - lo_);
  slope0_ = s_min;
}

void ConvexPwl::extend_left(int new_lo, double slope) {
  if (infinite_ || new_lo >= lo_) return;
  if (lo_ == hi_) {
    slope0_ = slope;
  } else if (slope0_ - slope > 0.0) {
    dslope_.emplace(dslope_.begin(), lo_, slope0_ - slope);
    slope0_ = slope;
  }
  v_lo_ -= slope * static_cast<double>(lo_ - new_lo);
  lo_ = new_lo;
}

void ConvexPwl::extend_right(int new_hi, double slope) {
  if (infinite_ || new_hi <= hi_) return;
  if (lo_ == hi_) {
    slope0_ = slope;
  } else {
    const double step = slope - last_slope();
    if (step > 0.0) dslope_.emplace_back(hi_, step);
  }
  hi_ = new_hi;
}

void ConvexPwl::restrict_domain(int new_lo, int new_hi) {
  assert(!infinite_ && new_lo >= lo_ && new_hi <= hi_ && new_lo <= new_hi);
  if (new_hi < hi_) {
    dslope_.erase(first_at_or_after(dslope_.begin(), dslope_.end(), new_hi),
                  dslope_.end());
    hi_ = new_hi;
  }
  if (new_lo > lo_) {
    double value = v_lo_;
    double slope = slope0_;
    int position = lo_;
    auto it = dslope_.begin();
    while (it != dslope_.end() && it->first <= new_lo) {
      value += slope * static_cast<double>(it->first - position);
      position = it->first;
      slope += it->second;
      ++it;
    }
    dslope_.erase(dslope_.begin(), it);
    value += slope * static_cast<double>(new_lo - position);
    v_lo_ = value;
    slope0_ = slope;
    lo_ = new_lo;
  }
  if (lo_ == hi_) slope0_ = 0.0;
}

void ConvexPwl::add(const ConvexPwl& g) {
  if (infinite_) return;
  if (g.infinite_) {
    *this = infinite();
    return;
  }
  const int new_lo = std::max(lo_, g.lo_);
  const int new_hi = std::min(hi_, g.hi_);
  if (new_lo > new_hi) {
    *this = infinite();
    return;
  }
  restrict_domain(new_lo, new_hi);
  // g's value and slope at new_lo, folding any g breakpoints at or left of
  // new_lo into the base slope.
  double g_value = g.v_lo_;
  double g_slope = g.slope0_;
  int position = g.lo_;
  auto it = g.dslope_.begin();
  while (it != g.dslope_.end() && it->first <= new_lo) {
    g_value += g_slope * static_cast<double>(it->first - position);
    position = it->first;
    g_slope += it->second;
    ++it;
  }
  g_value += g_slope * static_cast<double>(new_lo - position);
  v_lo_ += g_value;
  if (lo_ == hi_) return;  // point result: slopes are irrelevant
  slope0_ += g_slope;
  merge_increments(dslope_, it, first_at_or_after(it, g.dslope_.end(), new_hi));
  RS_AUDIT(audit_convex_pwl(*this, "ConvexPwl::add"));
}

bool ConvexPwl::same_shape(const ConvexPwl& other) const noexcept {
  if (infinite_ || other.infinite_) return infinite_ == other.infinite_;
  // Bitwise slope comparison on purpose: the fixpoint argument needs the
  // *exact* FP state to repeat, not an approximately equal one.
  return lo_ == other.lo_ && hi_ == other.hi_ && slope0_ == other.slope0_ &&
         dslope_ == other.dslope_;
}

void ConvexPwl::shift_value(double delta) noexcept {
  if (infinite_) return;
  v_lo_ += delta;
}

bool ConvexPwl::bitwise_equal(const ConvexPwl& other) const noexcept {
  if (!same_shape(other)) return false;
  if (infinite_) return true;
  return std::bit_cast<std::uint64_t>(v_lo_) ==
         std::bit_cast<std::uint64_t>(other.v_lo_);
}

void ConvexPwl::relax_charge_up(double beta, int lo, int hi) {
  if (infinite_) return;
  clip_back(beta);
  clip_front(0.0);
  extend_left(lo, 0.0);
  extend_right(hi, beta);
  RS_AUDIT(audit_convex_pwl(*this, "ConvexPwl::relax_charge_up"));
}

void ConvexPwl::relax_charge_down(double beta, int lo, int hi) {
  if (infinite_) return;
  clip_front(-beta);
  clip_back(0.0);
  extend_left(lo, -beta);
  extend_right(hi, 0.0);
  RS_AUDIT(audit_convex_pwl(*this, "ConvexPwl::relax_charge_down"));
}

// ---------------------------------------------------------------------------

void ConvexPwlBuilder::start(int lo, double value) {
  started_ = true;
  rejected_ = !std::isfinite(value);
  lo_ = lo;
  end_ = lo;
  v_lo_ = value;
  runs_.clear();
}

void ConvexPwlBuilder::run(double slope, int x_end) {
  assert(started_ && x_end > end_);
  if (rejected_) return;
  if (!std::isfinite(slope)) {
    rejected_ = true;
    return;
  }
  if (!runs_.empty()) {
    const double previous = runs_.back().second;
    // Mixed tolerance: relative in the slope magnitudes with an absolute
    // floor of kConvexPwlMergeEps.  Without the 1.0 operand the tolerance
    // would degenerate for adjacent slopes straddling zero (prev ~ +1e-13,
    // next ~ −1e-13), rejecting rounding noise as concavity; see the
    // kConvexPwlMergeEps comment and the NearZeroSlopePairs tests.
    const double scale =
        std::max({std::fabs(previous), std::fabs(slope), 1.0});
    if (slope < previous - kConvexPwlMergeEps * scale) {
      rejected_ = true;  // genuinely non-convex
      return;
    }
    if (slope <= previous) {
      // Duplicate slope (or a sub-epsilon dip): merge into the previous
      // run; the perturbation is bounded by the merge epsilon per segment.
      end_ = x_end;
      return;
    }
  }
  runs_.emplace_back(end_, slope);
  end_ = x_end;
}

std::optional<ConvexPwl> ConvexPwlBuilder::finish(int max_breakpoints) {
  if (!started_ || rejected_) return std::nullopt;
  if (static_cast<int>(runs_.size()) > max_breakpoints + 1) {
    return std::nullopt;
  }
  ConvexPwl result = ConvexPwl::point(lo_, v_lo_);
  result.hi_ = end_;
  if (!runs_.empty()) {
    result.slope0_ = runs_.front().second;
    result.dslope_.reserve(runs_.size() - 1);
    for (std::size_t i = 1; i < runs_.size(); ++i) {
      result.dslope_.emplace_back(runs_[i].first,
                                  runs_[i].second - runs_[i - 1].second);
    }
  }
  RS_AUDIT(audit_convex_pwl(result, "ConvexPwlBuilder::finish"));
  return result;
}

}  // namespace rs::core
