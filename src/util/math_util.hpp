// Small numeric helpers shared across the library, including the paper's
// notation: the projection [x]_a^b, frac(x), and the strict ceiling ⌈x⌉*
// (Section 4.1), which maps integers n to n+1 and non-integers to ⌈x⌉.
#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

namespace rs::util {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Projection of x into the interval [lo, hi]: max{lo, min{hi, x}}.
/// Matches the paper's [x]^{hi}_{lo}.  Requires lo <= hi.
template <typename T>
constexpr T project(T x, T lo, T hi) {
  if (lo > hi) throw std::invalid_argument("project: lo > hi");
  return x < lo ? lo : (x > hi ? hi : x);
}

/// True when some value is NaN.  A byte-wide OR reduction: GCC vectorizes
/// it, but not the same loop over a bool accumulator.
inline bool any_nan(std::span<const double> values) noexcept {
  std::uint8_t nan = 0;
  for (const double v : values) {
    nan |= static_cast<std::uint8_t>(std::isnan(v));
  }
  return nan != 0;
}

/// (x)^+ = max(0, x).
template <typename T>
constexpr T pos(T x) noexcept {
  return x > T{0} ? x : T{0};
}

/// Fractional part frac(x) = x - floor(x), in [0, 1).
inline double frac(double x) noexcept { return x - std::floor(x); }

/// The paper's strict ceiling ⌈x⌉* := min{n ∈ Z | n > x} = floor(x) + 1.
inline std::int64_t ceil_star(double x) noexcept {
  return static_cast<std::int64_t>(std::floor(x)) + 1;
}

/// True if |a-b| <= atol + rtol*max(|a|,|b|); infinities are equal to
/// themselves only.
inline bool approx_equal(double a, double b, double atol = 1e-9,
                         double rtol = 1e-9) noexcept {
  if (std::isinf(a) || std::isinf(b)) return a == b;
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return std::fabs(a - b) <= atol + rtol * scale;
}

/// Kahan-compensated accumulator; the cost sums in the competitive-ratio
/// experiments accumulate millions of O(eps) terms, where naive summation
/// would visibly distort measured ratios.
class KahanSum {
 public:
  void add(double value) noexcept {
    if (std::isinf(value)) {
      infinite_ = true;
      return;
    }
    const double y = value - compensation_;
    const double t = sum_ + y;
    compensation_ = (t - sum_) - y;
    sum_ = t;
  }
  double value() const noexcept { return infinite_ ? kInf : sum_; }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
  bool infinite_ = false;
};

/// Mean / stddev / 95% normal CI over a sample.
struct SampleStats {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double ci95_half_width = 0.0;
  double min = kInf;
  double max = -kInf;
};

inline SampleStats summarize(const std::vector<double>& samples) {
  SampleStats stats;
  stats.count = samples.size();
  if (samples.empty()) return stats;
  KahanSum sum;
  for (double sample : samples) {
    sum.add(sample);
    stats.min = std::min(stats.min, sample);
    stats.max = std::max(stats.max, sample);
  }
  stats.mean = sum.value() / static_cast<double>(samples.size());
  if (samples.size() > 1) {
    KahanSum squares;
    for (double sample : samples) {
      const double d = sample - stats.mean;
      squares.add(d * d);
    }
    stats.stddev =
        std::sqrt(squares.value() / static_cast<double>(samples.size() - 1));
    stats.ci95_half_width =
        1.959963984540054 * stats.stddev / std::sqrt(static_cast<double>(samples.size()));
  }
  return stats;
}

}  // namespace rs::util
