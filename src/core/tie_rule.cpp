// rs-lint: minmax-audited — the minimum folds read tracker labels, which
// the advance contract keeps NaN-free (DESIGN.md §13).
#include "core/tie_rule.hpp"

#include <algorithm>
#include <cmath>

#include "util/math_util.hpp"

namespace rs::core {

using rs::util::kInf;

Corridor tie_corridor(std::span<const double> lower,
                      std::span<const double> upper, double beta) {
  const int m = static_cast<int>(lower.size()) - 1;
  double min_lower = kInf;
  double min_upper = kInf;
  for (int x = 0; x <= m; ++x) {
    const std::size_t i = static_cast<std::size_t>(x);
    min_lower = std::min(min_lower, lower[i]);
    min_upper = std::min(min_upper, upper[i] - beta * x);
  }
  return tie_corridor(lower, upper, beta, min_lower, min_upper);
}

Corridor tie_corridor(std::span<const double> lower,
                      std::span<const double> upper, double beta,
                      double min_lower, double min_upper) {
  const int m = static_cast<int>(lower.size()) - 1;
  // An all-infinite row gives an infinite threshold, which every entry
  // meets: the scans then stop at once on (0, m).
  const double lower_threshold =
      min_lower + kConvexPwlMergeEps * std::max(1.0, std::fabs(min_lower));
  const double upper_threshold =
      min_upper + kConvexPwlMergeEps * std::max(1.0, std::fabs(min_upper));
  Corridor corridor{0, m};
  for (int x = 0; x <= m; ++x) {
    if (lower[static_cast<std::size_t>(x)] <= lower_threshold) {
      corridor.lower = x;
      break;
    }
  }
  for (int x = m; x >= 0; --x) {
    if (upper[static_cast<std::size_t>(x)] - beta * x <= upper_threshold) {
      corridor.upper = x;
      break;
    }
  }
  return corridor;
}

Corridor tie_corridor(const ConvexPwl& lower, const ConvexPwl& upper,
                      double beta, int m) {
  Corridor corridor{0, m};
  if (!lower.is_infinite()) {
    corridor.lower = lower.near_argmin(0.0, kConvexPwlMergeEps).lo;
  }
  if (!upper.is_infinite()) {
    corridor.upper = upper.near_argmin(-beta, kConvexPwlMergeEps).hi;
  }
  return corridor;
}

}  // namespace rs::core
