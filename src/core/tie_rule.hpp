// The corridor tie rule of Section 3.1 (DESIGN.md §8), shared by every
// consumer of the bound work functions.  Lemma 7 gives Ĉ^U = Ĉ^L − βx, so
// both corridor ends are read off Ĉ^L; one tolerance decides plateau ties
// on both representations, which round a plateau differently in the last
// ULPs, so the backend choice never changes a corridor:
//
//   tol(v) = kConvexPwlMergeEps · max(1, |v|)
//   x^L    = smallest x with  lower(x)      <= min lower        + tol
//   x^U    = largest  x with  upper(x) − βx <= min (upper − βx) + tol
//
// The plain tracker passes Ĉ^L twice; the prediction-window variant passes
// Ĉ^L + D^L and Ĉ^L + D^U.  An all-infinite label yields (0, m).
#pragma once

#include <span>

#include "core/convex_pwl.hpp"

namespace rs::core {

struct Corridor {
  int lower = 0;  // x^L
  int upper = 0;  // x^U
};

/// The tie rule on dense label rows (lower.size() == upper.size() == m+1):
/// one pass for the two minima, then a forward scan for x^L and a backward
/// scan for x^U that each stop at the first hit.
Corridor tie_corridor(std::span<const double> lower,
                      std::span<const double> upper, double beta);

/// Same, given min lower and min (upper − βx) — for kernels that fold the
/// minima into their last pass over the label.
Corridor tie_corridor(std::span<const double> lower,
                      std::span<const double> upper, double beta,
                      double min_lower, double min_upper);

/// The tie rule on convex-PWL labels over [0, m]; O(K).
Corridor tie_corridor(const ConvexPwl& lower, const ConvexPwl& upper,
                      double beta, int m);

}  // namespace rs::core
