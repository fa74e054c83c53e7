// Competitive-ratio measurement harness: replays an online algorithm
// against an instance and compares with the exact offline optimum.
//
// Each measurement has one body, which scores the algorithm's schedule and
// solves OPT on a `scoring` source of any input form (core/slot_source.hpp).
// The Problem-only overloads score on the Problem itself, streaming OPT's
// rows with O(m) scratch (right for one-shot measurements); ensemble
// consumers — sweeps, adversary search — pass one immutable DenseProblem
// per instance so repeated measurements on one instance share its rows.
#pragma once

#include <string>

#include "core/problem.hpp"
#include "core/slot_source.hpp"
#include "online/online_algorithm.hpp"

namespace rs::analysis {

struct RatioReport {
  std::string algorithm;
  double algorithm_cost = 0.0;
  double optimal_cost = 0.0;
  double ratio = 0.0;
  double operating_cost = 0.0;   // algorithm's operating component
  double switching_cost = 0.0;   // algorithm's switching component
};

/// Measures the cost ratio of an integral online algorithm on `p`
/// (optionally with a prediction window).  The algorithm replays `p`; its
/// schedule is priced and OPT (the O(T·m) DP) solved on `scoring`, so N
/// measurements on one instance can share one table.  Throws
/// std::invalid_argument when `scoring` has another T, m or β than `p`.
RatioReport measure_ratio(rs::online::OnlineAlgorithm& algorithm,
                          const rs::core::Problem& p,
                          const rs::core::SlotSource& scoring, int window = 0);

/// Same, scored on `p` itself.
RatioReport measure_ratio(rs::online::OnlineAlgorithm& algorithm,
                          const rs::core::Problem& p, int window = 0);

/// Same for a fractional algorithm; OPT is still the integral optimum,
/// which by Lemma 4 equals the continuous optimum of P̄.  Fractional states
/// interpolate between integer values (eq. 3), so the algorithm's cost is
/// priced on `p`; `scoring` serves OPT.
RatioReport measure_ratio(rs::online::FractionalOnlineAlgorithm& algorithm,
                          const rs::core::Problem& p,
                          const rs::core::SlotSource& scoring, int window = 0);

/// Same, with OPT solved on `p` itself.
RatioReport measure_ratio(rs::online::FractionalOnlineAlgorithm& algorithm,
                          const rs::core::Problem& p, int window = 0);

}  // namespace rs::analysis
