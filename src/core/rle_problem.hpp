// Run-length-encoded instances: slots grouped into runs of one shared cost.
//
// Real arrival traces hold λ_t — and hence the slot cost f_t — constant
// across long stretches (quantized telemetry, night valleys, flat SLAs).
// An RleProblem keeps those stretches as (cost, length) runs, so corridor
// consumers advance the work-function tracker once per *run* instead of
// once per *slot* (WorkFunctionTracker::advance_repeated).  The view is
// exact: expand() reproduces the per-slot Problem, sharing one CostPtr
// across each run's slots.  The trace encoders that build these instances
// live in scenario/rle.hpp.
#pragma once

#include <vector>

#include "core/problem.hpp"

namespace rs::core {

class RleProblem {
 public:
  struct Run {
    CostPtr cost;
    int length = 0;
  };

  /// Requires m >= 0, beta > 0, no null costs, every length >= 1.
  RleProblem(int m, double beta, std::vector<Run> runs);

  int max_servers() const noexcept { return m_; }
  double beta() const noexcept { return beta_; }
  int run_count() const noexcept { return static_cast<int>(runs_.size()); }
  int horizon() const noexcept { return horizon_; }
  const std::vector<Run>& runs() const noexcept { return runs_; }

  /// The cost of slot t (1-based), found by binary search over the runs.
  const CostFunction& f(int t) const;

  /// The equivalent per-slot Problem (run r's cost pointer appears
  /// `length` times — slot costs are shared, not copied).
  Problem expand() const;

 private:
  int m_;
  double beta_;
  int horizon_;
  std::vector<Run> runs_;
  std::vector<int> ends_;  // ends_[r] = last slot of run r (1-based)
};

}  // namespace rs::core
