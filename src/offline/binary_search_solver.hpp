// The paper's polynomial offline algorithm (Section 2.2, Theorem 1).
//
// After padding m to a power of two, the algorithm performs log2(m) − 1
// refinement iterations k = K, K−1, .., 0 with K = log2(m) − 2.  Iteration K
// solves the instance restricted to the five rows {0, m/4, m/2, 3m/4, m};
// every later iteration k keeps, per column, the five states
// { x̂^{k+1}_t + ξ·2^k : ξ ∈ {−2,−1,0,1,2} } ∩ [0, m] around the previous
// iterate.  Lemma 5 guarantees an optimal schedule of P_k within distance
// 2^{k+1} of any optimal schedule of P_{k+1}, so the final iteration (k = 0)
// is optimal for the original instance.  Running time O(T·log m).  The
// padding lives in the values read: a state above m reads its slot's
// core::PaddingTail, computed once per slot.
#pragma once

#include "offline/bounded_dp.hpp"
#include "offline/solver.hpp"

namespace rs::offline {

struct BinarySearchStats {
  int iterations = 0;
  BoundedDpStats dp;
};

class BinarySearchSolver final : public OfflineSolver {
 public:
  OfflineResult solve(const rs::core::SlotSource& source) const override;

  /// As solve(), additionally reporting iteration and evaluation counts
  /// (used by the Theorem-1 scaling experiment to verify O(T·log m)).
  OfflineResult solve_with_stats(const rs::core::SlotSource& source,
                                 BinarySearchStats& stats) const;

  std::string name() const override { return "binary_search"; }
};

}  // namespace rs::offline
