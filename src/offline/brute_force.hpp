// Exhaustive search over all (m+1)^T schedules.  Ground truth for tests on
// tiny instances; rejects anything that would enumerate more than ~10^7
// schedules.
#pragma once

#include "offline/solver.hpp"

namespace rs::offline {

class BruteForceSolver final : public OfflineSolver {
 public:
  OfflineResult solve(const rs::core::SlotSource& source) const override;
  std::string name() const override { return "brute_force"; }
};

}  // namespace rs::offline
