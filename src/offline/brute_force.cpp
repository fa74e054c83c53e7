#include "offline/brute_force.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace rs::offline {

using rs::core::Problem;
using rs::core::Schedule;

OfflineResult BruteForceSolver::solve(const Problem& p) const {
  const int T = p.horizon();
  const int m = p.max_servers();
  const double combos = std::pow(static_cast<double>(m) + 1.0, T);
  if (combos > 1e7) {
    throw std::invalid_argument("BruteForceSolver: instance too large");
  }

  OfflineResult best;
  if (T == 0) {
    best.schedule = {};
    best.cost = 0.0;
    return best;
  }

  // Up to (m+1)^T schedules are scored against the same T·(m+1) values;
  // materialize them once so each evaluation is a table lookup.
  // A NaN value loses every `<` below, so the search would skip it and
  // return a finite optimum; the table's NaN report poisons the result.
  const rs::core::DenseProblem dense(p);
  if (dense.has_nan()) {
    best.cost = std::numeric_limits<double>::quiet_NaN();
    return best;
  }
  Schedule current(static_cast<std::size_t>(T), 0);
  for (;;) {
    const double cost = rs::core::total_cost(dense, current);
    if (cost < best.cost) {
      best.cost = cost;
      best.schedule = current;
    }
    // Odometer increment over {0,..,m}^T.
    int position = 0;
    while (position < T) {
      if (current[static_cast<std::size_t>(position)] < m) {
        ++current[static_cast<std::size_t>(position)];
        break;
      }
      current[static_cast<std::size_t>(position)] = 0;
      ++position;
    }
    if (position == T) break;
  }
  return best;
}

}  // namespace rs::offline
