#include "offline/brute_force.hpp"

#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>
#include <vector>

#include "util/math_util.hpp"

namespace rs::offline {

using rs::core::Schedule;

OfflineResult BruteForceSolver::solve(const rs::core::SlotSource& source) const {
  const int T = source.horizon();
  const int m = source.max_servers();
  const double combos = std::pow(static_cast<double>(m) + 1.0, T);
  if (combos > 1e7) {
    throw std::invalid_argument("BruteForceSolver: instance too large");
  }

  if (T == 0) return OfflineResult{{}, 0.0};

  // Up to (m+1)^T schedules are scored against the same T·(m+1) values, so
  // each evaluation is a table lookup: a DenseProblem's own table, else one
  // filled from the rows.  A NaN value loses every `<` below, so the search
  // would skip it and return a finite optimum; a NaN in the table poisons
  // the result.
  const std::size_t width = static_cast<std::size_t>(m) + 1;
  std::vector<double> filled;
  std::span<const double> table;
  if (const rs::core::DenseProblem* dense = source.dense()) {
    table = {dense->row(1).data(), static_cast<std::size_t>(T) * width};
  } else {
    filled.resize(static_cast<std::size_t>(T) * width);
    for (int t = 1; t <= T; ++t) {
      source.row(t, std::span(filled).subspan((t - 1) * width, width));
    }
    table = filled;
  }
  if (rs::util::any_nan(table)) {
    return OfflineResult{{}, std::numeric_limits<double>::quiet_NaN()};
  }
  OfflineResult best;
  Schedule current(static_cast<std::size_t>(T), 0);
  for (;;) {
    // operating + switching, summed as core::total_cost sums them.
    rs::util::KahanSum operating;
    for (std::size_t t = 0; t < current.size(); ++t) {
      operating.add(table[t * width + static_cast<std::size_t>(current[t])]);
    }
    const double cost =
        operating.value() + rs::core::switching_cost_up(source, current);
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
