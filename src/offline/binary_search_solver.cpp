#include "offline/binary_search_solver.hpp"

#include <algorithm>
#include <cmath>

#include "core/transforms.hpp"
#include "offline/dp_solver.hpp"

namespace rs::offline {

using rs::core::PaddedProblem;
using rs::core::Problem;
using rs::core::Schedule;

namespace {

int log2_exact(int power_of_two) {
  int log = 0;
  while ((1 << log) < power_of_two) ++log;
  return log;
}

std::vector<std::vector<int>> refine_columns(const Schedule& anchor,
                                             int half_step, int m) {
  std::vector<std::vector<int>> columns(anchor.size());
  for (std::size_t t = 0; t < anchor.size(); ++t) {
    std::vector<int>& column = columns[t];
    for (int xi = -2; xi <= 2; ++xi) {
      const int state = anchor[t] + xi * half_step;
      if (state >= 0 && state <= m) column.push_back(state);
    }
  }
  return columns;
}

}  // namespace

OfflineResult BinarySearchSolver::solve(const Problem& p) const {
  BinarySearchStats stats;
  return solve_with_stats(p, stats);
}

OfflineResult BinarySearchSolver::solve_with_stats(
    const Problem& p, BinarySearchStats& stats) const {
  stats = BinarySearchStats{};
  if (p.horizon() == 0) {
    return OfflineResult{{}, 0.0};
  }
  if (p.max_servers() < 1) {
    // Only the all-zero schedule exists.
    Schedule zeros(static_cast<std::size_t>(p.horizon()), 0);
    const double cost = rs::core::total_cost(p, zeros);
    return OfflineResult{std::isfinite(cost) ? zeros : Schedule{}, cost};
  }

  const PaddedProblem padded = pad_to_power_of_two(p);
  const Problem& q = padded.problem;
  const int m = q.max_servers();

  if (m < 4) {
    // K = log2(m) − 2 < 0: the instance is small enough to solve directly.
    ++stats.iterations;
    const std::vector<int> column = rs::core::multiples_of(1, m);
    OfflineResult result = solve_bounded(
        q,
        std::vector<std::vector<int>>(static_cast<std::size_t>(q.horizon()),
                                      column),
        &stats.dp);
    return result;
  }

  const int K = log2_exact(m) - 2;

  // Iteration K: rows {0, m/4, m/2, 3m/4, m}.
  std::vector<int> first_column;
  for (int xi = 0; xi <= 4; ++xi) first_column.push_back(xi * (m / 4));
  std::vector<std::vector<int>> columns(
      static_cast<std::size_t>(q.horizon()), first_column);

  OfflineResult result;
  for (int k = K; k >= 0; --k) {
    ++stats.iterations;
    result = solve_bounded(q, columns, &stats.dp);
    if (std::isnan(result.cost)) return result;  // a NaN value poisons all
    if (!result.feasible()) {
      // The refinement invariant (Lemma 5) needs an optimum of P_k.  With
      // finite convex costs the five-row grid always contains one, but
      // +inf-valued states (hard constraints) can make a restriction
      // infeasible.  Widen to all multiples of 2^k; if even P_k is
      // infeasible, Lemma 5 no longer applies and we fall back to the exact
      // O(T·m) DP, which handles arbitrary extended-real convex costs.
      result = solve_phi_restricted(q, k);
      if (!result.feasible()) {
        return DpSolver().solve(q);
      }
    }
    if (k > 0) {
      columns = refine_columns(result.schedule, 1 << (k - 1), m);
    }
  }

  // The optimum of the padded instance never uses padded states; clamp
  // defensively so the returned schedule is valid for the original m.
  for (int& state : result.schedule) {
    state = std::min(state, padded.original_m);
  }
  return result;
}

}  // namespace rs::offline
