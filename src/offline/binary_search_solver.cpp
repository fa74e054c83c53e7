#include "offline/binary_search_solver.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>

#include "core/transforms.hpp"
#include "offline/dp_solver.hpp"

namespace rs::offline {

using rs::core::PaddingTail;
using rs::core::Schedule;
using rs::core::SlotSource;

namespace {

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

OfflineResult BinarySearchSolver::solve(const SlotSource& source) const {
  BinarySearchStats stats;
  return solve_with_stats(source, stats);
}

OfflineResult BinarySearchSolver::solve_with_stats(
    const SlotSource& source, BinarySearchStats& stats) const {
  stats = BinarySearchStats{};
  const int T = source.horizon();
  if (T == 0) return OfflineResult{{}, 0.0};
  const int original_m = source.max_servers();
  if (original_m < 1) {
    // Only the all-zero schedule exists.
    Schedule zeros(static_cast<std::size_t>(T), 0);
    const double cost = rs::core::total_cost(source, zeros);
    return OfflineResult{std::isfinite(cost) ? zeros : Schedule{}, cost};
  }

  // Pad m to a power of two through the values read (Section 2.2): a state
  // above the original m reads its slot's PaddingTail.
  const int m = rs::core::next_power_of_two(original_m);
  std::vector<PaddingTail> tails;
  if (m != original_m) {
    tails.reserve(static_cast<std::size_t>(T));
    const std::array<int, 2> edge = {original_m - 1, original_m};
    std::array<double, 2> values{};
    for (int t = 1; t <= T; ++t) {
      source.gather(t, edge, values);
      tails.emplace_back(values[0], values[1]);
    }
  }
  const ColumnReader read = [&](int t, std::span<const int> xs,
                                std::span<double> out) {
    const auto inner = static_cast<std::size_t>(
        std::upper_bound(xs.begin(), xs.end(), original_m) - xs.begin());
    source.gather(t, xs.first(inner), out);
    for (std::size_t i = inner; i < xs.size(); ++i) {
      out[i] = tails[static_cast<std::size_t>(t - 1)].at(xs[i] - original_m);
    }
  };
  const auto every_column = [T](const std::vector<int>& column) {
    return std::vector<std::vector<int>>(static_cast<std::size_t>(T), column);
  };

  if (m < 4) {
    // K = log2(m) − 2 < 0: the instance is small enough to solve directly.
    ++stats.iterations;
    return solve_columns(m, source.beta(),
                         every_column(rs::core::multiples_of(1, m)), read,
                         &stats.dp);
  }

  const int K = std::countr_zero(static_cast<unsigned>(m)) - 2;

  // Iteration K: rows {0, m/4, m/2, 3m/4, m}.
  std::vector<int> first_column;
  for (int xi = 0; xi <= 4; ++xi) first_column.push_back(xi * (m / 4));
  std::vector<std::vector<int>> columns = every_column(first_column);

  OfflineResult result;
  for (int k = K; k >= 0; --k) {
    ++stats.iterations;
    result = solve_columns(m, source.beta(), columns, read, &stats.dp);
    if (std::isnan(result.cost)) return result;  // a NaN value poisons all
    if (!result.feasible()) {
      // The refinement invariant (Lemma 5) needs an optimum of P_k.  With
      // finite convex costs the five-row grid always contains one, but
      // +inf-valued states (hard constraints) can make a restriction
      // infeasible.  Widen to all multiples of 2^k; if even P_k is
      // infeasible, Lemma 5 no longer applies and we fall back to the exact
      // O(T·m) DP, which handles arbitrary extended-real convex costs.  The
      // DP runs on the unpadded instance: padded states are strictly
      // dominated, so they never carry its optimum or win one of its ties.
      result = solve_columns(m, source.beta(),
                             every_column(rs::core::multiples_of(1 << k, m)),
                             read);
      if (!result.feasible()) {
        return DpSolver().solve(source);
      }
    }
    if (k > 0) {
      columns = refine_columns(result.schedule, 1 << (k - 1), m);
    }
  }

  // The optimum of the padded instance never uses padded states; clamp
  // defensively so the returned schedule is valid for the original m.
  for (int& state : result.schedule) {
    state = std::min(state, original_m);
  }
  return result;
}

}  // namespace rs::offline
