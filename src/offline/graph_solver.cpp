#include "offline/graph_solver.hpp"

#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>

#include "util/math_util.hpp"
#include "util/workspace.hpp"

namespace rs::offline {

using rs::util::kInf;
using rs::util::pos;

OfflineResult GraphSolver::solve(const rs::core::SlotSource& source) const {
  const int T = source.horizon();
  if (T == 0) return OfflineResult{{}, 0.0};
  const int m = source.max_servers();
  const double beta = source.beta();
  const std::size_t width = static_cast<std::size_t>(m) + 1;

  rs::util::Workspace& workspace = rs::util::this_thread_workspace();
  auto dist = workspace.borrow<double>(width);
  auto next = workspace.borrow<double>(width);
  auto scratch = workspace.borrow<double>(width);
  auto parents =
      workspace.borrow<std::int32_t>(static_cast<std::size_t>(T) * width);

  const auto read_row = [&](int t) {
    const std::span<const double> row = source.row(t, scratch.span());
    if (rs::util::any_nan(row)) {
      // The explicit builder rejected NaN at add_edge time; keep the
      // contract.
      throw std::invalid_argument("GraphSolver: NaN edge weight");
    }
    return row;
  };

  // Layer 0 -> 1: the single source v_{0,0} pays f_1(j) + β·j (power-up
  // from x_0 = 0); same expression as the explicit edge weights.
  std::span<const double> frow = read_row(1);
  for (int j = 0; j <= m; ++j) {
    dist[static_cast<std::size_t>(j)] =
        frow[static_cast<std::size_t>(j)] + beta * static_cast<double>(j);
    parents[static_cast<std::size_t>(j)] = 0;
  }

  // Layers t-1 -> t: relax every (j -> j') transition with weight
  // β(j'−j)⁺ + f_t(j').  Candidates arrive in ascending j for each j',
  // exactly the insertion order of the explicit per-layer edge lists, so
  // argmin ties resolve identically (first strict improvement wins).
  for (int t = 2; t <= T; ++t) {
    frow = read_row(t);
    std::int32_t* parent_row =
        parents.data() + static_cast<std::size_t>(t - 1) * width;
    for (int jp = 0; jp <= m; ++jp) {
      const double fj = frow[static_cast<std::size_t>(jp)];
      double best = kInf;
      std::int32_t arg = -1;
      if (!std::isinf(fj)) {
        for (int j = 0; j <= m; ++j) {
          const double from = dist[static_cast<std::size_t>(j)];
          if (std::isinf(from)) continue;
          const double weight =
              beta * static_cast<double>(pos(jp - j)) + fj;
          const double candidate = from + weight;
          if (candidate < best) {
            best = candidate;
            arg = static_cast<std::int32_t>(j);
          }
        }
      }
      next[static_cast<std::size_t>(jp)] = best;
      parent_row[jp] = arg;
    }
    std::swap(dist.vec(), next.vec());
  }

  // Layer T -> T+1: free power-down into v_{T+1,0}; smallest argmin wins
  // (edges were inserted in ascending j).
  double best = kInf;
  int final_state = -1;
  for (int j = 0; j <= m; ++j) {
    if (dist[static_cast<std::size_t>(j)] < best) {
      best = dist[static_cast<std::size_t>(j)];
      final_state = j;
    }
  }
  OfflineResult result;
  result.cost = final_state >= 0 ? best : kInf;
  if (!result.feasible()) return result;

  result.schedule.assign(static_cast<std::size_t>(T), 0);
  int state = final_state;
  for (int t = T; t >= 1; --t) {
    if (state < 0) {
      throw std::logic_error("GraphSolver: broken parent chain");
    }
    result.schedule[static_cast<std::size_t>(t - 1)] = state;
    state = parents[static_cast<std::size_t>(t - 1) * width +
                    static_cast<std::size_t>(state)];
  }
  return result;
}

}  // namespace rs::offline
