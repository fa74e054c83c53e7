// Shortest-path baseline over the Figure-1 graph.
//
// O(T·m²) time — the pseudo-polynomial algorithm Section 2.1 starts from.
// The grid graph is relaxed edge by edge exactly as an explicit
// LayeredGraph build would visit it (same weights, same order, hence the
// same distances and tie-breaking bit for bit), but the edges are
// enumerated implicitly: with one vertex per (t, x) the edge set is fully
// determined by β and f_t, so storing T·m² Edge records — the dominant
// allocation of the old explicit build — buys nothing.  All per-solve
// state (distance rows, the f_t row, the T×(m+1) parent table) is borrowed
// from the per-thread workspace arenas (util/workspace.hpp), so repeated
// solves are allocation-free after warm-up; this is what made the solver
// stable enough to rejoin the bench smoke gate.  Rows are read through
// core::SlotSource::row (table views on a DenseProblem).
//
// Kept as an independently-implemented cross-check for the DP and
// binary-search solvers (it relaxes every O(m²) transition, no
// prefix/suffix-minima shortcut), and as the subject of the E1/E2
// benchmarks.  graph/layered_graph.hpp remains the generic explicit-DAG
// substrate for the visualization and structure tests.
#pragma once

#include "offline/solver.hpp"

namespace rs::offline {

class GraphSolver final : public OfflineSolver {
 public:
  OfflineResult solve(const rs::core::SlotSource& source) const override;
  std::string name() const override { return "graph_sssp"; }
};

}  // namespace rs::offline
