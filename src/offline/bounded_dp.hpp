// Dynamic program restricted to explicit per-column candidate state sets.
//
// This is the inner kernel of the paper's O(T·log m) offline algorithm
// (Section 2.2): every binary-search iteration solves the instance on at
// most five candidate states per column.  It also computes optima of the
// Φ_k-restricted instances P_k (states that are multiples of 2^k), which the
// correctness lemmas of Section 2.3 quantify over.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "core/slot_source.hpp"
#include "offline/solver.hpp"

namespace rs::offline {

struct BoundedDpStats {
  std::int64_t transitions_evaluated = 0;  // (x', x) pairs relaxed
  std::int64_t function_evaluations = 0;   // f_t(x) calls
};

/// Optimal schedule over schedules with x_t ∈ states[t-1] for every t.
/// Each states[t-1] must be non-empty, sorted ascending, within [0, m].
/// Returns an infeasible result if every allowed path has infinite cost.
///
/// The input form picks the path.  A PwlProblem whose columns form one
/// uniform grid {0, s, 2s, ..} — the full-state and Φ_k configurations —
/// runs a convex label recursion in grid units whose per-step cost is
/// independent of m *and* of the column size, with the candidate DP's
/// exact tie-breaking (bit-identical schedules on integer-valued
/// instances; ULP-level label agreement otherwise, the DESIGN.md §8
/// contract); `stats` stays untouched there (nothing is enumerated).
/// Every other input runs the candidate-column DP, reading f_t over each
/// column through SlotSource::gather: one eval_row for a full column of a
/// CostFunction form, one lookup per candidate on a table, one walk per
/// slot on the forms, and one evaluation per candidate on a sparse column
/// (the O(log m) binary-search grids stay sublinear in m).
OfflineResult solve_bounded(const rs::core::SlotSource& source,
                            const std::vector<std::vector<int>>& states,
                            BoundedDpStats* stats = nullptr);

/// Writes f_t over the ascending states `xs` into out[0, |xs|).
using ColumnReader = std::function<void(int t, std::span<const int> xs,
                                        std::span<double> out)>;

/// The candidate-column DP behind solve_bounded, over columns within
/// [0, max_state] read through `read` (T = states.size()): how
/// BinarySearchSolver reads its padded states above m.
OfflineResult solve_columns(int max_state, double beta,
                            const std::vector<std::vector<int>>& states,
                            const ColumnReader& read,
                            BoundedDpStats* stats = nullptr);

/// Optimal schedule of P_k = Φ_k(P): states restricted to multiples of
/// 2^k (Section 2.3), 0 <= k <= 30 (else std::invalid_argument).  k = 0
/// reproduces the unrestricted optimum.  The
/// Φ_k columns are a uniform grid, so a PwlProblem always takes the
/// m-independent label path.
OfflineResult solve_phi_restricted(const rs::core::SlotSource& source, int k);

}  // namespace rs::offline
