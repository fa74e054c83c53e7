// Divide-and-conquer (Hirschberg-style) optimal solver with O(m + T)
// working memory.
//
// The plain DP stores T·(m+1) parent pointers to reconstruct a schedule —
// prohibitive for the largest instances the O(T·log m) cost-only solvers
// handle easily.  This solver recovers a full optimal schedule using only
// two label vectors: split the horizon at its midpoint, compute forward
// labels W (cost of a prefix ending in x) and backward labels B (cost of a
// suffix starting from x), fix the optimal midpoint state
// argmin_x W(x) + B(x), and recurse on both halves with pinned boundary
// states.  Time O(T·m·log T), memory O(m) labels + the output schedule.
//
// Backends: kDense streams one eval_row per visited slot (the reference).
// kConvexAuto runs the identical recursion with the labels kept as convex
// piecewise-linear functions (core/convex_pwl.hpp) whenever every slot
// admits a compact form — forward labels evolve by relax+add, backward
// labels by add+relax (the completion-cost recursion), and every midpoint
// pick is the smallest argmin of W + B, exactly the dense scan's strict-<
// tie-break — and falls back to the dense path otherwise.  One D&C level
// then costs O(T·B log K) instead of O(T·m): time O(T log T) independent
// of m, memory O(T·K) cached forms (converted once, up front) + O(K)
// labels.  Same schedule as the dense path: bit-identical on
// integer-valued instances, tie-equivalent elsewhere (DESIGN.md §8).
#pragma once

#include "core/slot_source.hpp"
#include "offline/solver.hpp"

namespace rs::offline {

class LowMemorySolver final : public OfflineSolver {
 public:
  enum class Backend { kDense, kConvexAuto };

  LowMemorySolver() : LowMemorySolver(Backend::kDense) {}
  explicit LowMemorySolver(Backend backend) : backend_(backend) {}

  /// Solves any input form; the one implementation entry.  PwlProblem
  /// forms run the PWL recursion with no conversions at all, regardless of
  /// `backend`.  Problem and RleProblem sources under kConvexAuto convert
  /// the instance once (a private PwlProblem) and run the PWL recursion, or
  /// fall back to the dense path when any slot has no compact form.  The
  /// dense path streams rows (table views for a DenseProblem).
  OfflineResult solve(const rs::core::SlotSource& source) const;
  OfflineResult solve(const rs::core::Problem& p) const override {
    return solve(rs::core::SlotSource(p));
  }

  Backend backend() const noexcept { return backend_; }

  std::string name() const override { return "low_memory_dnc"; }

 private:
  Backend backend_ = Backend::kDense;
};

}  // namespace rs::offline
