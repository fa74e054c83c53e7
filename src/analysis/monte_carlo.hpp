// Parallel Monte-Carlo evaluation of randomized online algorithms.
//
// Trials run through the batch engine (SolverEngine::for_each) with
// independent, deterministic seeds (base_seed + trial index), so results
// are reproducible regardless of scheduling.  OPT is solved once, on the
// instance in whatever form the caller holds it (core/slot_source.hpp): a
// Problem streams its rows, a DenseProblem shared with the trials' own
// accounting is read in place.
#pragma once

#include <cstdint>
#include <functional>

#include "core/problem.hpp"
#include "core/slot_source.hpp"
#include "engine/solver_engine.hpp"
#include "util/math_util.hpp"

namespace rs::analysis {

struct MonteCarloReport {
  rs::util::SampleStats cost;
  rs::util::SampleStats ratio;   // per-trial cost / OPT
  double optimal_cost = 0.0;
  rs::engine::BatchStats batch;  // throughput of the trial batch
};

/// Runs `trials` independent replays of a seed-constructed randomized
/// algorithm on `source` and summarizes total cost and ratio.  `run_trial`
/// must build and run one trial: given a seed, return the trial's total
/// cost.  Trial closures that score schedules many times should share one
/// DenseProblem with this call (total_cost reads it by lookup).  `engine`
/// defaults to a global-pool engine when null.
MonteCarloReport monte_carlo(
    const rs::core::SlotSource& source, int trials, std::uint64_t base_seed,
    const std::function<double(std::uint64_t seed)>& run_trial,
    const rs::engine::SolverEngine* engine = nullptr);

/// Convenience: Monte Carlo of the Theorem-3 randomized rounding algorithm.
/// One dense table serves OPT and all trial scorings.
MonteCarloReport monte_carlo_randomized_rounding(const rs::core::Problem& p,
                                                 int trials,
                                                 std::uint64_t base_seed);

}  // namespace rs::analysis
