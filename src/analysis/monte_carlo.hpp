// Parallel Monte-Carlo evaluation of randomized online algorithms.
//
// Trials run through the batch engine (SolverEngine::for_each) with
// independent, deterministic seeds (base_seed + trial index), so results
// are reproducible regardless of scheduling.  The instance is materialized
// into one shared DenseProblem up front: OPT and every trial's cost
// accounting read the same immutable table instead of re-walking the
// virtual per-point path per trial.
#pragma once

#include <cstdint>
#include <functional>

#include "core/dense_problem.hpp"
#include "core/problem.hpp"
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
/// algorithm on `p` and summarizes total cost and ratio.  `run_trial` must
/// build and run one trial: given a seed, return the trial's total cost.
/// Builds one DenseProblem for OPT; trial closures that score schedules
/// should prefer the overload below and the dense total_cost overloads.
MonteCarloReport monte_carlo(
    const rs::core::Problem& p, int trials, std::uint64_t base_seed,
    const std::function<double(std::uint64_t seed)>& run_trial);

/// Same over a pre-materialized instance shared with the caller's own
/// accounting.  `engine` defaults
/// to a global-pool engine when null.
MonteCarloReport monte_carlo(
    const rs::core::DenseProblem& dense, int trials, std::uint64_t base_seed,
    const std::function<double(std::uint64_t seed)>& run_trial,
    const rs::engine::SolverEngine* engine = nullptr);

/// Convenience: Monte Carlo of the Theorem-3 randomized rounding algorithm.
/// One dense table serves OPT and all trial scorings.
MonteCarloReport monte_carlo_randomized_rounding(const rs::core::Problem& p,
                                                 int trials,
                                                 std::uint64_t base_seed);

}  // namespace rs::analysis
