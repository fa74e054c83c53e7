#include "analysis/monte_carlo.hpp"

#include <stdexcept>
#include <vector>

#include "core/schedule.hpp"
#include "offline/dp_solver.hpp"
#include "online/randomized_rounding.hpp"

namespace rs::analysis {

using rs::core::DenseProblem;

MonteCarloReport monte_carlo(
    const rs::core::SlotSource& source, int trials, std::uint64_t base_seed,
    const std::function<double(std::uint64_t seed)>& run_trial,
    const rs::engine::SolverEngine* engine) {
  if (trials < 1) throw std::invalid_argument("monte_carlo: trials < 1");
  if (!run_trial) throw std::invalid_argument("monte_carlo: null trial");

  MonteCarloReport report;
  report.optimal_cost = rs::offline::DpSolver().solve_cost(source);

  std::vector<double> costs(static_cast<std::size_t>(trials));
  const rs::engine::SolverEngine default_engine;
  const rs::engine::SolverEngine& batch_engine =
      engine != nullptr ? *engine : default_engine;
  batch_engine.for_each(
      static_cast<std::size_t>(trials),
      [&costs, &run_trial, base_seed](std::size_t trial) {
        costs[trial] = run_trial(base_seed + trial);
      },
      &report.batch);

  report.cost = rs::util::summarize(costs);
  if (report.optimal_cost > 0.0) {
    std::vector<double> ratios(costs.size());
    for (std::size_t i = 0; i < costs.size(); ++i) {
      ratios[i] = costs[i] / report.optimal_cost;
    }
    report.ratio = rs::util::summarize(ratios);
  }
  return report;
}

MonteCarloReport monte_carlo_randomized_rounding(const rs::core::Problem& p,
                                                 int trials,
                                                 std::uint64_t base_seed) {
  // One rows-only dense table for the whole run: OPT reads it, and every
  // trial scores its schedule against it by table lookups in total_cost
  // (bit-identical to the per-point path, without T virtual calls and
  // bounds checks per trial).  The online replay itself still reveals the
  // cost functions one slot at a time through the Problem, as the online
  // contract requires.
  const DenseProblem dense(p);
  return monte_carlo(dense, trials, base_seed,
                     [&p, &dense](std::uint64_t seed) {
                       rs::online::RandomizedRounding algorithm(seed);
                       const rs::core::Schedule x =
                           rs::online::run_online(algorithm, p);
                       return rs::core::total_cost(dense, x);
                     });
}

}  // namespace rs::analysis
