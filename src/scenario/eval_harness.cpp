#include "scenario/eval_harness.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/schedule.hpp"
#include "offline/dp_solver.hpp"
#include "online/lcp.hpp"
#include "online/online_algorithm.hpp"
#include "online/randomized_rounding.hpp"
#include "scenario/rle.hpp"
#include "util/math_util.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace rs::scenario {

namespace {

// Pure splitmix64 mix of (base, k, s): the harness seeding contract.  No
// global RNG state — the same triple always yields the same seed.
std::uint64_t mix_seed(std::uint64_t base, std::uint64_t k, std::uint64_t s) {
  std::uint64_t state = base;
  state ^= rs::util::splitmix64(state) + k;
  state ^= rs::util::splitmix64(state) + s;
  return rs::util::splitmix64(state);
}

// Best static provisioning: min over x of β·x (one power-up from the empty
// initial state) + Σ_t f_t(x), evaluated once per RLE run, not per slot.
double best_static_cost(const RleProblem& rle) {
  double best = rs::util::kInf;
  for (int x = 0; x <= rle.max_servers(); ++x) {
    double total = rle.beta() * static_cast<double>(x);
    for (const RleProblem::Run& run : rle.runs()) {
      total += static_cast<double>(run.length) * run.cost->at(x);
      if (!std::isfinite(total)) break;
    }
    best = std::min(best, total);
  }
  return best;
}

double safe_ratio(double cost, double optimal) {
  if (optimal > 0.0) return cost / optimal;
  return cost > 0.0 ? rs::util::kInf : 1.0;
}

struct PerSample {
  std::uint64_t seed = 0;
  double optimal_cost = 0.0;
  double static_cost = 0.0;
  std::vector<double> algorithm_cost;  // by algorithm index
};

double run_algorithm(HarnessAlgorithm algorithm, const Scenario& scenario,
                     std::uint64_t sample_seed) {
  switch (algorithm) {
    case HarnessAlgorithm::kLcpDense: {
      const rs::core::Schedule x = rs::online::run_lcp(
          scenario.rle, rs::offline::WorkFunctionTracker::Backend::kDense);
      return rs::core::total_cost(scenario.problem, x);
    }
    case HarnessAlgorithm::kLcpAuto: {
      const rs::core::Schedule x = rs::online::run_lcp(
          scenario.rle, rs::offline::WorkFunctionTracker::Backend::kAuto);
      return rs::core::total_cost(scenario.problem, x);
    }
    case HarnessAlgorithm::kRandomizedRounding: {
      // Fresh rounding seed per sample, derived from the sample seed so the
      // trial stays a pure function of (base_seed, k, s).
      std::uint64_t state = sample_seed ^ 0xda3e39cb94b95bdbull;
      rs::online::RandomizedRounding rounding(rs::util::splitmix64(state));
      const rs::core::Schedule x =
          rs::online::run_online(rounding, scenario.problem);
      return rs::core::total_cost(scenario.problem, x);
    }
  }
  throw std::invalid_argument("run_algorithm: unknown HarnessAlgorithm");
}

}  // namespace

const char* to_string(HarnessAlgorithm algorithm) {
  switch (algorithm) {
    case HarnessAlgorithm::kLcpDense:
      return "lcp(dense)";
    case HarnessAlgorithm::kLcpAuto:
      return "lcp(auto)";
    case HarnessAlgorithm::kRandomizedRounding:
      return "randomized_rounding";
  }
  throw std::invalid_argument("to_string: unknown HarnessAlgorithm");
}

MonteCarloReport run_monte_carlo(const HarnessConfig& config) {
  if (config.scenarios.empty() || config.algorithms.empty()) {
    throw std::invalid_argument("run_monte_carlo: empty scenario/algorithm matrix");
  }
  if (config.samples_per_scenario < 1) {
    throw std::invalid_argument("run_monte_carlo: samples_per_scenario < 1");
  }
  const std::size_t kinds = config.scenarios.size();
  const std::size_t samples = static_cast<std::size_t>(config.samples_per_scenario);
  const std::size_t algorithms = config.algorithms.size();
  std::vector<PerSample> results(kinds * samples);

  rs::engine::SolverEngine engine(
      rs::engine::SolverEngine::Options{config.threads});
  MonteCarloReport report;
  engine.for_each(
      results.size(),
      [&](std::size_t job) {
        const std::size_t k = job / samples;
        const std::size_t s = job % samples;
        PerSample& out = results[job];
        out.seed = mix_seed(config.base_seed, k, s);
        const Scenario scenario =
            make_scenario(config.scenarios[k], config.zoo, out.seed);
        out.optimal_cost = rs::offline::DpSolver().solve_cost(scenario.problem);
        out.static_cost = best_static_cost(scenario.rle);
        out.algorithm_cost.reserve(algorithms);
        for (HarnessAlgorithm algorithm : config.algorithms) {
          out.algorithm_cost.push_back(
              run_algorithm(algorithm, scenario, out.seed));
        }
      },
      &report.stats);

  // Serialize in fixed scenario-major order — independent of which thread
  // produced which sample.
  report.samples.reserve(results.size() * algorithms);
  for (std::size_t k = 0; k < kinds; ++k) {
    for (std::size_t s = 0; s < samples; ++s) {
      const PerSample& in = results[k * samples + s];
      for (std::size_t a = 0; a < algorithms; ++a) {
        SampleRow row;
        row.kind = config.scenarios[k];
        row.algorithm = config.algorithms[a];
        row.sample = static_cast<int>(s);
        row.seed = in.seed;
        row.algorithm_cost = in.algorithm_cost[a];
        row.optimal_cost = in.optimal_cost;
        row.static_cost = in.static_cost;
        row.ratio = safe_ratio(row.algorithm_cost, row.optimal_cost);
        row.savings_percent =
            std::isfinite(in.static_cost) && in.static_cost > 0.0
                ? 100.0 * (in.static_cost - row.algorithm_cost) / in.static_cost
                : 0.0;
        report.samples.push_back(row);
      }
    }
  }

  report.cells.reserve(kinds * algorithms);
  for (std::size_t k = 0; k < kinds; ++k) {
    for (std::size_t a = 0; a < algorithms; ++a) {
      CellSummary cell;
      cell.kind = config.scenarios[k];
      cell.algorithm = config.algorithms[a];
      std::vector<double> ratios;
      std::vector<double> savings;
      rs::util::KahanSum opt_sum;
      for (std::size_t s = 0; s < samples; ++s) {
        const SampleRow& row =
            report.samples[(k * samples + s) * algorithms + a];
        ratios.push_back(row.ratio);
        savings.push_back(row.savings_percent);
        opt_sum.add(row.optimal_cost);
        cell.max_ratio = std::max(cell.max_ratio, row.ratio);
      }
      cell.ratio = rs::util::summarize(ratios);
      cell.savings_percent = rs::util::summarize(savings);
      cell.mean_optimal_cost = opt_sum.value() / static_cast<double>(samples);
      cell.samples = static_cast<int>(samples);
      report.cells.push_back(cell);
    }
  }
  return report;
}

std::string dashboard_markdown(const MonteCarloReport& report) {
  rs::util::TextTable table({"scenario", "algorithm", "mean ratio",
                             "max ratio", "mean savings %", "samples"});
  for (const CellSummary& cell : report.cells) {
    table.add_row({to_string(cell.kind), to_string(cell.algorithm),
                   rs::util::TextTable::num(cell.ratio.mean),
                   rs::util::TextTable::num(cell.max_ratio),
                   rs::util::TextTable::num(cell.savings_percent.mean, 1),
                   std::to_string(cell.samples)});
  }
  return table.to_string(true);
}

}  // namespace rs::scenario
