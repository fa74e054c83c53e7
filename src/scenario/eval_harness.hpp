// Seeded Monte-Carlo evaluation harness over the trace zoo.
//
// Samples each scenario distribution `samples_per_scenario` times, replays
// every configured algorithm on every sample (LCP through the RLE replay,
// randomized rounding through the standard online driver), and summarizes
// competitive ratios and cost savings against the best static provisioning
// per (scenario, algorithm) cell — the ratio dashboard of the README.
//
// Seeding contract (determinism): the seed of sample s of scenario kind k
// is a pure splitmix64 mix of (base_seed, k, s), the randomized-rounding
// seed a further mix of the sample seed — no global RNG state anywhere.
// Sample jobs fan out through SolverEngine::for_each and write results by
// flat index, so the full MonteCarloReport — every sample row and every
// summary cell — is identical under any thread count (pinned by the
// determinism test).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/solver_engine.hpp"
#include "scenario/trace_zoo.hpp"
#include "util/math_util.hpp"

namespace rs::scenario {

enum class HarnessAlgorithm {
  kLcpDense,             // run_lcp over the RLE view, dense backend
  kLcpAuto,              // run_lcp over the RLE view, backend auto-selected
  kRandomizedRounding,   // Theorem-3 randomized rounding (fresh seed/sample)
};

const char* to_string(HarnessAlgorithm algorithm);

struct HarnessConfig {
  std::vector<ScenarioKind> scenarios = all_scenario_kinds();
  std::vector<HarnessAlgorithm> algorithms = {
      HarnessAlgorithm::kLcpDense, HarnessAlgorithm::kLcpAuto,
      HarnessAlgorithm::kRandomizedRounding};
  int samples_per_scenario = 8;
  std::uint64_t base_seed = 1;
  std::size_t threads = 0;  // SolverEngine::Options::threads
  ZooParams zoo;
};

/// One (scenario sample, algorithm) measurement.
struct SampleRow {
  ScenarioKind kind = ScenarioKind::kDiurnalWeekly;
  HarnessAlgorithm algorithm = HarnessAlgorithm::kLcpDense;
  int sample = 0;
  std::uint64_t seed = 0;          // the scenario sample's seed
  double algorithm_cost = 0.0;
  double optimal_cost = 0.0;       // exact offline DP
  double static_cost = 0.0;        // best single provisioning level
  double ratio = 0.0;              // algorithm_cost / optimal_cost
  double savings_percent = 0.0;    // 100·(static − algorithm)/static
};

/// Per-(scenario, algorithm) dashboard cell.
struct CellSummary {
  ScenarioKind kind = ScenarioKind::kDiurnalWeekly;
  HarnessAlgorithm algorithm = HarnessAlgorithm::kLcpDense;
  rs::util::SampleStats ratio;
  rs::util::SampleStats savings_percent;
  double max_ratio = 0.0;
  double mean_optimal_cost = 0.0;
  int samples = 0;
};

struct MonteCarloReport {
  std::vector<SampleRow> samples;   // scenario-major, sample, algorithm
  std::vector<CellSummary> cells;   // scenario-major, algorithm-minor
  rs::engine::BatchStats stats;     // the sample batch's throughput
};

/// Runs the full scenario × algorithm matrix.  Deterministic in
/// (config minus threads); throws std::invalid_argument on an empty
/// matrix or non-positive sample count.
MonteCarloReport run_monte_carlo(const HarnessConfig& config);

/// Renders the cells as a GitHub-markdown ratio dashboard.
std::string dashboard_markdown(const MonteCarloReport& report);

}  // namespace rs::scenario
