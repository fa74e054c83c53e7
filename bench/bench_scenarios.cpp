// E14 — Scenario lab: the trace-zoo ratio dashboard and the RLE replay
// speedup.
//
// Part 1 runs the seeded Monte-Carlo harness (scenario/eval_harness.hpp)
// over the full scenario × algorithm matrix and prints the ratio/savings
// dashboard; the per-cell rows are recorded for BENCH_results.json, where
// scripts/bench_compare.py gates them (the harness is deterministic in the
// seed, so a drifting mean ratio is a behaviour regression, not noise).
// Every mode, smoke included, also requires the lcp(dense) and lcp(auto)
// cells to agree exactly, so a reintroduced backend fork fails the run.
//
// Part 2 measures the run-length-encoded replay against the slot-by-slot
// replay of the same instance on a T = 10⁶ trace with ≤ 10³ runs (the
// acceptance shape): the PWL work-function shapes reach their per-run
// fixpoint within a handful of steps, so the RLE replay does O(#runs)
// tracker work and must be >= 10x faster with a bit-identical schedule
// (both claims checked here in full mode; smoke only exercises the path).
#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using rs::scenario::CellSummary;
using rs::scenario::HarnessConfig;
using rs::scenario::MonteCarloReport;
using rs::scenario::RleProblem;

// The acceptance-shape instance: `runs` constant-λ runs of `slots_per_run`
// slots over a large fleet, linear-tariff restricted costs (exact
// zero-breakpoint PWL forms, so the replay is m-independent).
RleProblem speedup_instance(int runs, int slots_per_run, int m) {
  std::vector<RleProblem::Run> rle_runs;
  rle_runs.reserve(static_cast<std::size_t>(runs));
  for (int r = 0; r < runs; ++r) {
    // Cycle through 8 demand levels so consecutive runs differ.
    const double lambda =
        static_cast<double>(r % 8 + 1) / 10.0 * static_cast<double>(m);
    rle_runs.push_back(RleProblem::Run{
        std::make_shared<rs::core::LinearLoadSlotCost>(1.0, 0.5, lambda),
        slots_per_run});
  }
  return RleProblem(m, 6.0, std::move(rle_runs));
}

struct SpeedupRow {
  int horizon = 0;
  int runs = 0;
  double slot_by_slot_seconds = 0.0;
  double rle_seconds = 0.0;
  double speedup = 0.0;
  bool bit_identical = false;
};

SpeedupRow measure_rle_speedup(int runs, int slots_per_run, int m,
                               int best_of) {
  const RleProblem rle = speedup_instance(runs, slots_per_run, m);
  const rs::core::Problem expanded = rle.expand();
  SpeedupRow row;
  row.horizon = rle.horizon();
  row.runs = rle.run_count();

  rs::core::Schedule slot_schedule;
  double slot_best = rs::util::kInf;
  for (int rep = 0; rep < best_of; ++rep) {
    rs::online::Lcp lcp;
    rs::util::Stopwatch watch;
    slot_schedule = rs::online::run_online(lcp, expanded);
    slot_best = std::min(slot_best, watch.seconds());
  }
  row.slot_by_slot_seconds = slot_best;

  rs::core::Schedule rle_schedule;
  double rle_best = rs::util::kInf;
  for (int rep = 0; rep < best_of; ++rep) {
    rs::util::Stopwatch watch;
    rle_schedule = rs::online::run_lcp(rle);
    rle_best = std::min(rle_best, watch.seconds());
  }
  row.rle_seconds = rle_best;
  row.speedup = row.slot_by_slot_seconds / row.rle_seconds;
  row.bit_identical = rle_schedule == slot_schedule;
  return row;
}

void append_cell_json(std::ostringstream& out, const CellSummary& cell,
                      bool first) {
  if (!first) out << ",";
  out << "\n    {\"scenario\": \"" << rs::scenario::to_string(cell.kind)
      << "\", \"algorithm\": \"" << rs::scenario::to_string(cell.algorithm)
      << "\", \"mean_ratio\": " << cell.ratio.mean
      << ", \"max_ratio\": " << cell.max_ratio
      << ", \"mean_savings_percent\": " << cell.savings_percent.mean
      << ", \"mean_optimal_cost\": " << cell.mean_optimal_cost
      << ", \"samples\": " << cell.samples << "}";
}

}  // namespace

int main(int argc, char** argv) {
  const rs::util::CliArgs args(argc, argv);
  const bool smoke =
      args.get_bool("smoke", std::getenv("RIGHTSIZER_BENCH_SMOKE") != nullptr);
  const std::string json_path = args.get("json", "");

  std::cout << "E14  scenario lab (smoke=" << smoke << ")\n\n";

  // -- Part 1: the ratio dashboard ----------------------------------------
  HarnessConfig config;
  config.base_seed = 2024;
  config.samples_per_scenario = smoke ? 2 : 8;
  if (smoke) {
    config.zoo.servers = 16;
    config.zoo.horizon = 192;
    config.zoo.peak = 12.0;
    config.zoo.quantize_levels = 12;
    config.zoo.adversary_eps = 0.3;
  }
  const MonteCarloReport report = rs::scenario::run_monte_carlo(config);
  std::cout << rs::scenario::dashboard_markdown(report) << "\n";

  for (const CellSummary& cell : report.cells) {
    const std::string label =
        std::string(rs::scenario::to_string(cell.kind)) + "/" +
        rs::scenario::to_string(cell.algorithm);
    rs::bench::check(cell.ratio.mean >= 1.0 - 1e-9,
                     label + ": mean ratio below 1 (beat the optimum?)");
    if (cell.algorithm != rs::scenario::HarnessAlgorithm::kRandomizedRounding) {
      // Theorem 2: LCP never exceeds 3·OPT on any sample.
      rs::bench::check(cell.max_ratio <= 3.0 + 1e-6,
                       label + ": LCP ratio above the Theorem-2 bound");
    }
  }
  // The tracker backend is a performance choice, never a semantic one:
  // dense and auto LCP must score identical ratios on every scenario.
  for (const CellSummary& dense : report.cells) {
    if (dense.algorithm != rs::scenario::HarnessAlgorithm::kLcpDense) continue;
    for (const CellSummary& automatic : report.cells) {
      if (automatic.kind != dense.kind ||
          automatic.algorithm != rs::scenario::HarnessAlgorithm::kLcpAuto) {
        continue;
      }
      rs::bench::check(automatic.ratio.mean == dense.ratio.mean &&
                           automatic.max_ratio == dense.max_ratio,
                       std::string(rs::scenario::to_string(dense.kind)) +
                           ": lcp(dense) and lcp(auto) ratios differ");
    }
  }

  // -- Part 2: RLE replay speedup -----------------------------------------
  // Acceptance shape: T = 10⁶, 10³ runs (smoke: 2·10⁴ / 10² — exercises the
  // path without the wall-clock claim).
  const int runs = smoke ? 100 : 1000;
  const int slots_per_run = smoke ? 200 : 1000;
  const int m = 100000;
  const SpeedupRow speedup =
      measure_rle_speedup(runs, slots_per_run, m, /*best_of=*/2);
  std::cout << "rle replay: T=" << speedup.horizon
            << " runs=" << speedup.runs << " slot_by_slot="
            << speedup.slot_by_slot_seconds << "s rle=" << speedup.rle_seconds
            << "s speedup=" << speedup.speedup << "x bit_identical="
            << (speedup.bit_identical ? "yes" : "NO") << "\n";
  rs::bench::check(speedup.bit_identical,
                   "RLE replay schedule differs from slot-by-slot replay");
  if (!smoke) {
    rs::bench::check(speedup.speedup >= 10.0,
                     "RLE replay speedup " + std::to_string(speedup.speedup) +
                         "x below the 10x acceptance bound");
  }

  if (!json_path.empty()) {
    std::ostringstream out;
    out << "{\n  \"smoke\": " << (smoke ? "true" : "false")
        << ",\n  \"scenario_cells\": [";
    for (std::size_t i = 0; i < report.cells.size(); ++i) {
      append_cell_json(out, report.cells[i], i == 0);
    }
    out << "\n  ],\n  \"rle_speedup\": {\"horizon\": " << speedup.horizon
        << ", \"runs\": " << speedup.runs
        << ", \"slot_by_slot_seconds\": " << speedup.slot_by_slot_seconds
        << ", \"rle_seconds\": " << speedup.rle_seconds
        << ", \"speedup\": " << speedup.speedup << ", \"bit_identical\": "
        << (speedup.bit_identical ? "true" : "false") << "}\n}\n";
    std::ofstream file(json_path);
    file << out.str();
    std::cout << "\nwrote " << json_path << " (" << report.cells.size()
              << " cells)\n";
  }

  return rs::bench::finish("E14 scenario lab");
}
