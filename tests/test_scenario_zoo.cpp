// Trace-zoo tests: structural validity of every scenario kind plus the
// paper invariants measured on them — LCP within 3·OPT (Theorem 2),
// randomized rounding within 2·OPT in expectation (Theorem 3), and the
// Theorem-4 adversarial scenario pushing the measured LCP ratio toward 3
// as ε shrinks.
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "offline/dp_solver.hpp"
#include "online/lcp.hpp"
#include "online/online_algorithm.hpp"
#include "online/randomized_rounding.hpp"
#include "scenario/rle.hpp"
#include "scenario/trace_zoo.hpp"
#include "util/rng.hpp"

namespace {

using rs::scenario::Scenario;
using rs::scenario::ScenarioKind;
using rs::scenario::ZooParams;

ZooParams small_params() {
  ZooParams params;
  params.servers = 20;
  params.horizon = 288;
  params.slots_per_day = 96;
  params.peak = 14.0;
  params.quantize_levels = 12;
  params.adversary_eps = 0.25;
  return params;
}

TEST(TraceZoo, EveryKindIsWellFormedAndCompresses) {
  const ZooParams params = small_params();
  const std::vector<Scenario> zoo = rs::scenario::make_zoo(params, 2024);
  ASSERT_EQ(zoo.size(), rs::scenario::all_scenario_kinds().size());
  for (const Scenario& scenario : zoo) {
    SCOPED_TRACE(scenario.name);
    EXPECT_EQ(scenario.name, rs::scenario::to_string(scenario.kind));
    EXPECT_GE(scenario.trace.horizon(), 1);
    EXPECT_EQ(scenario.rle.horizon(), scenario.trace.horizon());
    EXPECT_EQ(scenario.problem.horizon(), scenario.trace.horizon());
    // Genuine run-length compression: quantization/holds must collapse the
    // trace to well under one run per slot.
    EXPECT_LT(scenario.rle.run_count(), scenario.trace.horizon() / 2);
    EXPECT_GE(scenario.rle.run_count(), 1);
    // The instance is a valid convex problem slot by slot.
    scenario.problem.validate();
    // Expansion shares one cost object per run.
    const rs::scenario::RleProblem regrouped =
        rs::scenario::rle_compress(scenario.problem);
    EXPECT_EQ(regrouped.run_count(), scenario.rle.run_count());
  }
}

TEST(TraceZoo, DeterministicInSeed) {
  const ZooParams params = small_params();
  for (ScenarioKind kind : rs::scenario::all_scenario_kinds()) {
    const Scenario a = rs::scenario::make_scenario(kind, params, 7);
    const Scenario b = rs::scenario::make_scenario(kind, params, 7);
    EXPECT_EQ(a.trace.lambda, b.trace.lambda)
        << rs::scenario::to_string(kind);
  }
  // Stochastic kinds decorrelate across seeds.
  const Scenario s1 =
      rs::scenario::make_scenario(ScenarioKind::kDiurnalWeekly, params, 1);
  const Scenario s2 =
      rs::scenario::make_scenario(ScenarioKind::kDiurnalWeekly, params, 2);
  EXPECT_NE(s1.trace.lambda, s2.trace.lambda);
}

TEST(TraceZoo, QuantizeTraceSnapsToGrid) {
  const rs::workload::Trace trace{{0.0, 0.11, 5.55, 9.99, 12.0}};
  const rs::workload::Trace q =
      rs::scenario::quantize_trace(trace, 10.0, 10);
  ASSERT_EQ(q.horizon(), 5);
  for (double value : q.lambda) {
    const double index = value / 1.0;
    EXPECT_DOUBLE_EQ(index, std::round(index));
    EXPECT_GE(value, 0.0);
    EXPECT_LE(value, 10.0);  // values above peak clamp to the top level
  }
  // Idempotent: quantizing a quantized trace is the identity.
  EXPECT_EQ(rs::scenario::quantize_trace(q, 10.0, 10).lambda, q.lambda);
  EXPECT_THROW(rs::scenario::quantize_trace(trace, 0.0, 10),
               std::invalid_argument);
  EXPECT_THROW(rs::scenario::quantize_trace(trace, 10.0, 0),
               std::invalid_argument);
}

TEST(TraceZoo, ParameterValidation) {
  ZooParams params = small_params();
  params.servers = 0;
  EXPECT_THROW(
      rs::scenario::make_scenario(ScenarioKind::kDiurnalWeekly, params, 1),
      std::invalid_argument);
  params = small_params();
  params.pareto_alpha = 1.0;
  EXPECT_THROW(
      rs::scenario::make_scenario(ScenarioKind::kHeavyTail, params, 1),
      std::invalid_argument);
  params = small_params();
  params.adversary_eps = 0.0;
  EXPECT_THROW(
      rs::scenario::make_scenario(ScenarioKind::kAdversarial, params, 1),
      std::invalid_argument);
}

// Theorem 2 on the zoo: LCP pays at most 3·OPT on every scenario.  The
// tracker backend is a performance choice only: dense and auto LCP — plain,
// RLE-replayed, and windowed — produce bitwise-equal schedules on every
// zoo kind and on the Theorem-4 adversary across ε.
TEST(ZooPaperInvariants, LcpWithinThreeTimesOpt) {
  using Backend = rs::offline::WorkFunctionTracker::Backend;
  std::vector<Scenario> scenarios;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    for (Scenario& scenario : rs::scenario::make_zoo(small_params(), seed)) {
      scenarios.push_back(std::move(scenario));
    }
  }
  for (double eps : {0.5, 0.3, 0.25, 0.1, 0.05}) {
    ZooParams params = small_params();
    params.adversary_eps = eps;
    params.horizon = static_cast<int>(std::ceil(1.0 / (eps * eps))) + 1;
    scenarios.push_back(
        rs::scenario::make_scenario(ScenarioKind::kAdversarial, params, 0));
  }
  for (const Scenario& scenario : scenarios) {
    SCOPED_TRACE(scenario.name + " T=" +
                 std::to_string(scenario.problem.horizon()));
    const double opt =
        rs::offline::DpSolver().solve_cost(scenario.problem);
    const rs::core::Schedule schedule = rs::online::run_lcp(scenario.rle);
    rs::online::Lcp dense(Backend::kDense);
    rs::online::Lcp automatic(Backend::kAuto);
    EXPECT_EQ(rs::online::run_online(dense, scenario.problem), schedule);
    EXPECT_EQ(rs::online::run_online(automatic, scenario.problem), schedule);
    for (int window : {1, 4}) {
      rs::online::Lcp dense_window(Backend::kDense);
      rs::online::Lcp auto_window(Backend::kAuto);
      EXPECT_EQ(rs::online::run_online(dense_window, scenario.problem, window),
                rs::online::run_online(auto_window, scenario.problem, window))
          << "w=" << window;
    }
    const double lcp = rs::core::total_cost(scenario.problem, schedule);
    ASSERT_GT(opt, 0.0);
    EXPECT_GE(lcp, opt - 1e-9);
    EXPECT_LE(lcp, 3.0 * opt + 1e-6);
  }
}

// Theorem 3 on the zoo: randomized rounding is 2-competitive in
// expectation.  Sample mean over independent rounding seeds, with slack
// for Monte-Carlo noise.
TEST(ZooPaperInvariants, RandomizedRoundingTwiceOptInExpectation) {
  ZooParams params = small_params();
  params.horizon = 192;
  const Scenario scenario =
      rs::scenario::make_scenario(ScenarioKind::kDiurnalWeekly, params, 5);
  const double opt = rs::offline::DpSolver().solve_cost(scenario.problem);
  ASSERT_GT(opt, 0.0);
  rs::util::KahanSum total;
  const int trials = 40;
  for (int trial = 0; trial < trials; ++trial) {
    rs::online::RandomizedRounding rounding(
        static_cast<std::uint64_t>(trial) + 1);
    total.add(rs::core::total_cost(
        scenario.problem, rs::online::run_online(rounding, scenario.problem)));
  }
  const double mean = total.value() / trials;
  EXPECT_LE(mean, 2.0 * opt * 1.10);  // 10% Monte-Carlo slack
  EXPECT_GE(mean, opt - 1e-9);
}

// Theorem 4 on the zoo: shrinking ε pushes the measured LCP ratio
// monotonically toward (and never past) 3.
TEST(ZooPaperInvariants, AdversarialRatioApproachesThree) {
  std::vector<double> ratios;
  // Along the designed horizon T = ⌈1/ε²⌉ + 1 the measured ratio climbs
  // 2.0 → 2.4 → 2.8 → 3.0 over this ε sequence; smaller ε oscillates
  // below 3 with horizon-truncation effects (partial adversary cycles),
  // so the monotone claim is pinned on this range.
  for (double eps : {0.5, 0.4, 0.3, 0.25}) {
    ZooParams params = small_params();
    params.adversary_eps = eps;
    // The Theorem-4 construction needs ~1/ε² slots to exhaust its budget.
    params.horizon =
        static_cast<int>(std::ceil(1.0 / (eps * eps))) + 1;
    const Scenario scenario =
        rs::scenario::make_scenario(ScenarioKind::kAdversarial, params, 0);
    const double opt = rs::offline::DpSolver().solve_cost(scenario.problem);
    const double lcp = rs::core::total_cost(
        scenario.problem, rs::online::run_lcp(scenario.rle));
    ASSERT_GT(opt, 0.0);
    ratios.push_back(lcp / opt);
  }
  for (std::size_t i = 1; i < ratios.size(); ++i) {
    EXPECT_GT(ratios[i], ratios[i - 1]) << "ratios not monotone at " << i;
  }
  EXPECT_GT(ratios.back(), 2.9);
  for (double ratio : ratios) EXPECT_LE(ratio, 3.0 + 1e-9);
}

}  // namespace
