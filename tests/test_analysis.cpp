// Tests for the analysis harness: ratio measurement, Monte Carlo, and the
// savings study rows.
#include <gtest/gtest.h>

#include "analysis/competitive.hpp"
#include "analysis/monte_carlo.hpp"
#include "analysis/savings.hpp"
#include "core/dense_problem.hpp"
#include "online/baselines.hpp"
#include "online/lcp.hpp"
#include "online/level_flow.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"
#include "workload/random_instance.hpp"

namespace {

using namespace rs::analysis;
using rs::core::Problem;
using rs::workload::InstanceFamily;

TEST(MeasureRatio, ComponentsAddUp) {
  rs::util::Rng rng(31);
  const Problem p = rs::workload::random_instance(
      rng, InstanceFamily::kQuadratic, 30, 8, 1.0);
  rs::online::Lcp lcp;
  const RatioReport report = measure_ratio(lcp, p);
  EXPECT_EQ(report.algorithm, "lcp");
  EXPECT_NEAR(report.algorithm_cost,
              report.operating_cost + report.switching_cost, 1e-9);
  EXPECT_GT(report.optimal_cost, 0.0);
  EXPECT_GE(report.ratio, 1.0 - 1e-9);
  EXPECT_LE(report.ratio, 3.0 + 1e-9);
}

TEST(MeasureRatio, FractionalVariant) {
  rs::util::Rng rng(32);
  const Problem p = rs::workload::random_instance(
      rng, InstanceFamily::kConvexTable, 25, 6, 1.5);
  rs::online::LevelFlow flow;
  const RatioReport report = measure_ratio(flow, p);
  EXPECT_LE(report.ratio, 2.0 + 1e-6);
}

TEST(MeasureRatio, RejectsScoringOfAnotherInstance) {
  // A scoring source of another instance — other T, m or β — is rejected
  // by both the integral and the fractional measurement.
  rs::util::Rng rng(36);
  const Problem p = rs::workload::random_instance(
      rng, InstanceFamily::kQuadratic, 20, 6, 1.0);
  const Problem longer = rs::workload::random_instance(
      rng, InstanceFamily::kQuadratic, 21, 6, 1.0);
  const Problem wider = rs::workload::random_instance(
      rng, InstanceFamily::kQuadratic, 20, 7, 1.0);
  const Problem dearer = rs::workload::random_instance(
      rng, InstanceFamily::kQuadratic, 20, 6, 2.0);
  for (const Problem* other : {&longer, &wider, &dearer}) {
    const rs::core::DenseProblem mismatched(*other);
    rs::online::Lcp lcp;
    rs::online::LevelFlow flow;
    EXPECT_THROW(measure_ratio(lcp, p, mismatched), std::invalid_argument);
    EXPECT_THROW(measure_ratio(flow, p, mismatched), std::invalid_argument);
    EXPECT_THROW(measure_ratio(lcp, p, *other), std::invalid_argument);
  }
}

TEST(MonteCarlo, DeterministicAcrossRuns) {
  rs::util::Rng rng(33);
  const Problem p = rs::workload::random_instance(
      rng, InstanceFamily::kConvexTable, 15, 4, 1.0);
  const MonteCarloReport a = monte_carlo_randomized_rounding(p, 64, 42);
  const MonteCarloReport b = monte_carlo_randomized_rounding(p, 64, 42);
  EXPECT_DOUBLE_EQ(a.cost.mean, b.cost.mean);
  EXPECT_DOUBLE_EQ(a.cost.stddev, b.cost.stddev);
}

TEST(MonteCarlo, MeanRatioWithinTheorem3Bound) {
  rs::util::Rng rng(34);
  const Problem p = rs::workload::random_instance(
      rng, InstanceFamily::kQuadratic, 40, 6, 1.2);
  const MonteCarloReport report = monte_carlo_randomized_rounding(p, 256, 7);
  EXPECT_GT(report.optimal_cost, 0.0);
  EXPECT_LE(report.ratio.mean, 2.0 + 3.0 * report.ratio.ci95_half_width);
}

TEST(MonteCarlo, Validation) {
  const Problem p = rs::core::make_table_problem(1, 1.0, {{0.0, 1.0}});
  EXPECT_THROW(monte_carlo(p, 0, 1, [](std::uint64_t) { return 0.0; }),
               std::invalid_argument);
  EXPECT_THROW(monte_carlo(p, 1, 1, nullptr), std::invalid_argument);
}

TEST(Savings, RightSizingBeatsStaticOnDiurnalTrace) {
  rs::util::Rng rng(35);
  rs::dcsim::DataCenterModel model;
  model.servers = 24;
  const rs::workload::Trace trace =
      rs::workload::hotmail_like(rng, 3, 48, 0.6 * model.servers);
  const SavingsRow row = evaluate_savings(model, trace, "hotmail_like");
  EXPECT_EQ(row.trace_name, "hotmail_like");
  EXPECT_GT(row.optimal_savings_percent, 0.0);
  EXPECT_GE(row.lcp_cost, row.optimal_cost - 1e-9);
  EXPECT_LE(row.lcp_ratio, 3.0 + 1e-9);
  EXPECT_GE(row.static_cost, row.optimal_cost - 1e-9);
}

TEST(Savings, LargerBetaShrinksSavings) {
  // More expensive switching => right-sizing helps less (qualitative shape
  // of Lin et al.'s Figure on switching-cost sensitivity).
  rs::util::Rng rng(36);
  rs::dcsim::DataCenterModel model;
  model.servers = 24;
  const rs::workload::Trace trace =
      rs::workload::hotmail_like(rng, 3, 48, 0.6 * model.servers);
  const SavingsRow cheap = evaluate_savings(model, trace, "t", 0.5);
  const SavingsRow expensive = evaluate_savings(model, trace, "t", 32.0);
  EXPECT_GT(cheap.optimal_savings_percent,
            expensive.optimal_savings_percent);
  EXPECT_THROW(evaluate_savings(model, trace, "t", 0.0),
               std::invalid_argument);
}

}  // namespace
