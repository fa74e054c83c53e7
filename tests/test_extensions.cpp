// Tests for the extension components: the low-memory corridor solver, the
// receding-horizon / AFHC baselines, piecewise-linear cost functions, and
// the DOT exporter.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "core/piecewise_linear.hpp"
#include "core/schedule.hpp"
#include "graph/dot_export.hpp"
#include "offline/dp_solver.hpp"
#include "offline/low_memory_solver.hpp"
#include "online/receding_horizon.hpp"
#include "util/math_util.hpp"
#include "util/rng.hpp"
#include "workload/random_instance.hpp"

namespace {

using rs::core::Problem;
using rs::core::Schedule;
using rs::util::kInf;
using rs::workload::InstanceFamily;

// --- LowMemorySolver ---------------------------------------------------------

TEST(LowMemorySolver, MatchesDpAcrossFamilies) {
  rs::util::Rng rng(41);
  const rs::offline::DpSolver dp;
  const rs::offline::LowMemorySolver low;
  for (InstanceFamily family : rs::workload::all_instance_families()) {
    for (int trial = 0; trial < 8; ++trial) {
      const int T = static_cast<int>(rng.uniform_int(1, 40));
      const int m = static_cast<int>(rng.uniform_int(1, 16));
      const Problem p = rs::workload::random_instance(
          rng, family, T, m, rng.uniform(0.2, 3.0));
      const rs::offline::OfflineResult expected = dp.solve(p);
      const rs::offline::OfflineResult actual = low.solve(p);
      ASSERT_NEAR(actual.cost, expected.cost, 1e-8)
          << rs::workload::family_name(family) << " T=" << T << " m=" << m;
      if (actual.feasible()) {
        // The returned schedule itself must price at the optimum.
        EXPECT_NEAR(rs::core::total_cost(p, actual.schedule), expected.cost,
                    1e-8);
      }
    }
  }
}

TEST(LowMemorySolver, EdgeCases) {
  const rs::offline::LowMemorySolver low;
  const Problem empty(3, 1.0, {});
  EXPECT_DOUBLE_EQ(low.solve(empty).cost, 0.0);

  const Problem single = rs::core::make_table_problem(2, 1.0, {{2.0, 0.5, 1.0}});
  const rs::offline::OfflineResult result = low.solve(single);
  EXPECT_EQ(result.schedule, (Schedule{1}));
  EXPECT_NEAR(result.cost, 1.5, 1e-12);

  const Problem infeasible = rs::core::make_table_problem(1, 1.0, {{kInf, kInf}});
  EXPECT_FALSE(low.solve(infeasible).feasible());
}

TEST(LowMemorySolver, LongHorizonStress) {
  rs::util::Rng rng(43);
  const Problem p = rs::workload::random_instance(
      rng, InstanceFamily::kQuadratic, 500, 12, 1.0);
  const double expected = rs::offline::DpSolver().solve_cost(p);
  const rs::offline::OfflineResult actual =
      rs::offline::LowMemorySolver().solve(p);
  EXPECT_NEAR(actual.cost, expected, 1e-7);
  EXPECT_NEAR(rs::core::total_cost(p, actual.schedule), expected, 1e-7);
}

// --- RecedingHorizon / AFHC --------------------------------------------------

TEST(PlanFixedHorizon, SolvesWindowOptimally) {
  // Hand-checkable window: start 0, β = 1.
  const auto f1 = std::make_shared<rs::core::TableCost>(
      std::vector<double>{3.0, 0.0, 0.0});
  const auto f2 = std::make_shared<rs::core::TableCost>(
      std::vector<double>{0.0, 2.0, 4.0});
  std::vector<rs::core::CostPtr> lookahead = {f2};
  const std::vector<int> plan = rs::online::plan_fixed_horizon(
      0, f1, {lookahead.data(), 1}, 2, 1.0);
  ASSERT_EQ(plan.size(), 2u);
  // Optimal: x1 = 1 (pay β=1, f=0), x2 = 0 (f=0): total 1.
  EXPECT_EQ(plan[0], 1);
  EXPECT_EQ(plan[1], 0);
}

TEST(RecedingHorizon, FullLookaheadIsOptimal) {
  // With the whole future visible, RHC's first action follows an optimal
  // plan at every step, so its schedule is optimal.
  rs::util::Rng rng(44);
  for (int trial = 0; trial < 10; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(1, 20));
    const int m = static_cast<int>(rng.uniform_int(1, 8));
    const Problem p = rs::workload::random_instance(
        rng, InstanceFamily::kConvexTable, T, m, rng.uniform(0.3, 2.0));
    rs::online::RecedingHorizon rhc;
    const Schedule x = rs::online::run_online(rhc, p, T);
    EXPECT_NEAR(rs::core::total_cost(p, x),
                rs::offline::DpSolver().solve_cost(p), 1e-8);
  }
}

TEST(RecedingHorizon, ZeroWindowIsGreedy) {
  // Without lookahead RHC greedily balances the switch against the current
  // slot only.
  const Problem p = rs::core::make_table_problem(
      1, 10.0, {{1.0, 0.0}, {0.0, 1.0}});
  rs::online::RecedingHorizon rhc;
  const Schedule x = rs::online::run_online(rhc, p, 0);
  // β = 10 dominates: stays at 0 both slots.
  EXPECT_EQ(x, (Schedule{0, 0}));
}

TEST(RecedingHorizon, RespectsHardConstraints) {
  const Problem p = rs::core::make_table_problem(
      2, 1.0, {{kInf, 1.0, 2.0}, {kInf, kInf, 0.5}});
  rs::online::RecedingHorizon rhc;
  const Schedule x = rs::online::run_online(rhc, p, 1);
  EXPECT_GE(x[0], 1);
  EXPECT_EQ(x[1], 2);
}

TEST(Afhc, MatchesRhcForZeroWindow) {
  rs::util::Rng rng(45);
  const Problem p = rs::workload::random_instance(
      rng, InstanceFamily::kQuadratic, 25, 6, 1.0);
  rs::online::RecedingHorizon rhc;
  const Schedule rhc_schedule = rs::online::run_online(rhc, p, 0);
  rs::online::AveragingFixedHorizon afhc(0);
  const rs::core::FractionalSchedule afhc_schedule =
      rs::online::run_online(afhc, p, 0);
  for (std::size_t t = 0; t < rhc_schedule.size(); ++t) {
    EXPECT_NEAR(afhc_schedule[t], static_cast<double>(rhc_schedule[t]), 1e-12);
  }
}

TEST(Afhc, StaysWithinBoxAndHelpsOnDiurnal) {
  rs::util::Rng rng(46);
  const Problem p = rs::workload::random_instance(
      rng, InstanceFamily::kQuadratic, 60, 10, 2.0);
  const int w = 4;
  rs::online::AveragingFixedHorizon afhc(w);
  const rs::core::FractionalSchedule x = rs::online::run_online(afhc, p, w);
  for (double value : x) {
    EXPECT_GE(value, 0.0);
    EXPECT_LE(value, 10.0);
  }
  EXPECT_THROW(rs::online::AveragingFixedHorizon(-1), std::invalid_argument);
}

TEST(RecedingHorizon, StreamedCostsMatchColdPlans) {
  // A streaming caller holds only the visible window: each step appends a
  // freshly allocated slot cost and drops the one it has just served, so
  // the allocator hands freed addresses to later costs.  Every decision
  // must still equal the cold plan from the same committed state.
  const int m = 10;
  const double beta = 2.0;
  const int steps = 2000;
  for (int w = 1; w <= 4; ++w) {
    rs::util::Rng rng(0x5EED0ull + static_cast<std::uint64_t>(w));
    auto fresh_cost = [&]() -> rs::core::CostPtr {
      return std::make_shared<rs::core::AffineAbsCost>(
          static_cast<double>(rng.uniform_int(1, 3)),
          static_cast<double>(rng.uniform_int(0, m)), 0.0);
    };
    std::deque<rs::core::CostPtr> window;
    for (int k = 0; k <= w; ++k) window.push_back(fresh_cost());

    rs::online::RecedingHorizon rhc;
    rhc.reset(rs::online::OnlineContext{.m = m, .beta = beta});
    int cold_state = 0;
    int mismatches = 0;
    for (int t = 0; t < steps; ++t) {
      const std::vector<rs::core::CostPtr> lookahead(window.begin() + 1,
                                                     window.end());
      const int decided = rhc.decide(window.front(), lookahead);
      cold_state = rs::online::plan_fixed_horizon(cold_state, window.front(),
                                                  lookahead, m, beta)
                       .front();
      if (decided != cold_state) ++mismatches;
      window.pop_front();  // the served slot's cost is released here
      window.push_back(fresh_cost());
    }
    EXPECT_EQ(mismatches, 0) << "w = " << w;
  }
}

TEST(PlanFixedHorizon, RejectsStartStateOutsideTheBox) {
  const rs::core::CostPtr f = std::make_shared<rs::core::TableCost>(
      std::vector<double>{1.0, 0.0, 1.0});
  EXPECT_THROW(rs::online::plan_fixed_horizon(-1, f, {}, 2, 1.0),
               std::invalid_argument);
  EXPECT_THROW(rs::online::plan_fixed_horizon(3, f, {}, 2, 1.0),
               std::invalid_argument);
  EXPECT_EQ(rs::online::plan_fixed_horizon(2, f, {}, 2, 1.0),
            (std::vector<int>{1}));
}

TEST(PlanFixedHorizon, RejectsNullCost) {
  const rs::core::CostPtr f = std::make_shared<rs::core::TableCost>(
      std::vector<double>{1.0, 0.0, 1.0});
  const std::vector<rs::core::CostPtr> gap = {nullptr};
  EXPECT_THROW(rs::online::plan_fixed_horizon(0, nullptr, {}, 2, 1.0),
               std::invalid_argument);
  EXPECT_THROW(rs::online::plan_fixed_horizon(0, f, gap, 2, 1.0),
               std::invalid_argument);
}

TEST(PlanFixedHorizon, NaNWindowThrowsForRhcAndAfhc) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const rs::core::CostPtr clean = std::make_shared<rs::core::TableCost>(
      std::vector<double>{3.0, 1.0, 0.0});
  const rs::core::CostPtr poisoned = std::make_shared<rs::core::TableCost>(
      std::vector<double>{0.0, nan, 4.0});
  const std::vector<rs::core::CostPtr> lookahead = {poisoned};
  EXPECT_THROW(rs::online::plan_fixed_horizon(0, clean, lookahead, 2, 1.0),
               std::invalid_argument);
  EXPECT_THROW(rs::online::plan_fixed_horizon(0, poisoned, {}, 2, 1.0),
               std::invalid_argument);

  const rs::online::OnlineContext context{.m = 2, .beta = 1.0};
  rs::online::RecedingHorizon rhc;
  rhc.reset(context);
  EXPECT_THROW(rhc.decide(clean, lookahead), std::invalid_argument);
  rs::online::AveragingFixedHorizon afhc(1);
  afhc.reset(context);
  EXPECT_THROW(afhc.decide(clean, lookahead), std::invalid_argument);
}

// --- PiecewiseLinearCost -----------------------------------------------------

TEST(PiecewiseLinear, EvaluatesSegmentsAndExtends) {
  rs::core::PiecewiseLinearCost f(
      {{0.0, 4.0}, {2.0, 0.0}, {5.0, 3.0}});
  EXPECT_DOUBLE_EQ(f.at_real(0.0), 4.0);
  EXPECT_DOUBLE_EQ(f.at_real(1.0), 2.0);
  EXPECT_DOUBLE_EQ(f.at_real(2.0), 0.0);
  EXPECT_DOUBLE_EQ(f.at_real(3.5), 1.5);
  EXPECT_DOUBLE_EQ(f.at(6), 4.0);        // extension of the last slope
  EXPECT_DOUBLE_EQ(f.at_real(-1.0), 6.0);  // extension of the first slope
}

TEST(PiecewiseLinear, RejectsNonConvexAndBadInput) {
  EXPECT_THROW(rs::core::PiecewiseLinearCost({}), std::invalid_argument);
  EXPECT_THROW(rs::core::PiecewiseLinearCost({{0.0, 0.0}, {0.0, 1.0}}),
               std::invalid_argument);
  // Slopes 1 then 0.5: concave kink.
  EXPECT_THROW(rs::core::PiecewiseLinearCost(
                   {{0.0, 0.0}, {1.0, 1.0}, {2.0, 1.5}}),
               std::invalid_argument);
}

TEST(PiecewiseLinear, ConstantFunction) {
  rs::core::PiecewiseLinearCost f({{0.0, 2.5}});
  EXPECT_DOUBLE_EQ(f.at(0), 2.5);
  EXPECT_DOUBLE_EQ(f.at(100), 2.5);
}

TEST(Hinge, MatchesSoftSlaShape) {
  const rs::core::CostPtr hinge = rs::core::make_hinge(3.0, 4.0);
  EXPECT_DOUBLE_EQ(hinge->at(0), 0.0);
  EXPECT_DOUBLE_EQ(hinge->at(4), 0.0);
  EXPECT_DOUBLE_EQ(hinge->at(6), 6.0);
  EXPECT_TRUE(rs::core::validate_cost_function(*hinge, 10).ok());
  EXPECT_THROW(rs::core::make_hinge(-1.0, 0.0), std::invalid_argument);
}

TEST(SumCost, AddsPartsAndPropagatesInf) {
  auto a = std::make_shared<rs::core::AffineAbsCost>(1.0, 2.0);
  auto b = rs::core::make_hinge(2.0, 1.0);
  rs::core::SumCost sum({a, b});
  EXPECT_DOUBLE_EQ(sum.at(0), 2.0);
  EXPECT_DOUBLE_EQ(sum.at(3), 1.0 + 4.0);
  EXPECT_TRUE(rs::core::validate_cost_function(sum, 8).ok());

  auto constrained = std::make_shared<rs::core::TableCost>(
      std::vector<double>{kInf, 0.0});
  rs::core::SumCost with_inf({a, constrained});
  EXPECT_TRUE(std::isinf(with_inf.at(0)));
  EXPECT_THROW(rs::core::SumCost({}), std::invalid_argument);
  EXPECT_THROW(rs::core::SumCost({nullptr}), std::invalid_argument);
}

TEST(SumCost, BuildsProblemSlots) {
  // Energy + shortfall hinge assembled from the public pieces behaves like
  // the dcsim soft model.
  std::vector<rs::core::CostPtr> fs;
  for (double lambda : {2.0, 5.0}) {
    fs.push_back(std::make_shared<rs::core::SumCost>(std::vector<rs::core::CostPtr>{
        std::make_shared<rs::core::PiecewiseLinearCost>(
            std::vector<rs::core::Breakpoint>{{0.0, 0.0}, {1.0, 1.0}}),
        rs::core::make_shortfall_hinge(20.0, lambda)}));
  }
  const Problem p(8, 3.0, std::move(fs));
  EXPECT_NO_THROW(p.validate());
  const rs::offline::OfflineResult result = rs::offline::DpSolver().solve(p);
  ASSERT_TRUE(result.feasible());
  EXPECT_GE(result.schedule[1], 5);  // hinge forces capacity at the peak
}

TEST(ShortfallHinge, PenalizesBelowKnee) {
  const rs::core::CostPtr hinge = rs::core::make_shortfall_hinge(3.0, 4.0);
  EXPECT_DOUBLE_EQ(hinge->at(0), 12.0);
  EXPECT_DOUBLE_EQ(hinge->at(4), 0.0);
  EXPECT_DOUBLE_EQ(hinge->at(6), 0.0);
  EXPECT_TRUE(rs::core::validate_cost_function(*hinge, 10).ok());
}

// --- DOT export --------------------------------------------------------------

TEST(DotExport, RendersSmallGraphWithHighlightedPath) {
  const Problem p = rs::core::make_table_problem(
      2, 1.0, {{2.0, 0.5, 1.0}, {1.0, 0.5, 2.0}});
  const std::string dot = rs::graph::schedule_graph_dot(p);
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("v0_0"), std::string::npos);
  EXPECT_NE(dot.find("v3_0"), std::string::npos);      // final layer
  EXPECT_NE(dot.find("fillcolor=gold"), std::string::npos);  // optimal path
  EXPECT_NE(dot.find("->"), std::string::npos);
}

TEST(DotExport, RefusesLargeGraphs) {
  rs::util::Rng rng(47);
  const Problem p = rs::workload::random_instance(
      rng, InstanceFamily::kConvexTable, 50, 40, 1.0);
  EXPECT_THROW(rs::graph::schedule_graph_dot(p), std::invalid_argument);
}

TEST(DotExport, GenericGraphRendering) {
  rs::graph::LayeredGraph graph({1, 2, 1});
  graph.add_edge(0, 0, 0, 1.5);
  graph.add_edge(0, 0, 1, 0.5);
  graph.add_edge(1, 1, 0, 0.25);
  const std::string dot = rs::graph::to_dot(graph);
  EXPECT_NE(dot.find("v0_0 -> v1_1"), std::string::npos);
  EXPECT_NE(dot.find("0.50"), std::string::npos);
}

}  // namespace
