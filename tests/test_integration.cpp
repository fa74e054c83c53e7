// End-to-end integration sweep: on a grid of (family, T, m, β, seed)
// instances, run every offline solver and every online algorithm and assert
// the full consistency web in one place:
//
//   * all five offline solvers agree on the optimal cost;
//   * every returned schedule prices at its reported cost and is feasible;
//   * LCP within [x^L, x^U] and at most 3x optimal; LCP(w) at most 3x;
//   * LevelFlow at most 2x; randomized rounding within one unit of its
//     fractional driver; RHC with full lookahead optimal;
//   * serialization round-trips preserve the optimum.
#include <gtest/gtest.h>

#include <cmath>

#include "core/schedule.hpp"
#include "core/serialization.hpp"
#include "offline/backward_solver.hpp"
#include "offline/binary_search_solver.hpp"
#include "offline/dp_solver.hpp"
#include "offline/graph_solver.hpp"
#include "offline/low_memory_solver.hpp"
#include "offline/work_function.hpp"
#include "online/lcp.hpp"
#include "online/level_flow.hpp"
#include "online/randomized_rounding.hpp"
#include "online/receding_horizon.hpp"
#include "util/rng.hpp"
#include "workload/random_instance.hpp"

namespace {

using rs::core::Problem;
using rs::core::Schedule;
using rs::workload::InstanceFamily;

struct IntegrationParam {
  InstanceFamily family;
  int T;
  int m;
  double beta;
  std::uint64_t seed;
};

class IntegrationSweep : public ::testing::TestWithParam<IntegrationParam> {};

TEST_P(IntegrationSweep, FullConsistencyWeb) {
  const IntegrationParam param = GetParam();
  rs::util::Rng rng(param.seed);
  const Problem p = rs::workload::random_instance(rng, param.family, param.T,
                                                  param.m, param.beta);

  // --- offline agreement ---
  const rs::offline::OfflineResult dp = rs::offline::DpSolver().solve(p);
  ASSERT_TRUE(dp.feasible());
  const double optimum = dp.cost;
  EXPECT_NEAR(rs::core::total_cost(p, dp.schedule), optimum, 1e-8);

  const rs::offline::OfflineResult graph = rs::offline::GraphSolver().solve(p);
  EXPECT_NEAR(graph.cost, optimum, 1e-8) << "graph";

  const rs::offline::OfflineResult binary =
      rs::offline::BinarySearchSolver().solve(p);
  EXPECT_NEAR(binary.cost, optimum, 1e-8) << "binary";
  EXPECT_NEAR(rs::core::total_cost(p, binary.schedule), optimum, 1e-8);

  const rs::offline::OfflineResult low =
      rs::offline::LowMemorySolver().solve(p);
  EXPECT_NEAR(low.cost, optimum, 1e-8) << "low_memory";
  EXPECT_NEAR(rs::core::total_cost(p, low.schedule), optimum, 1e-8);

  if (param.family != InstanceFamily::kConstrained) {
    EXPECT_NEAR(rs::offline::BackwardSolver().solve(p).cost, optimum, 1e-8)
        << "backward";
  }

  // --- LCP: corridor + ratio ---
  const rs::offline::BoundTrajectory bounds = rs::offline::compute_bounds(p);
  rs::online::Lcp lcp;
  const Schedule lcp_schedule = rs::online::run_online(lcp, p);
  EXPECT_TRUE(rs::core::is_feasible(p, lcp_schedule));
  for (int t = 0; t < param.T; ++t) {
    EXPECT_GE(lcp_schedule[static_cast<std::size_t>(t)],
              bounds.lower[static_cast<std::size_t>(t)]);
    EXPECT_LE(lcp_schedule[static_cast<std::size_t>(t)],
              bounds.upper[static_cast<std::size_t>(t)]);
  }
  const double lcp_cost = rs::core::total_cost(p, lcp_schedule);
  if (optimum > 0.0) {
    EXPECT_LE(lcp_cost, 3.0 * optimum + 1e-8) << "Theorem 2";
  }

  // --- LCP with prediction windows ---
  for (int w : {1, 3}) {
    rs::online::Lcp windowed;
    const Schedule x = rs::online::run_online(windowed, p, w);
    EXPECT_TRUE(rs::core::is_feasible(p, x));
    if (optimum > 0.0) {
      EXPECT_LE(rs::core::total_cost(p, x), 3.0 * optimum + 1e-8)
          << "LCP(w=" << w << ")";
    }
  }

  // --- fractional LevelFlow: factor 2 ---
  rs::online::LevelFlow flow;
  const rs::core::FractionalSchedule xbar = rs::online::run_online(flow, p);
  if (optimum > 1e-9) {
    EXPECT_LE(rs::core::total_cost(p, xbar), 2.0 * optimum + 1e-6)
        << "LevelFlow";
  }

  // --- randomized rounding stays glued to its driver ---
  rs::online::RandomizedRounding rounding(param.seed ^ 0xabcdef);
  const Schedule rounded = rs::online::run_online(rounding, p);
  for (int t = 0; t < param.T; ++t) {
    EXPECT_LE(std::fabs(static_cast<double>(
                  rounded[static_cast<std::size_t>(t)]) -
              xbar[static_cast<std::size_t>(t)]),
              1.0 + 1e-9);
  }

  // --- RHC with full lookahead is offline-optimal ---
  rs::online::RecedingHorizon rhc;
  const Schedule rhc_schedule = rs::online::run_online(rhc, p, param.T);
  EXPECT_NEAR(rs::core::total_cost(p, rhc_schedule), optimum, 1e-8)
      << "RHC full lookahead";

  // --- serialization survives with identical optimum ---
  const Problem round_trip =
      rs::core::problem_from_csv(rs::core::problem_to_csv(p));
  EXPECT_DOUBLE_EQ(rs::offline::DpSolver().solve_cost(round_trip), optimum);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, IntegrationSweep,
    ::testing::Values(
        IntegrationParam{InstanceFamily::kConvexTable, 1, 1, 1.0, 1},
        IntegrationParam{InstanceFamily::kConvexTable, 12, 6, 0.4, 2},
        IntegrationParam{InstanceFamily::kConvexTable, 35, 9, 2.2, 3},
        IntegrationParam{InstanceFamily::kConvexTable, 60, 17, 5.0, 4},
        IntegrationParam{InstanceFamily::kQuadratic, 20, 5, 0.9, 5},
        IntegrationParam{InstanceFamily::kQuadratic, 48, 23, 1.4, 6},
        IntegrationParam{InstanceFamily::kQuadratic, 30, 33, 3.3, 7},
        IntegrationParam{InstanceFamily::kAffineAbs, 25, 4, 0.6, 8},
        IntegrationParam{InstanceFamily::kAffineAbs, 55, 13, 2.8, 9},
        IntegrationParam{InstanceFamily::kFlatRegions, 18, 8, 1.1, 10},
        IntegrationParam{InstanceFamily::kFlatRegions, 42, 21, 0.3, 11},
        IntegrationParam{InstanceFamily::kConstrained, 15, 10, 1.6, 12},
        IntegrationParam{InstanceFamily::kConstrained, 33, 19, 4.4, 13},
        IntegrationParam{InstanceFamily::kCapacityCapped, 22, 11, 0.8, 14},
        IntegrationParam{InstanceFamily::kCapacityCapped, 40, 26, 2.1, 15}),
    [](const ::testing::TestParamInfo<IntegrationParam>& info) {
      return rs::workload::family_name(info.param.family) + "_T" +
             std::to_string(info.param.T) + "_m" +
             std::to_string(info.param.m) + "_s" +
             std::to_string(info.param.seed);
    });

// --- failure injection --------------------------------------------------------

TEST(FailureInjection, ValidateRejectsUserMistakes) {
  // Concave callable.
  const Problem concave(
      3, 1.0,
      {std::make_shared<rs::core::FunctionCost>(
          [](int x) { return std::sqrt(static_cast<double>(x)); })});
  EXPECT_THROW(concave.validate(), std::invalid_argument);

  // Negative cost.
  const Problem negative(
      2, 1.0,
      {std::make_shared<rs::core::FunctionCost>(
          [](int x) { return static_cast<double>(x) - 1.0; })});
  EXPECT_THROW(negative.validate(), std::invalid_argument);

  // NaN-producing callable.
  const Problem nan_cost(
      2, 1.0,
      {std::make_shared<rs::core::FunctionCost>(
          [](int x) { return x == 1 ? std::nan("") : 1.0; })});
  EXPECT_THROW(nan_cost.validate(), std::invalid_argument);
}

TEST(FailureInjection, SolversSurviveAllInfeasibleSlot) {
  const Problem p = rs::core::make_table_problem(
      1, 1.0, {{0.0, 1.0}, {rs::util::kInf, rs::util::kInf}, {0.0, 1.0}});
  EXPECT_FALSE(rs::offline::DpSolver().solve(p).feasible());
  EXPECT_FALSE(rs::offline::LowMemorySolver().solve(p).feasible());
  EXPECT_FALSE(rs::offline::GraphSolver().solve(p).feasible());
  // Online LCP still runs (it must commit states even on hopeless inputs).
  rs::online::Lcp lcp;
  EXPECT_NO_THROW(rs::online::run_online(lcp, p));
}

TEST(FailureInjection, WorkFunctionSaturationDoesNotOverflow) {
  // Repeated huge costs must keep the work functions finite-ordered (no
  // NaNs from inf arithmetic).
  rs::offline::WorkFunctionTracker tracker(4, 1.0);
  for (int i = 0; i < 50; ++i) {
    tracker.advance(std::vector<double>{1e300, 1e300, 0.0, 1e300, 1e300});
    EXPECT_FALSE(std::isnan(tracker.chat_lower(0)));
    EXPECT_EQ(tracker.x_lower(), 2);
    EXPECT_EQ(tracker.x_upper(), 2);
  }
}

}  // namespace
