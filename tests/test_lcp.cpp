// Tests for discrete Lazy Capacity Provisioning (Section 3): the defining
// projection recursion (eq. 13), laziness, the Lemma-12/13/14 structure
// properties against the Lemma-11 optimum, and Theorem 2 (competitive ratio
// at most 3) across instance families.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "offline/backward_solver.hpp"
#include "offline/dp_solver.hpp"
#include "offline/work_function.hpp"
#include "online/lcp.hpp"
#include "util/math_util.hpp"
#include "util/rng.hpp"
#include "workload/random_instance.hpp"

namespace {

using namespace rs::online;
using rs::core::Problem;
using rs::core::Schedule;
using rs::offline::BoundTrajectory;
using rs::workload::InstanceFamily;

Schedule run_lcp(const Problem& p) {
  Lcp lcp;
  return run_online(lcp, p);
}

TEST(Lcp, MatchesProjectionRecursionDefinition) {
  // Recompute eq. (13) directly from independently computed bounds.
  rs::util::Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(1, 20));
    const int m = static_cast<int>(rng.uniform_int(1, 10));
    const Problem p = rs::workload::random_instance(
        rng, InstanceFamily::kConvexTable, T, m, rng.uniform(0.2, 3.0));
    const BoundTrajectory bounds = rs::offline::compute_bounds(p);
    Schedule expected(static_cast<std::size_t>(T));
    int state = 0;
    for (int t = 1; t <= T; ++t) {
      state = rs::util::project(state,
                                bounds.lower[static_cast<std::size_t>(t - 1)],
                                bounds.upper[static_cast<std::size_t>(t - 1)]);
      expected[static_cast<std::size_t>(t - 1)] = state;
    }
    EXPECT_EQ(run_lcp(p), expected);
  }
}

TEST(Lcp, IsLazyChangesOnlyWhenForced) {
  // x^LCP changes from its previous value only if the previous value lies
  // outside [x^L, x^U]; and then it moves to the nearest corridor endpoint.
  rs::util::Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(1, 25));
    const int m = static_cast<int>(rng.uniform_int(1, 12));
    const Problem p = rs::workload::random_instance(
        rng, InstanceFamily::kQuadratic, T, m, rng.uniform(0.2, 2.0));
    const BoundTrajectory bounds = rs::offline::compute_bounds(p);
    const Schedule x = run_lcp(p);
    int previous = 0;
    for (int t = 1; t <= T; ++t) {
      const int lo = bounds.lower[static_cast<std::size_t>(t - 1)];
      const int hi = bounds.upper[static_cast<std::size_t>(t - 1)];
      const int current = x[static_cast<std::size_t>(t - 1)];
      if (previous >= lo && previous <= hi) {
        EXPECT_EQ(current, previous) << "not lazy at t=" << t;
      } else if (previous < lo) {
        EXPECT_EQ(current, lo);
      } else {
        EXPECT_EQ(current, hi);
      }
      previous = current;
    }
  }
}

TEST(Lcp, ExposesLastBounds) {
  const Problem p = rs::core::make_table_problem(
      2, 1.0, {{2.0, 0.0, 1.0}, {0.0, 1.0, 2.0}});
  Lcp lcp;
  lcp.reset(OnlineContext{2, 1.0});
  lcp.decide(p.f_ptr(1), {});
  EXPECT_LE(lcp.last_lower(), lcp.last_upper());
}

// Lemma 12: whenever LCP crosses the (Lemma-11) optimal schedule, the two
// touch at the crossing slot.
TEST(Lcp, Lemma12CrossingImpliesTouching) {
  rs::util::Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(2, 30));
    const int m = static_cast<int>(rng.uniform_int(1, 10));
    const Problem p = rs::workload::random_instance(
        rng, trial % 2 == 0 ? InstanceFamily::kQuadratic
                            : InstanceFamily::kConvexTable,
        T, m, rng.uniform(0.2, 2.5));
    const Schedule lcp = run_lcp(p);
    const Schedule optimal =
        rs::offline::backward_schedule(rs::offline::compute_bounds(p));
    int lcp_prev = 0;
    int opt_prev = 0;
    for (int t = 1; t <= T; ++t) {
      const int lcp_now = lcp[static_cast<std::size_t>(t - 1)];
      const int opt_now = optimal[static_cast<std::size_t>(t - 1)];
      if (lcp_prev < opt_prev && lcp_now >= opt_now) {
        EXPECT_EQ(lcp_now, opt_now) << "t=" << t;
      }
      if (lcp_prev > opt_prev && lcp_now <= opt_now) {
        EXPECT_EQ(lcp_now, opt_now) << "t=" << t;
      }
      lcp_prev = lcp_now;
      opt_prev = opt_now;
    }
  }
}

// Lemma 14: the switching cost of LCP is at most that of the optimum.
TEST(Lcp, Lemma14SwitchingCostAtMostOptimal) {
  rs::util::Rng rng(4);
  for (int trial = 0; trial < 30; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(1, 30));
    const int m = static_cast<int>(rng.uniform_int(1, 10));
    const Problem p = rs::workload::random_instance(
        rng, InstanceFamily::kConvexTable, T, m, rng.uniform(0.2, 3.0));
    const Schedule lcp = run_lcp(p);
    const Schedule optimal =
        rs::offline::backward_schedule(rs::offline::compute_bounds(p));
    EXPECT_LE(rs::core::switching_cost_up(p, lcp),
              rs::core::switching_cost_up(p, optimal) + 1e-9);
  }
}

// --- Theorem 2: competitive ratio <= 3 --------------------------------------

struct LcpRatioParam {
  InstanceFamily family;
  int T;
  int m;
  double beta;
};

class LcpCompetitiveTest : public ::testing::TestWithParam<LcpRatioParam> {};

TEST_P(LcpCompetitiveTest, RatioAtMostThree) {
  const LcpRatioParam param = GetParam();
  rs::util::Rng rng(1000u + static_cast<std::uint64_t>(param.T) * 31u +
                    static_cast<std::uint64_t>(param.m));
  const rs::offline::DpSolver dp;
  for (int trial = 0; trial < 8; ++trial) {
    const Problem p = rs::workload::random_instance(rng, param.family, param.T,
                                                    param.m, param.beta);
    const double optimal = dp.solve_cost(p);
    if (!std::isfinite(optimal) || optimal <= 0.0) continue;
    const double lcp_cost = rs::core::total_cost(p, run_lcp(p));
    EXPECT_LE(lcp_cost, 3.0 * optimal + 1e-9)
        << rs::workload::family_name(param.family) << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LcpCompetitiveTest,
    ::testing::Values(
        LcpRatioParam{InstanceFamily::kConvexTable, 10, 4, 0.5},
        LcpRatioParam{InstanceFamily::kConvexTable, 40, 8, 1.0},
        LcpRatioParam{InstanceFamily::kConvexTable, 80, 16, 3.0},
        LcpRatioParam{InstanceFamily::kQuadratic, 50, 12, 0.7},
        LcpRatioParam{InstanceFamily::kQuadratic, 100, 20, 2.0},
        LcpRatioParam{InstanceFamily::kAffineAbs, 60, 6, 1.5},
        LcpRatioParam{InstanceFamily::kAffineAbs, 30, 25, 4.0},
        LcpRatioParam{InstanceFamily::kConstrained, 40, 10, 1.0},
        LcpRatioParam{InstanceFamily::kFlatRegions, 70, 9, 0.9}),
    [](const ::testing::TestParamInfo<LcpRatioParam>& info) {
      return rs::workload::family_name(info.param.family) + "_T" +
             std::to_string(info.param.T) + "_m" +
             std::to_string(info.param.m);
    });

// --- prediction window -------------------------------------------------------

TEST(LcpWindow, ZeroWindowEqualsLcp) {
  rs::util::Rng rng(5);
  for (int trial = 0; trial < 15; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(1, 20));
    const int m = static_cast<int>(rng.uniform_int(1, 8));
    const Problem p = rs::workload::random_instance(
        rng, InstanceFamily::kConvexTable, T, m, rng.uniform(0.3, 2.0));
    Lcp windowed;
    EXPECT_EQ(run_online(windowed, p, /*window=*/0), run_lcp(p));
  }
}

TEST(LcpWindow, CompletionCostsBaseCase) {
  // Empty window: zero completion everywhere.
  const std::vector<double> d = completion_costs({}, 3, 1.0, true);
  for (double v : d) EXPECT_DOUBLE_EQ(v, 0.0);
}

TEST(LcpWindow, CompletionCostsSingleSlot) {
  // One future function f; under L-accounting D(x) = min_x' β(x'-x)^+ + f(x').
  const auto f = std::make_shared<rs::core::TableCost>(
      std::vector<double>{4.0, 1.0, 3.0});
  std::vector<rs::core::CostPtr> window = {f};
  const double beta = 2.0;
  const std::vector<double> d_up =
      completion_costs({window.data(), 1}, 2, beta, true);
  // From x=0: min(4, 1+2, 3+4) = 3; from x=1: min over >=1 free-down? no:
  // up-charging pays to increase only: from 1: min(f(0), f(1), f(2)+β) = 1.
  EXPECT_DOUBLE_EQ(d_up[0], 3.0);
  EXPECT_DOUBLE_EQ(d_up[1], 1.0);
  EXPECT_DOUBLE_EQ(d_up[2], 1.0);  // down to 1 free
  const std::vector<double> d_down =
      completion_costs({window.data(), 1}, 2, beta, false);
  // Down-charging: from 0 up is free: min f = 1; from 2: min(f(2), f(1)+β, f(0)+2β)=3.
  EXPECT_DOUBLE_EQ(d_down[0], 1.0);
  EXPECT_DOUBLE_EQ(d_down[1], 1.0);
  EXPECT_DOUBLE_EQ(d_down[2], 3.0);
}

TEST(LcpWindow, FullLookaheadStillThreeCompetitive) {
  rs::util::Rng rng(6);
  const rs::offline::DpSolver dp;
  for (int trial = 0; trial < 10; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(2, 25));
    const int m = static_cast<int>(rng.uniform_int(1, 8));
    const Problem p = rs::workload::random_instance(
        rng, InstanceFamily::kQuadratic, T, m, rng.uniform(0.3, 2.0));
    const double optimal = dp.solve_cost(p);
    for (int w : {1, 3, T}) {
      Lcp windowed;
      const Schedule x = run_online(windowed, p, w);
      EXPECT_LE(rs::core::total_cost(p, x), 3.0 * optimal + 1e-9)
          << "w=" << w;
    }
  }
}

TEST(LcpWindow, DegradeBeforeTheFirstSlotTakesTheDensePass) {
  // The fleet's dense rung may fire before a session has decided a slot;
  // the window pass must then run dense, exactly like a kDense session.
  rs::util::Rng rng(8);
  const Problem p = rs::workload::random_instance(
      rng, InstanceFamily::kAffineAbs, 12, 6, 1.0);
  std::vector<rs::core::CostPtr> costs;
  for (int t = 1; t <= p.horizon(); ++t) costs.push_back(p.f_ptr(t));
  const OnlineContext context{p.max_servers(), p.beta()};
  Lcp degraded;
  degraded.reset(context);
  ASSERT_TRUE(degraded.degrade_to_dense());
  Lcp dense(rs::offline::WorkFunctionTracker::Backend::kDense);
  dense.reset(context);
  for (std::size_t t = 0; t < costs.size(); ++t) {
    const std::span<const rs::core::CostPtr> window(
        costs.data() + t + 1, std::min<std::size_t>(2, costs.size() - t - 1));
    ASSERT_EQ(degraded.decide(costs[t], window), dense.decide(costs[t], window))
        << "t=" << t;
    ASSERT_EQ(degraded.last_lower(), dense.last_lower());
    ASSERT_EQ(degraded.last_upper(), dense.last_upper());
  }
}

TEST(LcpWindow, LookaheadHelpsOnSpikeTrace) {
  // A single expensive spike with advance warning: with w >= 1 LCP can
  // pre-provision and avoid the spike penalty that w = 0 pays.
  // f_t prefers 0 servers except slot 3 which strongly prefers 2.
  std::vector<std::vector<double>> rows = {
      {0.0, 1.0, 2.0}, {0.0, 1.0, 2.0}, {8.0, 4.0, 0.0},
      {0.0, 1.0, 2.0}, {0.0, 1.0, 2.0}};
  const Problem p = rs::core::make_table_problem(2, 1.0, rows);
  Lcp w0, w2;
  const double cost0 = rs::core::total_cost(p, run_online(w0, p, 0));
  const double cost2 = rs::core::total_cost(p, run_online(w2, p, 2));
  EXPECT_LE(cost2, cost0 + 1e-12);
}

}  // namespace
