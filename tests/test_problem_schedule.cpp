// Tests for Problem construction/validation and the schedule cost
// decompositions of Sections 1, 2.3 and 3.2, including the identities the
// competitive analysis relies on:
//   C^L_τ(X) = C^U_τ(X) + β·x_τ                      (eq. 14)
//   S^L_τ(X) = S^U_τ(X) + β·x_τ
//   C_sym(X) = C(X) for closed schedules.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/dense_problem.hpp"
#include "core/problem.hpp"
#include "core/pwl_problem.hpp"
#include "core/rle_problem.hpp"
#include "core/schedule.hpp"
#include "util/math_util.hpp"
#include "util/rng.hpp"

namespace {

using namespace rs::core;
using rs::util::kInf;

Problem tiny_problem() {
  // T = 3, m = 2, beta = 1.5
  return make_table_problem(2, 1.5,
                            {{3.0, 1.0, 2.0},
                             {0.0, 1.0, 4.0},
                             {2.0, 1.0, 0.5}});
}

TEST(Problem, BasicAccessors) {
  const Problem p = tiny_problem();
  EXPECT_EQ(p.horizon(), 3);
  EXPECT_EQ(p.max_servers(), 2);
  EXPECT_DOUBLE_EQ(p.beta(), 1.5);
  EXPECT_DOUBLE_EQ(p.cost_at(1, 0), 3.0);
  EXPECT_DOUBLE_EQ(p.cost_at(3, 2), 0.5);
  EXPECT_DOUBLE_EQ(p.f(2).at(2), 4.0);
}

TEST(Problem, ArgumentValidation) {
  EXPECT_THROW(Problem(-1, 1.0, {}), std::invalid_argument);
  EXPECT_THROW(Problem(1, 0.0, {}), std::invalid_argument);
  EXPECT_THROW(Problem(1, -1.0, {}), std::invalid_argument);
  EXPECT_THROW(Problem(1, 1.0, {nullptr}), std::invalid_argument);

  const Problem p = tiny_problem();
  EXPECT_THROW(p.f(0), std::out_of_range);
  EXPECT_THROW(p.f(4), std::out_of_range);
  EXPECT_THROW(p.cost_at(1, -1), std::out_of_range);
  EXPECT_THROW(p.cost_at(1, 3), std::out_of_range);
}

TEST(Problem, ValidateAcceptsConvexInstance) {
  EXPECT_NO_THROW(tiny_problem().validate());
}

TEST(Problem, ValidateRejectsNonConvexSlot) {
  const Problem p = make_table_problem(2, 1.0, {{0.0, 2.0, 3.0}});
  EXPECT_THROW(p.validate(), std::invalid_argument);
}

TEST(Problem, PrefixTruncates) {
  const Problem p = tiny_problem();
  const Problem q = p.prefix(2);
  EXPECT_EQ(q.horizon(), 2);
  EXPECT_DOUBLE_EQ(q.cost_at(2, 1), 1.0);
  EXPECT_THROW(p.prefix(4), std::out_of_range);
}

TEST(Problem, MakeTableProblemRejectsBadArity) {
  EXPECT_THROW(make_table_problem(2, 1.0, {{1.0, 2.0}}),
               std::invalid_argument);
}

TEST(Problem, MaterializePreservesCosts) {
  const Problem p = tiny_problem();
  const Problem q = materialize(p);
  for (int t = 1; t <= p.horizon(); ++t) {
    for (int x = 0; x <= p.max_servers(); ++x) {
      EXPECT_DOUBLE_EQ(p.cost_at(t, x), q.cost_at(t, x));
    }
  }
}

TEST(Schedule, FeasibilityChecks) {
  const Problem p = tiny_problem();
  EXPECT_TRUE(is_within_bounds(p, {0, 1, 2}));
  EXPECT_FALSE(is_within_bounds(p, {0, 1}));      // wrong length
  EXPECT_FALSE(is_within_bounds(p, {0, 3, 0}));   // above m
  EXPECT_FALSE(is_within_bounds(p, {-1, 0, 0}));  // below 0
  EXPECT_TRUE(is_feasible(p, {1, 1, 1}));
}

TEST(Schedule, InfeasibleStateDetected) {
  const Problem p =
      make_table_problem(1, 1.0, {{kInf, 0.0}, {0.0, 0.0}});
  EXPECT_FALSE(is_feasible(p, {0, 0}));
  EXPECT_TRUE(is_feasible(p, {1, 0}));
}

TEST(Schedule, OperatingCostSums) {
  const Problem p = tiny_problem();
  const Schedule x = {1, 2, 0};
  EXPECT_DOUBLE_EQ(operating_cost(p, x), 1.0 + 4.0 + 2.0);
  EXPECT_DOUBLE_EQ(operating_cost(p, x, 2), 1.0 + 4.0);
  EXPECT_DOUBLE_EQ(operating_cost(p, x, 0), 0.0);
}

TEST(Schedule, SwitchingCostsMatchHandComputation) {
  const Problem p = tiny_problem();  // beta = 1.5
  const Schedule x = {1, 2, 0};
  // ups: 0->1 (1), 1->2 (1); downs: 2->0 (2)
  EXPECT_DOUBLE_EQ(switching_cost_up(p, x), 1.5 * 2.0);
  EXPECT_DOUBLE_EQ(switching_cost_down(p, x), 1.5 * 2.0);
  EXPECT_DOUBLE_EQ(switching_cost_up(p, x, 1), 1.5);
  EXPECT_DOUBLE_EQ(switching_cost_down(p, x, 2), 0.0);
}

TEST(Schedule, TotalCostMatchesEquationOne) {
  const Problem p = tiny_problem();
  const Schedule x = {1, 2, 0};
  EXPECT_DOUBLE_EQ(total_cost(p, x), (1.0 + 4.0 + 2.0) + 1.5 * 2.0);
}

TEST(Schedule, Equation14HoldsOnRandomSchedules) {
  rs::util::Rng rng(7);
  const Problem p = tiny_problem();
  for (int trial = 0; trial < 100; ++trial) {
    Schedule x(3);
    for (int& v : x) v = static_cast<int>(rng.uniform_int(0, 2));
    for (int tau = 1; tau <= 3; ++tau) {
      const double x_tau = x[static_cast<std::size_t>(tau - 1)];
      EXPECT_NEAR(switching_cost_up(p, x, tau),
                  switching_cost_down(p, x, tau) + p.beta() * x_tau, 1e-12);
      EXPECT_NEAR(cost_up_to(p, x, tau),
                  cost_down_up_to(p, x, tau) + p.beta() * x_tau, 1e-12);
    }
  }
}

TEST(Schedule, SymmetricCostEqualsStandardCostOnClosedSchedules) {
  // C_sym charges β/2 per unit movement both ways including the final
  // power-down; since x_0 = x_{T+1} = 0 total up-moves equal down-moves.
  rs::util::Rng rng(11);
  const Problem p = tiny_problem();
  for (int trial = 0; trial < 100; ++trial) {
    Schedule x(3);
    for (int& v : x) v = static_cast<int>(rng.uniform_int(0, 2));
    EXPECT_NEAR(total_cost(p, x), total_cost_symmetric(p, x), 1e-12);
  }
}

TEST(Schedule, IntervalCostMatchesSection23Definition) {
  const Problem p = tiny_problem();
  const Schedule x = {1, 2, 0};
  // C_[0,T] = C(X) (f_0 := 0, and switching from x_0 = 0 counted)
  EXPECT_DOUBLE_EQ(interval_cost(p, x, 0, 3), total_cost(p, x));
  // C_[2,3]: f_2(2) + f_3(0) + β(x_3 - x_2)^+ = 4 + 2 + 0
  EXPECT_DOUBLE_EQ(interval_cost(p, x, 2, 3), 6.0);
  // Degenerate single-slot interval has no switching term.
  EXPECT_DOUBLE_EQ(interval_cost(p, x, 2, 2), 4.0);
  EXPECT_THROW(interval_cost(p, x, 2, 1), std::out_of_range);
  EXPECT_THROW(interval_cost(p, x, 0, 4), std::out_of_range);
}

TEST(Schedule, IntervalsTile) {
  // C(X) = C_[0,k] + β(x_{k+1}-x_k)^+ ... decomposition used in Lemma 3's
  // proof: splitting at any k and re-adding the boundary switching cost
  // reconstructs the total.
  const Problem p = tiny_problem();
  const Schedule x = {2, 1, 2};
  for (int k = 1; k < 3; ++k) {
    const int xk = x[static_cast<std::size_t>(k - 1)];
    const int xk1 = x[static_cast<std::size_t>(k)];
    const double boundary = p.beta() * std::max(0, xk1 - xk);
    EXPECT_NEAR(total_cost(p, x),
                interval_cost(p, x, 0, k) + boundary +
                    (interval_cost(p, x, k + 1, 3) -
                     0.0),  // interval [k+1,3] excludes boundary switch
                1e-12)
        << "k=" << k;
  }
}

TEST(Schedule, FractionalCostsInterpolate) {
  const Problem p = tiny_problem();
  const FractionalSchedule x = {0.5, 1.5, 0.0};
  // f̄_1(0.5) = 2.0, f̄_2(1.5) = 2.5, f̄_3(0) = 2.0
  EXPECT_DOUBLE_EQ(operating_cost(p, x), 2.0 + 2.5 + 2.0);
  EXPECT_DOUBLE_EQ(switching_cost_up(p, x), 1.5 * 1.5);
  EXPECT_DOUBLE_EQ(total_cost(p, x), 6.5 + 2.25);
}

TEST(Schedule, FractionalCostAgreesWithIntegralOnIntegerPoints) {
  rs::util::Rng rng(13);
  const Problem p = tiny_problem();
  for (int trial = 0; trial < 50; ++trial) {
    Schedule x(3);
    for (int& v : x) v = static_cast<int>(rng.uniform_int(0, 2));
    const FractionalSchedule xf = to_fractional(x);
    EXPECT_NEAR(total_cost(p, x), total_cost(p, xf), 1e-12);
    EXPECT_NEAR(total_cost_symmetric(p, x), total_cost_symmetric(p, xf),
                1e-12);
  }
}

TEST(Schedule, FloorCeilSchedules) {
  const FractionalSchedule x = {0.2, 1.0, 1.8};
  EXPECT_EQ(floor_schedule(x), (Schedule{0, 1, 1}));
  EXPECT_EQ(ceil_schedule(x), (Schedule{1, 1, 2}));
}

TEST(Schedule, LengthMismatchThrows) {
  const Problem p = tiny_problem();
  EXPECT_THROW(total_cost(p, Schedule{0, 1}), std::invalid_argument);
  EXPECT_THROW(operating_cost(p, Schedule{0, 1, 2, 0}),
               std::invalid_argument);
}

TEST(Schedule, OutOfRangeStateThrowsOnEveryForm) {
  // m = 5; the state 6 (or -1) lies outside [0, m].  A table must not read
  // the neighbouring row: every form throws, and no form calls it feasible.
  const Problem p = make_table_problem(5, 1.0,
                                       {{3.0, 1.0, 0.5, 1.0, 2.0, 4.0},
                                        {2.0, 1.0, 0.0, 0.5, 1.5, 3.0},
                                        {1.0, 0.5, 0.25, 0.5, 1.0, 2.0},
                                        {0.0, 0.5, 1.0, 1.5, 2.0, 2.5}});
  const DenseProblem dense(p);
  std::vector<RleProblem::Run> runs;
  for (int t = 1; t <= p.horizon(); ++t) runs.push_back({p.f_ptr(t), 1});
  const RleProblem rle(p.max_servers(), p.beta(), std::move(runs));
  const std::optional<PwlProblem> pwl = PwlProblem::try_convert(p);
  ASSERT_TRUE(pwl.has_value());

  const auto expect_rejected = [](const SlotSource& source, const char* form) {
    for (const Schedule& x : {Schedule{1, 6, 2, 1}, Schedule{1, -1, 2, 1}}) {
      SCOPED_TRACE(std::string(form) + " x_2 = " + std::to_string(x[1]));
      EXPECT_THROW(total_cost(source, x), std::out_of_range);
      EXPECT_THROW(operating_cost(source, x, 2), std::out_of_range);
      EXPECT_THROW(cost_up_to(source, x, 3), std::out_of_range);
      EXPECT_THROW(cost_down_up_to(source, x), std::out_of_range);
      EXPECT_THROW(total_cost_symmetric(source, x), std::out_of_range);
      EXPECT_THROW(interval_cost(source, x, 0, 4), std::out_of_range);
      EXPECT_FALSE(is_within_bounds(source, x));
      EXPECT_FALSE(is_feasible(source, x));
      // Slot 1 alone is in range and prices normally.
      EXPECT_EQ(operating_cost(source, x, 1), 1.0);
    }
  };
  expect_rejected(p, "problem");
  expect_rejected(dense, "dense");
  expect_rejected(rle, "rle");
  expect_rejected(*pwl, "pwl");
}

TEST(Schedule, InfeasibleScheduleHasInfiniteCost) {
  const Problem p =
      make_table_problem(1, 2.0, {{kInf, 1.0}, {0.0, 0.0}});
  EXPECT_TRUE(std::isinf(total_cost(p, Schedule{0, 0})));
  EXPECT_TRUE(std::isfinite(total_cost(p, Schedule{1, 0})));
}

}  // namespace
