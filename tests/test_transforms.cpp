// Tests for the instance transforms of Sections 2.2/2.3 (power-of-two
// padding, Φ_k state restriction, Ψ_l rescaling), the Theorem-10 stretching,
// and the restricted-model reduction (eq. 2).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "core/cost_function.hpp"
#include "core/schedule.hpp"
#include "core/transforms.hpp"
#include "util/math_util.hpp"
#include "util/rng.hpp"

namespace {

using namespace rs::core;
using rs::util::kInf;

TEST(NextPowerOfTwo, Values) {
  EXPECT_EQ(next_power_of_two(1), 1);
  EXPECT_EQ(next_power_of_two(2), 2);
  EXPECT_EQ(next_power_of_two(3), 4);
  EXPECT_EQ(next_power_of_two(64), 64);
  EXPECT_EQ(next_power_of_two(65), 128);
  EXPECT_THROW(next_power_of_two(0), std::invalid_argument);
}

// The Section 2.2 padding is one definition, PaddingTail: PaddedCost and
// BinarySearchSolver's padded reads both continue f_t above m through it.
CostPtr padded_slot(const Problem& p, int t, int padded_m) {
  if (padded_m == p.max_servers()) return p.f_ptr(t);
  return std::make_shared<PaddedCost>(p.f_ptr(t), p.max_servers());
}

TEST(Padding, KeepsInstanceWhenAlreadyPowerOfTwo) {
  const Problem p = make_table_problem(
      4, 1.0, {{4.0, 3.0, 2.0, 2.5, 3.0}, {1.0, 0.0, 1.0, 2.0, 3.0}});
  EXPECT_EQ(next_power_of_two(p.max_servers()), 4);
  const PaddedCost f(p.f_ptr(1), 4);
  std::vector<double> row(5);
  f.eval_row(4, row);
  for (int x = 0; x <= 4; ++x) EXPECT_EQ(row[x], p.cost_at(1, x));
  EXPECT_DOUBLE_EQ(f.at(3), 2.5);
}

TEST(Padding, ExtendsToNextPowerOfTwoConvexly) {
  const Problem p =
      make_table_problem(5, 2.0, {{5.0, 3.0, 2.0, 2.0, 3.0, 5.0}});
  const int padded_m = next_power_of_two(p.max_servers());
  EXPECT_EQ(padded_m, 8);
  const Problem q(padded_m, p.beta(), {padded_slot(p, 1, padded_m)});
  // Original values preserved.
  for (int x = 0; x <= 5; ++x) {
    EXPECT_DOUBLE_EQ(q.cost_at(1, x), p.cost_at(1, x));
  }
  // Extension strictly increasing and convex overall: the tail's slope
  // beats the last slope f(5) − f(4) = 2.
  const PaddingTail tail(p.cost_at(1, 4), p.cost_at(1, 5));
  EXPECT_DOUBLE_EQ(tail.slope, 3.0);
  for (int x = 6; x <= 8; ++x) {
    EXPECT_GT(q.cost_at(1, x), q.cost_at(1, x - 1));
    EXPECT_EQ(q.cost_at(1, x), tail.at(x - 5));
  }
  EXPECT_NO_THROW(q.validate());
}

TEST(Padding, TailOfInfiniteOrDegenerateEdges) {
  // An infinite f(m) stays infinite; a non-finite f(m−1) (or m = 0, passed
  // as +inf) falls back to slope 1; a falling edge is clamped to slope 1.
  EXPECT_EQ(PaddingTail(1.0, kInf).at(3), kInf);
  EXPECT_DOUBLE_EQ(PaddingTail(kInf, 2.0).at(3), 5.0);
  EXPECT_DOUBLE_EQ(PaddingTail(4.0, 2.0).slope, 1.0);
  EXPECT_DOUBLE_EQ(PaddingTail(1.0, 2.5).slope, 2.5);
}

TEST(Padding, OptimalNeverUsesPaddedStates) {
  // Brute-force check on a small instance: every schedule touching x > m is
  // strictly dominated by its clamped version.
  const Problem p =
      make_table_problem(3, 1.0, {{3.0, 1.0, 0.5, 2.0}, {2.0, 1.5, 1.0, 0.5}});
  const int padded_m = next_power_of_two(p.max_servers());
  ASSERT_EQ(padded_m, 4);
  const Problem q(padded_m, p.beta(),
                  {padded_slot(p, 1, padded_m), padded_slot(p, 2, padded_m)});
  for (int x1 = 0; x1 <= 4; ++x1) {
    for (int x2 = 0; x2 <= 4; ++x2) {
      if (x1 <= 3 && x2 <= 3) continue;
      const Schedule raw = {x1, x2};
      const Schedule clamped = {std::min(x1, 3), std::min(x2, 3)};
      EXPECT_GT(total_cost(q, raw), total_cost(q, clamped))
          << "x1=" << x1 << " x2=" << x2;
    }
  }
}

TEST(MultiplesOf, GeneratesMk) {
  EXPECT_EQ(multiples_of(4, 17), (std::vector<int>{0, 4, 8, 12, 16}));
  EXPECT_EQ(multiples_of(1, 3), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(multiples_of(8, 7), (std::vector<int>{0}));
  EXPECT_THROW(multiples_of(0, 4), std::invalid_argument);
}

TEST(PsiScale, CostPreservingCorrespondence) {
  // C_Q(X) = C_{Ψ_l(Q)}(X') for X' = X / 2^l (Section 2.3).
  rs::util::Rng rng(31);
  const int m = 16;
  std::vector<std::vector<double>> rows;
  for (int t = 0; t < 5; ++t) {
    std::vector<double> row(m + 1);
    const double center = rng.uniform(0.0, m);
    for (int x = 0; x <= m; ++x) row[x] = 0.5 * (x - center) * (x - center);
    rows.push_back(row);
  }
  const Problem p = make_table_problem(m, 1.25, rows);
  const Problem scaled = psi_scale(p, 2);
  EXPECT_EQ(scaled.max_servers(), 4);
  EXPECT_DOUBLE_EQ(scaled.beta(), 5.0);

  for (int trial = 0; trial < 20; ++trial) {
    Schedule x(5);
    for (int& v : x) v = 4 * static_cast<int>(rng.uniform_int(0, 4));
    Schedule x_scaled(5);
    for (int t = 0; t < 5; ++t) x_scaled[t] = x[t] / 4;
    EXPECT_NEAR(total_cost(p, x), total_cost(scaled, x_scaled), 1e-9);
  }
}

TEST(PsiScale, RequiresDivisibility) {
  const Problem p = make_table_problem(3, 1.0, {{0.0, 0.0, 0.0, 0.0}});
  EXPECT_THROW(psi_scale(p, 1), std::invalid_argument);
  EXPECT_THROW(psi_scale(p, -1), std::invalid_argument);
  // 2^l must fit an int: l >= 32 used to shift out of range.
  EXPECT_THROW(psi_scale(p, 31), std::invalid_argument);
  EXPECT_THROW(psi_scale(p, 40), std::invalid_argument);
}

TEST(PsiScale, IdentityForZero) {
  const Problem p = make_table_problem(2, 1.0, {{1.0, 0.0, 2.0}});
  const Problem q = psi_scale(p, 0);
  EXPECT_EQ(q.max_servers(), 2);
  EXPECT_DOUBLE_EQ(q.cost_at(1, 1), 0.0);
}

TEST(Stretch, PreservesPerSlotTotals) {
  // A schedule constant within each replica block pays exactly the original
  // cost (Theorem 10: Σ_u f'_{t,u}(x) = f_t(x)).
  const Problem p = make_table_problem(2, 1.0, {{2.0, 1.0, 3.0},
                                                {1.0, 0.0, 2.0}});
  const int factor = 4;
  const Problem stretched = stretch_problem(p, factor);
  EXPECT_EQ(stretched.horizon(), 8);

  const Schedule x = {1, 2};
  Schedule x_stretched;
  for (int v : x) {
    for (int copy = 0; copy < factor; ++copy) x_stretched.push_back(v);
  }
  EXPECT_NEAR(total_cost(p, x), total_cost(stretched, x_stretched), 1e-12);
}

TEST(Stretch, FactorOneIsIdentity) {
  const Problem p = make_table_problem(1, 1.0, {{1.0, 0.0}});
  const Problem q = stretch_problem(p, 1);
  EXPECT_EQ(q.horizon(), 1);
  EXPECT_DOUBLE_EQ(q.cost_at(1, 1), 0.0);
  EXPECT_THROW(stretch_problem(p, 0), std::invalid_argument);
}

TEST(Restricted, BuildsConstraintedConvexSlots) {
  RestrictedModel model;
  model.per_server_cost = [](double z) { return 1.0 + z * z; };
  model.m = 8;
  model.beta = 3.0;
  const std::vector<double> lambdas = {0.0, 2.5, 8.0, 1.0};
  const Problem p = restricted_problem(model, lambdas);
  EXPECT_EQ(p.horizon(), 4);
  EXPECT_EQ(p.max_servers(), 8);
  EXPECT_NO_THROW(p.validate());

  // Slot 2 (λ = 2.5): states below 3 infeasible.
  EXPECT_TRUE(std::isinf(p.cost_at(2, 2)));
  EXPECT_TRUE(std::isfinite(p.cost_at(2, 3)));
  // Slot 3 (λ = m): only the full data center is feasible.
  EXPECT_TRUE(std::isinf(p.cost_at(3, 7)));
  EXPECT_TRUE(std::isfinite(p.cost_at(3, 8)));
}

TEST(Restricted, RejectsBadInputs) {
  RestrictedModel model;
  model.per_server_cost = nullptr;
  EXPECT_THROW(restricted_problem(model, {0.5}), std::invalid_argument);

  model.per_server_cost = [](double) { return 0.0; };
  model.m = 2;
  EXPECT_THROW(restricted_problem(model, {3.0}), std::invalid_argument);
  EXPECT_THROW(restricted_problem(model, {-0.5}), std::invalid_argument);
}

TEST(Restricted, Theorem5CostIdentity) {
  // The Theorem-5 reduction: with f(z) = ε|1-2z| and m = 2,
  //   λ = 0.5 gives slot cost ε|x-1| and λ = 1 gives ε|x-2| on feasible x.
  const double eps = 0.125;
  RestrictedModel model;
  model.per_server_cost = [eps](double z) { return eps * std::fabs(1.0 - 2.0 * z); };
  model.m = 2;
  model.beta = 2.0;
  const Problem p = restricted_problem(model, {0.5, 1.0});

  EXPECT_NEAR(p.cost_at(1, 1), eps * 0.0 + 0.0, 1e-12);  // x=1: ε|1-1| = 0
  EXPECT_NEAR(p.cost_at(1, 2), eps * 1.0, 1e-12);        // x=2: ε|2-1|
  EXPECT_NEAR(p.cost_at(2, 1), eps * 1.0, 1e-12);        // x=1: ε|1-2|
  EXPECT_NEAR(p.cost_at(2, 2), eps * 0.0, 1e-12);        // x=2: ε|2-2|
  EXPECT_TRUE(std::isinf(p.cost_at(2, 0)));              // x < λ = 1
}

}  // namespace
