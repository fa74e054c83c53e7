// Tests for the Section-5 lower-bound adversaries: Theorem 4 (ratio -> 3
// against deterministic discrete algorithms), Theorem 5 (restricted model),
// Theorems 6/7 (ratio -> 2 continuous), Theorems 8/9 (ratio -> 2
// randomized), and the Theorem-10 prediction-window stretching.
#include <gtest/gtest.h>

#include <cmath>

#include "core/schedule.hpp"
#include "lowerbound/adversary.hpp"
#include "offline/dp_solver.hpp"
#include "online/gradient_flow.hpp"
#include "online/lcp.hpp"
#include "online/level_flow.hpp"
#include "online/baselines.hpp"

namespace {

using namespace rs::lowerbound;
using rs::online::Lcp;

TEST(DeterministicAdversary, DrivesLcpToThree) {
  // Theorem 4 + Theorem 2 tightness: LCP is 3-competitive and the adversary
  // realizes the bound as ε -> 0.
  Lcp lcp;
  const AdversaryOutcome coarse =
      deterministic_discrete_adversary(lcp, 0.05);
  EXPECT_LE(coarse.ratio, 3.0 + 1e-9);
  EXPECT_GT(coarse.ratio, 2.5);

  const AdversaryOutcome fine =
      deterministic_discrete_adversary(lcp, 0.01);
  EXPECT_LE(fine.ratio, 3.0 + 1e-9);
  EXPECT_GT(fine.ratio, 2.9);
  EXPECT_GT(fine.ratio, coarse.ratio);  // convergence in ε
}

TEST(DeterministicAdversary, FollowMinimizerAlsoAtLeastThree) {
  // The bound is universal: chasing the minimizer pays the full switching
  // cost every slot and lands well above 3 as well.
  rs::online::FollowTheMinimizer follow;
  const AdversaryOutcome outcome =
      deterministic_discrete_adversary(follow, 0.02);
  EXPECT_GT(outcome.ratio, 2.9);
}

TEST(DeterministicAdversary, OutcomeInternallyConsistent) {
  Lcp lcp;
  const AdversaryOutcome outcome =
      deterministic_discrete_adversary(lcp, 0.1, 500);
  EXPECT_EQ(outcome.problem.horizon(), 500);
  EXPECT_EQ(outcome.problem.max_servers(), 1);
  EXPECT_DOUBLE_EQ(outcome.problem.beta(), 2.0);
  EXPECT_GT(outcome.optimal_cost, 0.0);
  EXPECT_NEAR(outcome.ratio, outcome.algorithm_cost / outcome.optimal_cost,
              1e-12);
  EXPECT_THROW(deterministic_discrete_adversary(lcp, 0.0),
               std::invalid_argument);
  EXPECT_THROW(deterministic_discrete_adversary(lcp, 1.5),
               std::invalid_argument);
}

TEST(RestrictedAdversary, DrivesLcpToThree) {
  // Theorem 5: the same bound in the restricted model.  The forced initial
  // jump to x >= 1 adds a constant to both sides, so convergence needs a
  // longer horizon than the general-model construction.
  Lcp lcp;
  const AdversaryOutcome outcome =
      restricted_discrete_adversary(lcp, 0.02, 20000);
  EXPECT_LE(outcome.ratio, 3.0 + 1e-9);
  EXPECT_GT(outcome.ratio, 2.8);
  EXPECT_EQ(outcome.problem.max_servers(), 2);
}

TEST(RestrictedAdversary, WorkloadConstraintsRespected) {
  // The generated instance must force x_t >= 1 everywhere (λ >= 0.5).
  Lcp lcp;
  const AdversaryOutcome outcome =
      restricted_discrete_adversary(lcp, 0.1, 200);
  for (int t = 1; t <= outcome.problem.horizon(); ++t) {
    EXPECT_TRUE(std::isinf(outcome.problem.cost_at(t, 0))) << "t=" << t;
  }
}

TEST(ContinuousAdversary, AlgorithmBPaysAlmostTwo) {
  // Lemma 21: against its own reference strategy, B's ratio is 2 − Θ(ε).
  rs::online::GradientFlow b;  // == B on ϕ functions
  const AdversaryOutcome outcome = continuous_adversary(b, 0.05);
  EXPECT_GT(outcome.ratio, 2.0 - 2.5 * 0.05);
  EXPECT_LE(outcome.ratio, 2.0 + 1e-6);
}

TEST(ContinuousAdversary, LevelFlowPaysAlmostTwo) {
  rs::online::LevelFlow flow;
  const AdversaryOutcome outcome = continuous_adversary(flow, 0.05);
  EXPECT_GT(outcome.ratio, 2.0 - 2.5 * 0.05);
  EXPECT_LE(outcome.ratio, 2.0 + 1e-6);
}

TEST(ContinuousAdversary, AnyDeviationCostsAtLeastB) {
  // Lemma 23: an algorithm deviating from B pays at least as much; the
  // memoryless-style faster mover must land at ratio >= B's.
  rs::online::GradientFlow b;
  const AdversaryOutcome reference = continuous_adversary(b, 0.05, 30000);
  rs::online::GradientFlow eager(3.0);  // moves 3x faster than B
  const AdversaryOutcome deviant = continuous_adversary(eager, 0.05, 30000);
  EXPECT_GE(deviant.ratio, reference.ratio - 1e-9);
}

TEST(RandomizedAdversary, DrivesRoundingToTwo) {
  // Theorems 8/9: expected ratio of the randomized algorithm approaches 2
  // (its guarantee) under the adversary.
  rs::online::RandomizedRounding alg(1234);
  const AdversaryOutcome outcome = randomized_discrete_adversary(alg, 0.05);
  EXPECT_GT(outcome.ratio, 2.0 - 2.5 * 0.05);
  EXPECT_LE(outcome.ratio, 2.0 + 1e-6);
}

TEST(WindowStretching, PreservesAdversaryStrengthAgainstLcpWindow) {
  // Theorem 10: replicate each adversary function n·w times at scale
  // 1/(n·w); an algorithm with window w still cannot beat 3 − δ.
  Lcp lcp;
  const AdversaryOutcome base =
      deterministic_discrete_adversary(lcp, 0.05, 4000);
  const int w = 2;
  const int n = 8;
  const rs::core::Problem stretched =
      stretch_for_window(base.problem, n * w);

  rs::online::Lcp windowed;
  const rs::core::Schedule play =
      rs::online::run_online(windowed, stretched, w);
  const double algorithm_cost = rs::core::total_cost(stretched, play);
  const double optimal_cost =
      rs::offline::DpSolver().solve_cost(stretched);
  ASSERT_GT(optimal_cost, 0.0);
  const double ratio = algorithm_cost / optimal_cost;
  // With n = 8 the theorem guarantees > c − δ for modest δ; empirically the
  // windowed LCP stays close to 3 on the stretched instance.
  EXPECT_GT(ratio, 2.5);
  EXPECT_LE(ratio, 3.0 + 1e-9);
}

TEST(WindowStretching, OptimalCostUnchanged) {
  // Stretching preserves the offline optimum (Σ_u f'_{t,u} = f_t).
  Lcp lcp;
  const AdversaryOutcome base =
      deterministic_discrete_adversary(lcp, 0.1, 300);
  const rs::core::Problem stretched = stretch_for_window(base.problem, 6);
  const double base_optimal = rs::offline::DpSolver().solve_cost(base.problem);
  const double stretched_optimal =
      rs::offline::DpSolver().solve_cost(stretched);
  EXPECT_LE(stretched_optimal, base_optimal + 1e-9);
  // (It can only get cheaper: more switching points to choose from.)
}

}  // namespace
