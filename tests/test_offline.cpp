// Offline-solver correctness (Theorem 1 and Section 2 machinery).
//
// The central property: DP, graph shortest path, the Lemma-11 backward
// construction, and the paper's O(T log m) binary-search algorithm all
// return schedules of identical optimal cost, validated against brute force
// on small instances and against each other on parameterized sweeps over
// all instance families.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <vector>

#include "core/dense_problem.hpp"
#include "core/rle_problem.hpp"
#include "core/schedule.hpp"
#include "core/slot_source.hpp"
#include "core/transforms.hpp"
#include "offline/backward_solver.hpp"
#include "offline/binary_search_solver.hpp"
#include "offline/bounded_dp.hpp"
#include "offline/brute_force.hpp"
#include "offline/dp_solver.hpp"
#include "offline/graph_solver.hpp"
#include "offline/grid_continuous.hpp"
#include "offline/work_function.hpp"
#include "util/math_util.hpp"
#include "util/rng.hpp"
#include "workload/random_instance.hpp"

namespace {

using namespace rs::offline;
using rs::core::Problem;
using rs::core::Schedule;
using rs::util::kInf;
using rs::workload::InstanceFamily;

TEST(DpSolver, MatchesBruteForceOnTinyInstances) {
  rs::util::Rng rng(101);
  const BruteForceSolver brute;
  const DpSolver dp;
  for (InstanceFamily family : rs::workload::all_instance_families()) {
    for (int trial = 0; trial < 15; ++trial) {
      const int T = static_cast<int>(rng.uniform_int(1, 5));
      const int m = static_cast<int>(rng.uniform_int(1, 4));
      const double beta = rng.uniform(0.1, 3.0);
      const Problem p =
          rs::workload::random_instance(rng, family, T, m, beta);
      const OfflineResult expected = brute.solve(p);
      const OfflineResult actual = dp.solve(p);
      ASSERT_NEAR(actual.cost, expected.cost, 1e-9)
          << rs::workload::family_name(family) << " T=" << T << " m=" << m;
      if (actual.feasible()) {
        EXPECT_NEAR(rs::core::total_cost(p, actual.schedule), actual.cost,
                    1e-9);
      }
    }
  }
}

TEST(DpSolver, CostOnlyAgreesWithFull) {
  rs::util::Rng rng(202);
  const DpSolver dp;
  for (int trial = 0; trial < 30; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(1, 20));
    const int m = static_cast<int>(rng.uniform_int(1, 16));
    const Problem p = rs::workload::random_instance(
        rng, InstanceFamily::kConvexTable, T, m, rng.uniform(0.2, 4.0));
    EXPECT_NEAR(dp.solve(p).cost, dp.solve_cost(p), 1e-9);
  }
}

TEST(DensePass, EveryVariantMatchesTheTableDpAndTheDenseTracker) {
  // One pass with any mix of parents and corridor gives the table DP's cost
  // and schedule and the dense tracker's corridor, bitwise, on a Problem,
  // its table and an RLE form whose runs repeat each slot twice.
  rs::util::Rng rng(131);
  for (const InstanceFamily family : rs::workload::all_instance_families()) {
    const Problem p = rs::workload::random_instance(
        rng, family, 13, 9, rng.uniform(0.3, 3.0));
    std::vector<rs::core::RleProblem::Run> runs;
    for (int t = 1; t <= p.horizon(); ++t) runs.push_back({p.f_ptr(t), 2});
    const rs::core::RleProblem rle(p.max_servers(), p.beta(), runs);
    const rs::core::DenseProblem table(p);
    for (const rs::core::SlotSource source :
         {rs::core::SlotSource(p), rs::core::SlotSource(table),
          rs::core::SlotSource(rle)}) {
      const OfflineResult dp = solve_dense(source);
      const BoundTrajectory bounds =
          compute_bounds(source, WorkFunctionTracker::Backend::kDense);
      for (const bool want_schedule : {false, true}) {
        BoundTrajectory corridor;
        const OfflineResult pass = dense_pass(source, want_schedule, &corridor);
        EXPECT_EQ(pass.cost, dp.cost) << static_cast<int>(family);
        EXPECT_EQ(pass.schedule, want_schedule ? dp.schedule : Schedule{});
        EXPECT_EQ(corridor.lower, bounds.lower);
        EXPECT_EQ(corridor.upper, bounds.upper);
      }
      EXPECT_EQ(dense_pass(source, false, nullptr).cost, dp.cost);
    }
  }
}

TEST(DensePass, PoisonedRowsStopTheLabelsButNotTheRows) {
  // A NaN row yields cost NaN and no schedule; the rows after it are still
  // evaluated, so a later throwing slot throws as the plain DP's does.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Problem poisoned = rs::core::make_table_problem(
      2, 1.0, {{1.0, 0.0, 2.0}, {0.0, nan, 1.0}, {1.0, 1.0, 1.0}});
  BoundTrajectory corridor;
  const OfflineResult result = dense_pass(poisoned, true, &corridor);
  EXPECT_TRUE(std::isnan(result.cost));
  EXPECT_TRUE(result.schedule.empty());
  EXPECT_TRUE(std::isnan(DpSolver().solve_cost(poisoned)));

  std::vector<rs::core::CostPtr> fs = {poisoned.f_ptr(1), poisoned.f_ptr(2)};
  fs.push_back(std::make_shared<rs::core::FunctionCost>(
      [](int) -> double { throw std::runtime_error("late slot"); }, "late"));
  const Problem late_throw(2, 1.0, std::move(fs));
  EXPECT_THROW(dense_pass(late_throw, false, &corridor), std::runtime_error);
  EXPECT_THROW(dense_pass(poisoned, false, nullptr, 3), std::invalid_argument);
}

TEST(DpSolver, EmptyHorizon) {
  const Problem p(4, 1.0, {});
  const OfflineResult result = DpSolver().solve(p);
  EXPECT_TRUE(result.feasible());
  EXPECT_DOUBLE_EQ(result.cost, 0.0);
  EXPECT_TRUE(result.schedule.empty());
}

TEST(DpSolver, SingleServerToggleInstance) {
  // beta = 2, alternating preference; optimum stays at one state.
  const Problem p = rs::core::make_table_problem(
      1, 2.0, {{0.0, 0.1}, {0.1, 0.0}, {0.0, 0.1}, {0.1, 0.0}});
  const OfflineResult result = DpSolver().solve(p);
  EXPECT_NEAR(result.cost, 0.2, 1e-12);  // stay at 0 (or 1 after one jump)
}

TEST(DpSolver, InfeasibleInstanceReported) {
  const Problem p = rs::core::make_table_problem(1, 1.0, {{kInf, kInf}});
  const OfflineResult result = DpSolver().solve(p);
  EXPECT_FALSE(result.feasible());
  EXPECT_TRUE(result.schedule.empty());
}

TEST(DpSolver, RespectsHardConstraints) {
  // Slot 1 requires x >= 1, slot 2 requires x >= 2 (inf prefixes).
  const Problem p = rs::core::make_table_problem(
      2, 1.0, {{kInf, 1.0, 2.0}, {kInf, kInf, 0.5}});
  const OfflineResult result = DpSolver().solve(p);
  ASSERT_TRUE(result.feasible());
  EXPECT_GE(result.schedule[0], 1);
  EXPECT_EQ(result.schedule[1], 2);
}

TEST(BruteForce, RejectsHugeInstances) {
  const Problem p = rs::core::make_table_problem(
      9, 1.0,
      std::vector<std::vector<double>>(
          10, std::vector<double>(10, 0.0)));
  EXPECT_THROW(BruteForceSolver().solve(p), std::invalid_argument);
}

TEST(BoundedDp, FullCandidatesEqualDp) {
  rs::util::Rng rng(303);
  const DpSolver dp;
  for (int trial = 0; trial < 20; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(1, 12));
    const int m = static_cast<int>(rng.uniform_int(1, 10));
    const Problem p = rs::workload::random_instance(
        rng, InstanceFamily::kConvexTable, T, m, rng.uniform(0.2, 3.0));
    const std::vector<int> column = rs::core::multiples_of(1, m);
    const OfflineResult bounded = solve_bounded(
        p, std::vector<std::vector<int>>(static_cast<std::size_t>(T), column));
    EXPECT_NEAR(bounded.cost, dp.solve_cost(p), 1e-9);
  }
}

TEST(BoundedDp, RestrictedCandidatesAreUpperBound) {
  rs::util::Rng rng(404);
  const DpSolver dp;
  for (int trial = 0; trial < 20; ++trial) {
    const int m = 8;
    const int T = static_cast<int>(rng.uniform_int(1, 10));
    const Problem p = rs::workload::random_instance(
        rng, InstanceFamily::kQuadratic, T, m, 1.0);
    const OfflineResult restricted = solve_phi_restricted(p, 1);
    EXPECT_GE(restricted.cost, dp.solve_cost(p) - 1e-9);
    // Schedule really only uses multiples of 2.
    for (int state : restricted.schedule) EXPECT_EQ(state % 2, 0);
  }
}

TEST(BoundedDp, InputValidation) {
  const Problem p = rs::core::make_table_problem(2, 1.0, {{1.0, 0.0, 1.0}});
  EXPECT_THROW(solve_bounded(p, {}), std::invalid_argument);
  EXPECT_THROW(solve_bounded(p, {std::vector<int>{}}), std::invalid_argument);
  EXPECT_THROW(solve_bounded(p, {std::vector<int>{1, 0}}),
               std::invalid_argument);
  EXPECT_THROW(solve_bounded(p, {std::vector<int>{0, 3}}),
               std::invalid_argument);
  // 2^k must fit an int: k = 31 used to fail inside multiples_of, k >= 32
  // shifted out of range.
  EXPECT_THROW(solve_phi_restricted(p, -1), std::invalid_argument);
  EXPECT_THROW(solve_phi_restricted(p, 31), std::invalid_argument);
  EXPECT_THROW(solve_phi_restricted(p, 40), std::invalid_argument);
  EXPECT_EQ(solve_phi_restricted(p, 30).schedule, std::vector<int>{0});
}

TEST(BoundedDp, StatsCountWork) {
  const Problem p = rs::core::make_table_problem(
      2, 1.0, {{1.0, 0.0, 1.0}, {0.0, 1.0, 2.0}});
  BoundedDpStats stats;
  solve_bounded(p,
                {std::vector<int>{0, 1, 2}, std::vector<int>{0, 2}}, &stats);
  EXPECT_EQ(stats.function_evaluations, 3 + 2);
  EXPECT_EQ(stats.transitions_evaluated, 3 * 1 + 2 * 3);
}

TEST(PhiRestriction, MonotoneInK) {
  // Coarser restrictions can only cost more: OPT(P_0) <= OPT(P_1) <= ...
  rs::util::Rng rng(505);
  for (int trial = 0; trial < 10; ++trial) {
    const Problem p = rs::workload::random_instance(
        rng, InstanceFamily::kConvexTable, 8, 16, rng.uniform(0.5, 2.0));
    double previous = solve_phi_restricted(p, 0).cost;
    for (int k = 1; k <= 4; ++k) {
      const double current = solve_phi_restricted(p, k).cost;
      EXPECT_GE(current, previous - 1e-9) << "k=" << k;
      previous = current;
    }
  }
}

// --- parameterized cross-solver agreement -----------------------------------

struct CrossSolverParam {
  InstanceFamily family;
  int T;
  int m;
  double beta;
};

class CrossSolverTest
    : public ::testing::TestWithParam<CrossSolverParam> {};

TEST_P(CrossSolverTest, AllSolversAgreeOnOptimalCost) {
  const CrossSolverParam param = GetParam();
  rs::util::Rng rng(static_cast<std::uint64_t>(param.T) * 7919u +
                    static_cast<std::uint64_t>(param.m) * 104729u +
                    static_cast<std::uint64_t>(param.family));
  const DpSolver dp;
  const GraphSolver graph;
  const BackwardSolver backward;
  const BinarySearchSolver binary;
  for (int trial = 0; trial < 5; ++trial) {
    const Problem p = rs::workload::random_instance(
        rng, param.family, param.T, param.m, param.beta);
    const double expected = dp.solve_cost(p);
    EXPECT_NEAR(graph.solve(p).cost, expected, 1e-8) << "graph";
    EXPECT_NEAR(binary.solve(p).cost, expected, 1e-8) << "binary_search";
    // Lemma 11 applies to instances without hard constraints; with +inf
    // states the bound corridor can still be crossed, so skip backward for
    // the constrained family.
    if (param.family != InstanceFamily::kConstrained) {
      EXPECT_NEAR(backward.solve(p).cost, expected, 1e-8) << "backward";
    }
    // Returned schedules must price to their reported costs.
    const OfflineResult bs = binary.solve(p);
    if (bs.feasible()) {
      EXPECT_NEAR(rs::core::total_cost(p, bs.schedule), bs.cost, 1e-8);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CrossSolverTest,
    ::testing::Values(
        CrossSolverParam{InstanceFamily::kConvexTable, 1, 1, 1.0},
        CrossSolverParam{InstanceFamily::kConvexTable, 6, 4, 0.3},
        CrossSolverParam{InstanceFamily::kConvexTable, 12, 8, 1.0},
        CrossSolverParam{InstanceFamily::kConvexTable, 25, 16, 2.5},
        CrossSolverParam{InstanceFamily::kConvexTable, 40, 32, 5.0},
        CrossSolverParam{InstanceFamily::kQuadratic, 10, 7, 0.8},
        CrossSolverParam{InstanceFamily::kQuadratic, 30, 33, 1.7},
        CrossSolverParam{InstanceFamily::kQuadratic, 16, 64, 4.0},
        CrossSolverParam{InstanceFamily::kAffineAbs, 20, 5, 0.5},
        CrossSolverParam{InstanceFamily::kAffineAbs, 15, 24, 2.0},
        CrossSolverParam{InstanceFamily::kConstrained, 10, 12, 1.0},
        CrossSolverParam{InstanceFamily::kConstrained, 18, 31, 3.0},
        CrossSolverParam{InstanceFamily::kFlatRegions, 14, 9, 0.7},
        CrossSolverParam{InstanceFamily::kFlatRegions, 22, 40, 1.2},
        CrossSolverParam{InstanceFamily::kCapacityCapped, 12, 14, 0.9},
        CrossSolverParam{InstanceFamily::kCapacityCapped, 20, 37, 2.4}),
    [](const ::testing::TestParamInfo<CrossSolverParam>& info) {
      return rs::workload::family_name(info.param.family) + "_T" +
             std::to_string(info.param.T) + "_m" + std::to_string(info.param.m);
    });

TEST(BinarySearch, HandlesTinyM) {
  rs::util::Rng rng(606);
  const DpSolver dp;
  const BinarySearchSolver binary;
  for (int m : {1, 2, 3}) {
    for (int trial = 0; trial < 10; ++trial) {
      const Problem p = rs::workload::random_instance(
          rng, InstanceFamily::kConvexTable, 6, m, rng.uniform(0.3, 2.0));
      EXPECT_NEAR(binary.solve(p).cost, dp.solve_cost(p), 1e-9) << "m=" << m;
    }
  }
}

TEST(BinarySearch, ScheduleStaysWithinOriginalM) {
  rs::util::Rng rng(707);
  const BinarySearchSolver binary;
  for (int m : {3, 5, 6, 7, 9, 17, 33}) {
    const Problem p = rs::workload::random_instance(
        rng, InstanceFamily::kQuadratic, 12, m, 1.0);
    const OfflineResult result = binary.solve(p);
    ASSERT_TRUE(result.feasible());
    for (int state : result.schedule) {
      EXPECT_GE(state, 0);
      EXPECT_LE(state, m);
    }
  }
}

TEST(BinarySearch, IterationCountIsLogarithmic) {
  rs::util::Rng rng(808);
  const BinarySearchSolver binary;
  for (int log_m : {2, 4, 6, 8}) {
    const int m = 1 << log_m;
    const Problem p = rs::workload::random_instance(
        rng, InstanceFamily::kQuadratic, 10, m, 1.0);
    BinarySearchStats stats;
    binary.solve_with_stats(p, stats);
    EXPECT_EQ(stats.iterations, std::max(1, log_m - 1));
    // Work per iteration is <= 25 transitions per column.
    EXPECT_LE(stats.dp.transitions_evaluated,
              static_cast<std::int64_t>(stats.iterations) * 10 * 25 + 25);
  }
}

TEST(BinarySearch, FunctionEvaluationsAreOTlogM) {
  // The whole point of Theorem 1: the solver must not touch all T·m states.
  rs::util::Rng rng(909);
  const int T = 32;
  const int m = 1 << 12;
  const Problem p = rs::workload::random_instance(
      rng, InstanceFamily::kQuadratic, T, m, 1.0);
  BinarySearchStats stats;
  BinarySearchSolver().solve_with_stats(p, stats);
  // <= 5 evaluations per column per iteration, log2(m)-1 iterations.
  EXPECT_LE(stats.dp.function_evaluations,
            static_cast<std::int64_t>(5) * T * 11);
  EXPECT_LT(stats.dp.function_evaluations,
            static_cast<std::int64_t>(T) * (m + 1) / 4);
}

TEST(Backward, ProducesOptimalSchedule) {
  rs::util::Rng rng(111);
  const DpSolver dp;
  const BackwardSolver backward;
  for (InstanceFamily family :
       {InstanceFamily::kConvexTable, InstanceFamily::kQuadratic,
        InstanceFamily::kAffineAbs, InstanceFamily::kFlatRegions}) {
    for (int trial = 0; trial < 10; ++trial) {
      const int T = static_cast<int>(rng.uniform_int(1, 15));
      const int m = static_cast<int>(rng.uniform_int(1, 12));
      const Problem p = rs::workload::random_instance(
          rng, family, T, m, rng.uniform(0.2, 3.0));
      const OfflineResult result = backward.solve(p);
      EXPECT_NEAR(result.cost, dp.solve_cost(p), 1e-9)
          << rs::workload::family_name(family);
    }
  }
}

TEST(Backward, ScheduleWithinBounds) {
  rs::util::Rng rng(222);
  const Problem p = rs::workload::random_instance(
      rng, InstanceFamily::kQuadratic, 20, 10, 1.0);
  const BoundTrajectory bounds = compute_bounds(p);
  const Schedule x = backward_schedule(bounds);
  for (int t = 1; t <= 20; ++t) {
    EXPECT_GE(x[static_cast<std::size_t>(t - 1)],
              bounds.lower[static_cast<std::size_t>(t - 1)]);
    EXPECT_LE(x[static_cast<std::size_t>(t - 1)],
              bounds.upper[static_cast<std::size_t>(t - 1)]);
  }
}

TEST(GridContinuous, MatchesDiscreteOptimumOnIntegerGrid) {
  // Lemma 4: the continuous extension P̄ has an integral optimum, so the
  // grid optimum equals the discrete optimum for every q.
  rs::util::Rng rng(333);
  const DpSolver dp;
  for (int trial = 0; trial < 8; ++trial) {
    const Problem p = rs::workload::random_instance(
        rng, InstanceFamily::kConvexTable, 8, 5, rng.uniform(0.3, 2.0));
    const double discrete = dp.solve_cost(p);
    for (int q : {1, 2, 4}) {
      const ContinuousResult cont = solve_continuous_on_grid(p, q);
      EXPECT_NEAR(cont.cost, discrete, 1e-9) << "q=" << q;
    }
  }
}

TEST(GridContinuous, FloorAndCeilOfOptimumAreOptimal) {
  // Lemma 4 executable form: rounding a fractional optimal schedule down or
  // up preserves optimality.
  rs::util::Rng rng(444);
  const DpSolver dp;
  for (int trial = 0; trial < 8; ++trial) {
    const Problem p = rs::workload::random_instance(
        rng, InstanceFamily::kConvexTable, 7, 4, rng.uniform(0.3, 2.0));
    const ContinuousResult cont = solve_continuous_on_grid(p, 4);
    ASSERT_TRUE(cont.feasible());
    const double optimum = dp.solve_cost(p);
    const Schedule down = rs::core::floor_schedule(cont.schedule);
    const Schedule up = rs::core::ceil_schedule(cont.schedule);
    EXPECT_NEAR(rs::core::total_cost(p, down), optimum, 1e-9);
    EXPECT_NEAR(rs::core::total_cost(p, up), optimum, 1e-9);
  }
}

TEST(GridContinuous, RejectsBadResolution) {
  const Problem p = rs::core::make_table_problem(1, 1.0, {{0.0, 1.0}});
  EXPECT_THROW(solve_continuous_on_grid(p, 0), std::invalid_argument);
}


// --- golden differential: the Problem-input bits ----------------------------

// FNV-1a over every cost, schedule and BinarySearchStats count that
// GraphSolver, BruteForceSolver (when the search has at most 10^5
// schedules, which keeps the test fast), BackwardSolver and
// BinarySearchSolver return on Problem inputs: every random_instance
// family (the CrossSolverTest families) and a windowed family whose narrow
// feasible ranges miss the binary search's grids, so its Φ_k and exact-DP
// fallbacks run (16 times each), at m ∈ {1, 2, 3, 5, 7, 9, 17, 33}.  The
// expected value was recorded while the four solvers still took a Problem
// and binary search padded m by building a PaddedCost instance, so reading
// through core::SlotSource and padding through the values read must leave
// every bit where it was.
class Fnv64 {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void result(const OfflineResult& r) {
    i64(std::bit_cast<std::int64_t>(r.cost));
    i64(static_cast<std::int64_t>(r.schedule.size()));
    bytes(r.schedule.data(), r.schedule.size() * sizeof(int));
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

// A convex table finite only on a window of width 0-2 inside [0, m].
Problem windowed_instance(rs::util::Rng& rng, int T, int m, double beta) {
  std::vector<std::vector<double>> rows;
  for (int t = 1; t <= T; ++t) {
    const int lo = static_cast<int>(rng.uniform_int(0, m));
    const int hi = std::min(m, lo + static_cast<int>(rng.uniform_int(0, 2)));
    std::vector<double> row(static_cast<std::size_t>(m) + 1, kInf);
    const double center = rng.uniform(lo, hi);
    for (int x = lo; x <= hi; ++x) {
      row[static_cast<std::size_t>(x)] = (x - center) * (x - center);
    }
    rows.push_back(std::move(row));
  }
  return rs::core::make_table_problem(m, beta, rows);
}

TEST(OfflineGolden, ProblemInputSolversMatchRecordedHash) {
  Fnv64 h;
  int brute_runs = 0;
  const GraphSolver graph;
  const BruteForceSolver brute;
  const BackwardSolver backward;
  const BinarySearchSolver binary;
  const std::size_t windowed = rs::workload::all_instance_families().size();
  for (std::size_t family = 0; family <= windowed; ++family) {
    for (const int m : {1, 2, 3, 5, 7, 9, 17, 33}) {
      for (const int T : {3, 6}) {
        rs::util::Rng rng(family * 1000 + static_cast<std::uint64_t>(m) * 10 +
                          static_cast<std::uint64_t>(T));
        const double beta = rng.uniform(0.3, 3.0);
        const Problem p =
            family == windowed
                ? windowed_instance(rng, T, m, beta)
                : rs::workload::random_instance(
                      rng, rs::workload::all_instance_families()[family], T,
                      m, beta);
        h.result(graph.solve(p));
        if (std::pow(m + 1.0, T) <= 1e5) {
          h.result(brute.solve(p));
          ++brute_runs;
        }
        h.result(backward.solve(p));
        BinarySearchStats stats;
        const OfflineResult search = binary.solve_with_stats(p, stats);
        h.result(search);
        h.result(binary.solve(p));
        h.i64(stats.iterations);
        h.i64(stats.dp.transitions_evaluated);
        h.i64(stats.dp.function_evaluations);
      }
    }
  }
  EXPECT_GT(brute_runs, 60);
  EXPECT_EQ(h.value(), 0x7b59608c1c8bcbceull) << std::hex << h.value();
}

}  // namespace
