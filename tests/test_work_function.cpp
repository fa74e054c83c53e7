// Property tests for the Section-3 work functions: the definitions of
// Ĉ^L_τ / Ĉ^U_τ against brute force, and executable forms of Lemmas 6-11.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "offline/backward_solver.hpp"
#include "offline/dp_solver.hpp"
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

// Brute-force Ĉ^B_τ(x): minimum of C^B over all schedules of length τ that
// end in state x.
double brute_chat(const Problem& p, int tau, int x, bool charge_up) {
  Schedule probe(static_cast<std::size_t>(tau), 0);
  double best = kInf;
  for (;;) {
    if (probe[static_cast<std::size_t>(tau - 1)] == x) {
      const double cost = charge_up
                              ? rs::core::cost_up_to(p.prefix(tau), probe)
                              : rs::core::cost_down_up_to(p.prefix(tau), probe);
      best = std::min(best, cost);
    }
    int position = 0;
    while (position < tau) {
      if (probe[static_cast<std::size_t>(position)] < p.max_servers()) {
        ++probe[static_cast<std::size_t>(position)];
        break;
      }
      probe[static_cast<std::size_t>(position)] = 0;
      ++position;
    }
    if (position == tau) break;
  }
  return best;
}

TEST(WorkFunction, MatchesBruteForceDefinition) {
  rs::util::Rng rng(42);
  for (int trial = 0; trial < 8; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(1, 4));
    const int m = static_cast<int>(rng.uniform_int(1, 3));
    const Problem p = rs::workload::random_instance(
        rng, InstanceFamily::kConvexTable, T, m, rng.uniform(0.3, 2.5));
    WorkFunctionTracker tracker(m, p.beta());
    for (int tau = 1; tau <= T; ++tau) {
      tracker.advance(p.f(tau));
      for (int x = 0; x <= m; ++x) {
        EXPECT_NEAR(tracker.chat_lower(x), brute_chat(p, tau, x, true), 1e-9)
            << "tau=" << tau << " x=" << x;
        EXPECT_NEAR(tracker.chat_upper(x), brute_chat(p, tau, x, false), 1e-9)
            << "tau=" << tau << " x=" << x;
      }
    }
  }
}

TEST(WorkFunction, ConstructionValidation) {
  EXPECT_THROW(WorkFunctionTracker(-1, 1.0), std::invalid_argument);
  EXPECT_THROW(WorkFunctionTracker(1, 0.0), std::invalid_argument);
  WorkFunctionTracker tracker(2, 1.0);
  EXPECT_THROW(tracker.chat_lower(0), std::logic_error);  // not started
  EXPECT_THROW(tracker.x_lower(), std::logic_error);
  EXPECT_THROW(tracker.advance(std::vector<double>{0.0}),
               std::invalid_argument);  // wrong arity
  tracker.advance(std::vector<double>{0.0, 1.0, 2.0});
  EXPECT_THROW(tracker.chat_lower(3), std::out_of_range);
  EXPECT_THROW(
      tracker.advance(std::vector<double>{0.0, std::nan(""), 1.0}),
      std::invalid_argument);
}

TEST(WorkFunction, NaNRowLeavesTrackerUnchanged) {
  // A NaN cost is rejected before the dense step moves anything: after the
  // caught throw the labels, τ and the corridor are the clean prefix's, and
  // the next clean advance equals that of a tracker that never saw the bad
  // row.
  const int m = 4;
  const double beta = 1.5;
  const std::vector<std::vector<double>> clean = {{3.0, 1.0, 2.0, 4.0, 6.0},
                                                  {5.0, 2.0, 1.0, 0.5, 3.0}};
  const std::vector<double> bad = {1.0, 2.0, std::nan(""), 3.0, 4.0};
  const std::vector<double> next = {2.0, 0.0, 1.0, 2.5, 1.0};
  WorkFunctionTracker hit(m, beta, WorkFunctionTracker::Backend::kDense);
  WorkFunctionTracker never(m, beta, WorkFunctionTracker::Backend::kDense);
  for (const std::vector<double>& row : clean) {
    hit.advance(row);
    never.advance(row);
  }
  const std::vector<double> labels = hit.chat_lower_vector();
  EXPECT_THROW(hit.advance(bad), std::invalid_argument);
  EXPECT_EQ(hit.chat_lower_vector(), labels);
  EXPECT_EQ(hit.tau(), 2);
  EXPECT_EQ(hit.x_lower(), never.x_lower());
  EXPECT_EQ(hit.x_upper(), never.x_upper());
  hit.advance(next);
  never.advance(next);
  EXPECT_EQ(hit.chat_lower_vector(), never.chat_lower_vector());
  EXPECT_EQ(hit.tau(), never.tau());
  EXPECT_EQ(hit.x_lower(), never.x_lower());
  EXPECT_EQ(hit.x_upper(), never.x_upper());
}

TEST(WorkFunction, FirstStepClosedForm) {
  // Ĉ^L_1(x) = f_1(x) + βx and Ĉ^U_1(x) = f_1(x) (Lemma 8/9 base case).
  const double beta = 1.75;
  WorkFunctionTracker tracker(3, beta);
  const std::vector<double> f1 = {4.0, 1.0, 0.5, 2.0};
  tracker.advance(f1);
  for (int x = 0; x <= 3; ++x) {
    EXPECT_NEAR(tracker.chat_lower(x), f1[static_cast<std::size_t>(x)] + beta * x, 1e-12);
    EXPECT_NEAR(tracker.chat_upper(x), f1[static_cast<std::size_t>(x)], 1e-12);
  }
  EXPECT_EQ(tracker.x_upper(), 2);  // argmin f_1
}

// Shared fixture: run the tracker over random instances and check a lemma
// at every step.
class WorkFunctionLemmaTest
    : public ::testing::TestWithParam<InstanceFamily> {};

TEST_P(WorkFunctionLemmaTest, Lemma8ChatIsConvex) {
  rs::util::Rng rng(8u + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 6; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(1, 12));
    const int m = static_cast<int>(rng.uniform_int(2, 9));
    const double beta = rng.uniform(0.2, 3.0);
    const Problem p = rs::workload::random_instance(rng, GetParam(), T, m, beta);
    WorkFunctionTracker tracker(m, beta);
    for (int tau = 1; tau <= T; ++tau) {
      tracker.advance(p.f(tau));
      // Ĉ^U = Ĉ^L − βx (Lemma 7) is convex exactly when Ĉ^L is.
      const std::vector<double>& chat = tracker.chat_lower_vector();
      double previous_slope = -kInf;
      for (int x = 1; x <= m; ++x) {
        const double a = chat[static_cast<std::size_t>(x - 1)];
        const double b = chat[static_cast<std::size_t>(x)];
        if (std::isinf(a) || std::isinf(b)) continue;
        const double slope = b - a;
        EXPECT_GE(slope, previous_slope - 1e-8) << "tau=" << tau;
        previous_slope = slope;
      }
    }
  }
}

TEST_P(WorkFunctionLemmaTest, Lemma9And10SlopeBoundsAroundXUpper) {
  rs::util::Rng rng(9u + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 6; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(1, 12));
    const int m = static_cast<int>(rng.uniform_int(2, 9));
    const double beta = rng.uniform(0.2, 3.0);
    const Problem p = rs::workload::random_instance(rng, GetParam(), T, m, beta);
    WorkFunctionTracker tracker(m, beta);
    for (int tau = 1; tau <= T; ++tau) {
      tracker.advance(p.f(tau));
      const int x_upper = tracker.x_upper();
      // Lemma 10: ΔĈ^L(x) <= β for all x <= x^U.
      for (int x = 1; x <= x_upper; ++x) {
        const double a = tracker.chat_lower(x - 1);
        const double b = tracker.chat_lower(x);
        if (std::isinf(a) || std::isinf(b)) continue;
        EXPECT_LE(b - a, beta + 1e-8) << "tau=" << tau << " x=" << x;
      }
      // Lemma 9: ΔĈ^L(x^U + 1) >= β.
      if (x_upper < m) {
        const double a = tracker.chat_lower(x_upper);
        const double b = tracker.chat_lower(x_upper + 1);
        if (std::isfinite(a) && std::isfinite(b)) {
          EXPECT_GE(b - a, beta - 1e-8) << "tau=" << tau;
        }
      }
    }
  }
}

TEST_P(WorkFunctionLemmaTest, BoundsAreOrdered) {
  // x^L_τ <= x^U_τ: the LCP projection interval is never empty.
  rs::util::Rng rng(10u + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 6; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(1, 15));
    const int m = static_cast<int>(rng.uniform_int(1, 10));
    const Problem p = rs::workload::random_instance(rng, GetParam(), T, m,
                                                    rng.uniform(0.2, 3.0));
    const BoundTrajectory bounds = compute_bounds(p);
    for (int t = 0; t < T; ++t) {
      EXPECT_LE(bounds.lower[static_cast<std::size_t>(t)],
                bounds.upper[static_cast<std::size_t>(t)]);
    }
  }
}

TEST_P(WorkFunctionLemmaTest, Lemma6BoundsSandwichAnOptimum) {
  // There is an optimal schedule with x^L_τ <= x*_τ <= x^U_τ for all τ —
  // witnessed by the Lemma-11 backward schedule, which must price at OPT.
  rs::util::Rng rng(11u + static_cast<std::uint64_t>(GetParam()));
  const DpSolver dp;
  for (int trial = 0; trial < 6; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(1, 12));
    const int m = static_cast<int>(rng.uniform_int(1, 8));
    const Problem p = rs::workload::random_instance(rng, GetParam(), T, m,
                                                    rng.uniform(0.2, 3.0));
    const BoundTrajectory bounds = compute_bounds(p);
    const Schedule witness = backward_schedule(bounds);
    for (int t = 0; t < T; ++t) {
      ASSERT_GE(witness[static_cast<std::size_t>(t)],
                bounds.lower[static_cast<std::size_t>(t)]);
      ASSERT_LE(witness[static_cast<std::size_t>(t)],
                bounds.upper[static_cast<std::size_t>(t)]);
    }
    EXPECT_NEAR(rs::core::total_cost(p, witness), dp.solve_cost(p), 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Families, WorkFunctionLemmaTest,
    ::testing::Values(InstanceFamily::kConvexTable, InstanceFamily::kQuadratic,
                      InstanceFamily::kAffineAbs, InstanceFamily::kFlatRegions),
    [](const ::testing::TestParamInfo<InstanceFamily>& info) {
      return rs::workload::family_name(info.param);
    });

TEST(WorkFunction, BoundsTieBreaking) {
  // f with a flat minimizer region: x^L picks the leftmost minimizer of
  // Ĉ^L, x^U the rightmost minimizer of Ĉ^U.
  const double beta = 10.0;  // dominate switching so Ĉ^U ~ f, Ĉ^L ~ f + βx
  WorkFunctionTracker tracker(4, beta);
  tracker.advance(std::vector<double>{1.0, 0.0, 0.0, 0.0, 1.0});
  EXPECT_EQ(tracker.x_lower(), 0);  // βx tips Ĉ^L's min toward... x=0? f(0)=1 vs f(1)+β=10 -> yes 0
  EXPECT_EQ(tracker.x_upper(), 3);  // rightmost minimizer of f
}

TEST(WorkFunction, Lemma11OptimalOnHandInstance) {
  // Worked example: two expensive-to-track spikes; LCP-style backward
  // schedule must equal the DP optimum exactly.
  const Problem p = rs::core::make_table_problem(
      2, 1.0,
      {{2.0, 0.5, 0.0}, {0.0, 0.5, 2.0}, {2.0, 0.5, 0.0}, {0.0, 0.5, 2.0}});
  const OfflineResult backward = BackwardSolver().solve(p);
  const double expected = DpSolver().solve_cost(p);
  EXPECT_NEAR(backward.cost, expected, 1e-12);
}

// ---------------------------------------------------------------------------
// Golden differential: the bits every tracker path produces
// ---------------------------------------------------------------------------

// FNV-1a over everything a tracker exposes to its consumers: every slot's
// snapshot() bytes and corridor, a probe_from answer every 5th feed and a
// repair_from on a clone every 10th, across every random_instance family,
// kAuto and kPwl, and 24 seeds (integers hashed in host byte order, so the
// value holds on little-endian hosts).  The expected value was recorded
// from the map-backed ConvexPwl that the flat slope array replaced, so any
// change to a floating-point accumulation order, a clip cut or a
// reconvergence test shows up here as a different hash rather than as a
// drifted perfbench metric.
class Fnv64 {
 public:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { i64(std::bit_cast<std::int64_t>(v)); }
  void ints(const std::vector<int>& v) {
    i64(static_cast<std::int64_t>(v.size()));
    bytes(v.data(), v.size() * sizeof(int));
  }
  void repair(const WorkFunctionTracker::Repair& r) {
    ints(r.lower);
    ints(r.upper);
    i64(r.x_lower);
    i64(r.x_upper);
    i64(r.slots_replayed);
    i64(r.early_exit ? 1 : 0);
    f64(r.chat_min);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

// What the golden runs exercised, so the hash cannot pass vacuously.
struct GoldenCoverage {
  int pwl_feeds = 0;
  int max_breakpoints = 0;
  int probes = 0;
  int early_exits = 0;
  int flips = 0;
};

void hash_tracker_run(Fnv64& h, GoldenCoverage& coverage,
                      InstanceFamily family,
                      WorkFunctionTracker::Backend backend,
                      std::uint64_t seed) {
  rs::util::Rng rng(seed);
  const int m = static_cast<int>(rng.uniform_int(3, 24));
  const double beta = rng.uniform(0.4, 3.0);
  const int feeds = 30;
  const Problem p = rs::workload::random_instance(rng, family, feeds, m, beta);
  const Problem donor = rs::workload::random_instance(rng, family, 8, m, beta);
  WorkFunctionTracker tracker(m, beta, backend);
  tracker.enable_rewind(32);
  for (int t = 1; t <= feeds; ++t) {
    // Every fourth feed is a 3-slot run (the shape-fixpoint path).
    const int length = t % 4 == 0 ? 3 : 1;
    std::vector<int> xl(static_cast<std::size_t>(length));
    std::vector<int> xu(static_cast<std::size_t>(length));
    tracker.advance_repeated(p.f(t), length, xl, xu);
    const std::vector<std::uint8_t> snapshot = tracker.snapshot();
    h.bytes(snapshot.data(), snapshot.size());
    h.ints(xl);
    h.ints(xu);
    h.i64(tracker.x_lower());
    h.i64(tracker.x_upper());
    if (tracker.using_pwl()) ++coverage.pwl_feeds;
    coverage.max_breakpoints =
        std::max(coverage.max_breakpoints, tracker.breakpoint_count());
    if (t % 5 != 0) continue;
    const int slot = static_cast<int>(
        rng.uniform_int(tracker.rewind_begin(), tracker.tau()));
    const rs::core::CostFunction& edit = donor.f(1 + t % 8);
    h.i64(slot);
    try {
      const WorkFunctionTracker::Repair probe = tracker.probe_from(slot, edit);
      h.repair(probe);
      ++coverage.probes;
      if (probe.early_exit) ++coverage.early_exits;
    } catch (const std::invalid_argument&) {
      h.i64(-1);  // the edit flips the backend trajectory
      ++coverage.flips;
    }
    if (t % 10 != 0) continue;
    WorkFunctionTracker repaired = tracker.clone();
    try {
      h.repair(repaired.repair_from(slot, edit));
      const std::vector<std::uint8_t> after = repaired.snapshot();
      h.bytes(after.data(), after.size());
    } catch (const std::invalid_argument&) {
      h.i64(-2);
    }
  }
}

TEST(ConvexPwlGolden, TrackerSnapshotsAndProbesMatchParentHash) {
  Fnv64 h;
  GoldenCoverage coverage;
  for (const InstanceFamily family : rs::workload::all_instance_families()) {
    for (const auto backend : {WorkFunctionTracker::Backend::kAuto,
                               WorkFunctionTracker::Backend::kPwl}) {
      for (std::uint64_t seed = 1; seed <= 24; ++seed) {
        hash_tracker_run(h, coverage, family, backend, seed);
      }
    }
  }
  EXPECT_GT(coverage.pwl_feeds, 0);
  EXPECT_GE(coverage.max_breakpoints, 10);
  EXPECT_GT(coverage.probes, 0);
  EXPECT_GT(coverage.early_exits, 0);
  EXPECT_GT(coverage.flips, 0);
  EXPECT_EQ(h.value(), 0xdb7efed28cfea9dfull) << std::hex << "0x" << h.value();
}

}  // namespace
