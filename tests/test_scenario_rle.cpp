// Property suite for the run-length-encoded replay (core/rle_problem.hpp,
// scenario/rle.hpp):
// schedules, bounds, and costs must be bit-identical to the slot-by-slot
// replay of the expanded instance on the same backend, across cost
// families, backends, run shapes (single-slot, all-constant), and the
// windowed Lcp sliding conversion cache with duplicate CostPtrs.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_function.hpp"
#include "core/piecewise_linear.hpp"
#include "core/problem.hpp"
#include "core/schedule.hpp"
#include "offline/work_function.hpp"
#include "online/lcp.hpp"
#include "online/online_algorithm.hpp"
#include "form_axis.hpp"
#include "scenario/rle.hpp"
#include "scenario/trace_zoo.hpp"
#include "util/rng.hpp"
#include "workload/trace.hpp"

namespace {

using rs::core::CostPtr;
using rs::core::Problem;
using rs::core::Schedule;
using rs::offline::WorkFunctionTracker;
using rs::scenario::RleProblem;
using rs::scenario::RleRun;
using rs::scenario::RleTrace;
using rs::workload::Trace;
using Backend = WorkFunctionTracker::Backend;

// A blocky trace: runs of varied length, including singletons.
Trace blocky_trace(std::uint64_t seed, int horizon, double peak) {
  rs::util::Rng rng(seed);
  Trace trace;
  while (trace.horizon() < horizon) {
    const double level =
        static_cast<double>(rng.uniform_int(0, 8)) / 8.0 * peak;
    const int length = static_cast<int>(rng.uniform_int(1, 9));
    for (int i = 0; i < length && trace.horizon() < horizon; ++i) {
      trace.lambda.push_back(level);
    }
  }
  return trace;
}

// λ -> slot cost factories, one per cost family under test.
struct Family {
  const char* name;
  bool pwl_capable;  // admits forced-kPwl replays
  std::function<CostPtr(double)> cost_of;
};

std::vector<Family> all_families(int m) {
  std::vector<Family> families;
  families.push_back(
      {"linear_load", true, [](double lambda) -> CostPtr {
         return std::make_shared<rs::core::LinearLoadSlotCost>(1.0, 0.5,
                                                               lambda);
       }});
  families.push_back({"hinge_sla", true, [](double lambda) -> CostPtr {
                        std::vector<CostPtr> parts;
                        parts.push_back(
                            std::make_shared<rs::core::PiecewiseLinearCost>(
                                std::vector<rs::core::Breakpoint>{
                                    {0.0, 0.0}, {1.0, 1.0}}));
                        parts.push_back(
                            rs::core::make_shortfall_hinge(8.0, 1.2 * lambda));
                        return std::make_shared<rs::core::SumCost>(
                            std::move(parts));
                      }});
  families.push_back({"affine_abs", true, [](double lambda) -> CostPtr {
                        return std::make_shared<rs::core::AffineAbsCost>(
                            0.75, lambda, 0.25);
                      }});
  families.push_back({"quadratic", true, [](double lambda) -> CostPtr {
                        return std::make_shared<rs::core::QuadraticCost>(
                            0.5, lambda, 0.0);
                      }});
  families.push_back({"table", true, [m](double lambda) -> CostPtr {
                        std::vector<double> values;
                        for (int x = 0; x <= m; ++x) {
                          values.push_back(std::fabs(x - lambda));
                        }
                        return std::make_shared<rs::core::TableCost>(
                            std::move(values));
                      }});
  // Opaque callable: is_convex() false, so this family always runs dense
  // (and a forced-kPwl replay must throw).
  families.push_back({"function", false, [](double lambda) -> CostPtr {
                        return std::make_shared<rs::core::FunctionCost>(
                            [lambda](int x) {
                              return std::fabs(static_cast<double>(x) - lambda);
                            });
                      }});
  return families;
}

TEST(RleTraceCodec, RoundTripAndGrouping) {
  Trace trace{{2.0, 2.0, 2.0, 0.5, 1.0, 1.0, 2.0}};
  const RleTrace rle = rs::scenario::rle_encode(trace);
  ASSERT_EQ(rle.run_count(), 4);
  EXPECT_EQ(rle.runs[0].length, 3);
  EXPECT_EQ(rle.runs[1].length, 1);
  EXPECT_EQ(rle.horizon(), 7);
  EXPECT_EQ(rs::scenario::rle_decode(rle).lambda, trace.lambda);

  EXPECT_EQ(rs::scenario::rle_encode(Trace{}).run_count(), 0);
  EXPECT_EQ(rs::scenario::rle_decode(RleTrace{}).horizon(), 0);
}

TEST(RleProblemView, CompressExpandRoundTrip) {
  const auto same = [](int x) { return std::fabs(x - 1.0); };
  const auto a = std::make_shared<rs::core::FunctionCost>(same);
  const auto b = std::make_shared<rs::core::FunctionCost>(same);
  // a a a b b a — opaque costs group by identity: the two equal-valued
  // cost objects stay distinct runs.
  Problem p(4, 2.0, {a, a, a, b, b, a});
  const RleProblem rle = rs::scenario::rle_compress(p);
  ASSERT_EQ(rle.run_count(), 3);
  EXPECT_EQ(rle.runs()[0].length, 3);
  EXPECT_EQ(rle.runs()[1].length, 2);
  EXPECT_EQ(rle.horizon(), 6);

  const Problem back = rle.expand();
  ASSERT_EQ(back.horizon(), 6);
  EXPECT_EQ(back.max_servers(), 4);
  EXPECT_DOUBLE_EQ(back.beta(), 2.0);
  for (int t = 1; t <= 6; ++t) {
    EXPECT_EQ(back.f_ptr(t).get(), p.f_ptr(t).get()) << "slot " << t;
  }
}

// Value grouping: a factory building a fresh cost graph per slot
// compresses exactly like its interned twin, and the RLE replay stays
// bitwise the expanded replay.
TEST(RleProblemView, FactoryFedProblemsCompressByValue) {
  const int m = 12;
  const Trace trace = blocky_trace(11, 120, 10.0);
  const rs::scenario::ZooParams params;
  std::vector<CostPtr> fresh;
  for (double lambda : trace.lambda) {
    fresh.push_back(rs::scenario::hinge_sla_cost(params, lambda));
  }
  const Problem factory_fed(m, params.beta, fresh);
  const RleProblem interned = rs::scenario::rle_problem_from_trace(
      rs::scenario::rle_encode(trace), m, params.beta,
      [&params](double lambda) {
        return rs::scenario::hinge_sla_cost(params, lambda);
      });

  const RleProblem compressed = rs::scenario::rle_compress(factory_fed);
  EXPECT_EQ(compressed.run_count(), interned.run_count());
  EXPECT_EQ(rs::scenario::rle_compress(interned.expand()).run_count(),
            interned.run_count());
  EXPECT_LT(compressed.run_count(), trace.horizon() / 2);
  for (Backend backend : {Backend::kAuto, Backend::kDense, Backend::kPwl}) {
    rs::online::Lcp reference(backend);
    EXPECT_EQ(rs::online::run_lcp(compressed, backend),
              rs::online::run_online(reference, factory_fed))
        << static_cast<int>(backend);
  }
}

TEST(RleProblemView, Validation) {
  const auto f = std::make_shared<rs::core::AffineAbsCost>(1.0, 0.0);
  EXPECT_THROW(RleProblem(-1, 2.0, {{f, 1}}), std::invalid_argument);
  EXPECT_THROW(RleProblem(4, 0.0, {{f, 1}}), std::invalid_argument);
  EXPECT_THROW(RleProblem(4, 2.0, {{nullptr, 1}}), std::invalid_argument);
  EXPECT_THROW(RleProblem(4, 2.0, {{f, 0}}), std::invalid_argument);
  EXPECT_THROW(rs::scenario::rle_problem_from_trace(RleTrace{}, 4, 2.0,
                                                    nullptr),
               std::invalid_argument);
}

// The core property: for every family × backend, the RLE replay and the
// slot-by-slot replay of the expanded instance produce the SAME schedule
// (integer-exact, so EXPECT_EQ) and the same cost.
TEST(RleReplay, BitIdenticalAcrossFamiliesAndBackends) {
  const int m = 12;
  const Trace trace = blocky_trace(42, 160, 10.0);
  const RleTrace rle_trace = rs::scenario::rle_encode(trace);
  for (const Family& family : all_families(m)) {
    const RleProblem rle =
        rs::scenario::rle_problem_from_trace(rle_trace, m, 3.0,
                                             family.cost_of);
    const Problem expanded = rle.expand();
    for (Backend backend : {Backend::kAuto, Backend::kDense, Backend::kPwl}) {
      if (backend == Backend::kPwl && !family.pwl_capable) {
        EXPECT_THROW(rs::online::run_lcp(rle, backend),
                     std::invalid_argument)
            << family.name;
        continue;
      }
      rs::online::Lcp reference(backend);
      const Schedule expected = rs::online::run_online(reference, expanded);
      const Schedule actual = rs::online::run_lcp(rle, backend);
      EXPECT_EQ(actual, expected)
          << family.name << " backend " << static_cast<int>(backend);
      EXPECT_DOUBLE_EQ(rs::core::total_cost(expanded, actual),
                       rs::core::total_cost(expanded, expected))
          << family.name;
    }
  }
}

TEST(RleReplay, SingleSlotRunsAndAllConstant) {
  const int m = 8;
  const auto cost_of = [](double lambda) -> CostPtr {
    return std::make_shared<rs::core::AffineAbsCost>(1.0, lambda);
  };
  // All runs length 1 (strictly alternating levels).
  Trace alternating;
  for (int t = 0; t < 60; ++t) {
    alternating.lambda.push_back(t % 2 == 0 ? 2.0 : 6.0);
  }
  // One run spanning the whole horizon.
  Trace constant;
  constant.lambda.assign(60, 5.0);

  for (const Trace& trace : {alternating, constant}) {
    const RleProblem rle = rs::scenario::rle_problem_from_trace(
        rs::scenario::rle_encode(trace), m, 4.0, cost_of);
    const Problem expanded = rle.expand();
    for (Backend backend : {Backend::kAuto, Backend::kDense, Backend::kPwl}) {
      rs::online::Lcp reference(backend);
      EXPECT_EQ(rs::online::run_lcp(rle, backend),
                rs::online::run_online(reference, expanded));
    }
  }
  // Degenerate: zero runs.
  EXPECT_TRUE(rs::online::run_lcp(RleProblem(m, 4.0, {})).empty());
}

// The input form as a test axis: every family's blocky instance, plus the
// degenerate T = 0 and m = 0 instances, through every corridor consumer in
// all four SlotSource forms (tests/form_axis.hpp lists the contracts).
TEST(RleReplay, EveryInputFormAgrees) {
  const int m = 10;
  const RleTrace rle_trace =
      rs::scenario::rle_encode(blocky_trace(7, 120, 9.0));
  for (const Family& family : all_families(m)) {
    rs::test_support::expect_forms_agree(
        rs::scenario::rle_problem_from_trace(rle_trace, m, 2.5,
                                             family.cost_of),
        family.name);
  }
  // A short horizon with a repeated stretch, so the exhaustive search runs
  // on every form too.
  const RleTrace short_trace =
      rs::scenario::rle_encode(Trace{{0.5, 2.0, 2.0, 2.0, 1.0, 3.0, 0.0}});
  for (const Family& family : all_families(3)) {
    rs::test_support::expect_forms_agree(
        rs::scenario::rle_problem_from_trace(short_trace, 3, 2.5,
                                             family.cost_of),
        std::string(family.name) + " (T = 7, m = 3)");
  }
  rs::test_support::expect_forms_agree(RleProblem(m, 2.5, {}), "T = 0");
  const auto zero = std::make_shared<rs::core::TableCost>(
      std::vector<double>{1.5});
  const auto one = std::make_shared<rs::core::TableCost>(
      std::vector<double>{0.25});
  rs::test_support::expect_forms_agree(
      RleProblem(0, 2.5, {{zero, 3}, {one, 1}, {zero, 5}}), "m = 0");
}

// Direct advance_repeated checks, including the chat values after a
// fixpoint jump (tolerance-level per the DESIGN.md §8 contract) and the
// argument validation.
TEST(AdvanceRepeated, MatchesIndividualAdvances) {
  // A shallow slope (2^-43, exact in binary) right of the minimizer: x^U
  // sits where the tie rule's tolerance — which grows with min Ĉ^L — meets
  // it, so x^U keeps moving long after Ĉ^L's shape reached its fixpoint,
  // and a fixpoint jump must not pin it.
  const int wide_m = 2000;
  std::vector<double> shallow(static_cast<std::size_t>(wide_m) + 1);
  for (int x = 0; x <= wide_m; ++x) {
    shallow[static_cast<std::size_t>(x)] =
        x <= 10 ? 20.0 - x : 10.0 + std::ldexp(1.0, -43) * (x - 10);
  }
  const std::vector<std::pair<int, CostPtr>> inputs = {
      {6, std::make_shared<rs::core::AffineAbsCost>(1.0, 4.0)},
      {wide_m, std::make_shared<rs::core::TableCost>(shallow)}};
  for (const auto& [m, f] : inputs) {
    for (Backend backend : {Backend::kDense, Backend::kPwl, Backend::kAuto}) {
      SCOPED_TRACE("m=" + std::to_string(m) +
                   " backend=" + std::to_string(static_cast<int>(backend)));
      WorkFunctionTracker loop(m, 2.0, backend);
      WorkFunctionTracker batch(m, 2.0, backend);
      const int count = 60;
      std::vector<int> xl(count), xu(count);
      batch.advance_repeated(*f, count, xl, xu);
      EXPECT_EQ(batch.tau(), count);
      for (int i = 0; i < count; ++i) {
        loop.advance(*f);
        EXPECT_EQ(xl[static_cast<std::size_t>(i)], loop.x_lower()) << i;
        EXPECT_EQ(xu[static_cast<std::size_t>(i)], loop.x_upper()) << i;
      }
      for (int x = 0; x <= m; ++x) {
        EXPECT_NEAR(batch.chat_lower(x), loop.chat_lower(x), 1e-9);
        EXPECT_NEAR(batch.chat_upper(x), loop.chat_upper(x), 1e-9);
      }
    }
  }
}

TEST(AdvanceRepeated, ResumesCorrectlyAfterRun) {
  // A run followed by a different cost: the fast-forwarded state must
  // continue exactly like the stepped one (schedule equality over a
  // two-run instance where the second run reacts to the first's values).
  const int m = 6;
  WorkFunctionTracker loop(m, 2.0, Backend::kPwl);
  WorkFunctionTracker batch(m, 2.0, Backend::kPwl);
  const rs::core::AffineAbsCost high(1.0, 5.0);
  const rs::core::AffineAbsCost low(1.0, 1.0);
  std::vector<int> xl(30), xu(30);
  batch.advance_repeated(high, 30, xl, xu);
  for (int i = 0; i < 30; ++i) loop.advance(high);
  batch.advance_repeated(low, 30, xl, xu);
  for (int i = 0; i < 30; ++i) {
    loop.advance(low);
    EXPECT_EQ(xl[static_cast<std::size_t>(i)], loop.x_lower()) << i;
    EXPECT_EQ(xu[static_cast<std::size_t>(i)], loop.x_upper()) << i;
  }
}

TEST(AdvanceRepeated, Validation) {
  WorkFunctionTracker tracker(4, 2.0);
  const rs::core::AffineAbsCost f(1.0, 2.0);
  std::vector<int> xl(2), xu(2);
  EXPECT_THROW(tracker.advance_repeated(f, -1, xl, xu),
               std::invalid_argument);
  EXPECT_THROW(tracker.advance_repeated(f, 3, xl, xu),
               std::invalid_argument);
  // count = 0 is a no-op.
  tracker.advance_repeated(f, 0, xl, xu);
  EXPECT_EQ(tracker.tau(), 0);

  // Raw value rows are dense-only: a forced-kPwl tracker must throw.
  WorkFunctionTracker pwl(4, 2.0, Backend::kPwl);
  const std::vector<double> row = {4.0, 3.0, 2.0, 1.0, 0.0};
  EXPECT_THROW(
      pwl.advance_repeated(std::span<const double>(row), 2, xl, xu),
      std::logic_error);
}

// Windowed Lcp over an RLE-expanded instance: runs straddle the prediction
// window, so the sliding form cache sees the SAME CostPtr at several
// window positions at once.  The replay must match the one over a
// per-slot-unique but structurally identical instance.
TEST(RleReplay, LcpWindowStraddlesRunBoundaries) {
  const int m = 9;
  const Trace trace = blocky_trace(11, 90, 8.0);
  const RleTrace rle_trace = rs::scenario::rle_encode(trace);
  const auto shared_cost = [](double lambda) -> CostPtr {
    return std::make_shared<rs::core::AffineAbsCost>(1.0, lambda);
  };
  const RleProblem rle =
      rs::scenario::rle_problem_from_trace(rle_trace, m, 3.0, shared_cost);
  const Problem shared = rle.expand();
  // Same instance with one fresh cost object per slot (no pointer reuse).
  std::vector<CostPtr> unique_costs;
  for (double lambda : trace.lambda) unique_costs.push_back(shared_cost(lambda));
  const Problem unique(m, 3.0, std::move(unique_costs));

  for (Backend backend : {Backend::kDense, Backend::kAuto, Backend::kPwl}) {
    for (int window : {1, 3, 7}) {
      rs::online::Lcp on_shared(backend);
      rs::online::Lcp on_unique(backend);
      EXPECT_EQ(rs::online::run_online(on_shared, shared, window),
                rs::online::run_online(on_unique, unique, window))
          << "backend " << static_cast<int>(backend) << " window " << window;
    }
  }
}

}  // namespace
