// The PwlProblem conversion cache and the consumers rewired onto it:
// exactly one as_convex_pwl conversion per slot per batch (instrumented
// regression tests for the windowed-LCP sliding window and the engine's
// capability probe), plus the convex-PWL extension of bounded_dp, which
// must reproduce its dense path's schedules — bit-identically on
// integer-valued instances, with the documented plateau-tie caveat on the
// flat_regions family (DESIGN.md §8) — and the low-memory corridor solve,
// whose schedule is bitwise the same for every input form and backend.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "counting_cost.hpp"
#include "form_axis.hpp"
#include "mixed_form_instance.hpp"
#include "rightsizer/rightsizer.hpp"

namespace {

using rs::core::ConvexPwl;
using rs::core::CostPtr;
using rs::core::Problem;
using rs::core::PwlProblem;
using rs::core::Schedule;
using rs::util::kInf;
using rs::workload::InstanceFamily;

using rs::test_support::CountingCost;

struct CountedInstance {
  Problem problem;
  std::vector<std::shared_ptr<std::atomic<int>>> conversions;  // per slot
};

CountedInstance counted_affine_instance(int T, int m) {
  rs::util::Rng rng(12345);
  std::vector<CostPtr> fs;
  std::vector<std::shared_ptr<std::atomic<int>>> counters;
  for (int t = 0; t < T; ++t) {
    auto counter = std::make_shared<std::atomic<int>>(0);
    fs.push_back(std::make_shared<CountingCost>(
        std::make_shared<rs::core::AffineAbsCost>(
            static_cast<double>(rng.uniform_int(1, 3)),
            static_cast<double>(rng.uniform_int(0, m))),
        counter));
    counters.push_back(std::move(counter));
  }
  return {Problem(m, 2.0, std::move(fs)), std::move(counters)};
}

// Integer-valued convex tables: all downstream arithmetic is exact in
// double, so PWL and dense paths must agree bit for bit, tie-breaks
// included.
Problem integer_instance(rs::util::Rng& rng, int T, int m, double beta) {
  std::vector<CostPtr> fs;
  for (int t = 0; t < T; ++t) {
    std::vector<double> values(static_cast<std::size_t>(m) + 1);
    double v = static_cast<double>(rng.uniform_int(0, 6));
    double slope = static_cast<double>(rng.uniform_int(0, 4)) - 2.0;
    values[0] = v;
    for (int x = 1; x <= m; ++x) {
      slope += static_cast<double>(rng.uniform_int(0, 2));
      v += slope;
      values[static_cast<std::size_t>(x)] = std::max(v, 0.0);
      v = values[static_cast<std::size_t>(x)];
    }
    fs.push_back(std::make_shared<rs::core::TableCost>(std::move(values)));
  }
  return Problem(m, beta, std::move(fs));
}

std::vector<std::vector<int>> grid_columns(const Problem& p, int stride) {
  return std::vector<std::vector<int>>(
      static_cast<std::size_t>(p.horizon()),
      rs::core::multiples_of(stride, p.max_servers()));
}

}  // namespace

// --- the cache itself --------------------------------------------------------

TEST(PwlProblem, TryConvertCachesEverySlotExactlyOnce) {
  const CountedInstance counted = counted_affine_instance(9, 7);
  const std::optional<PwlProblem> pwl =
      PwlProblem::try_convert(counted.problem);
  ASSERT_TRUE(pwl.has_value());
  EXPECT_EQ(pwl->horizon(), 9);
  EXPECT_EQ(pwl->max_servers(), 7);
  EXPECT_DOUBLE_EQ(pwl->beta(), 2.0);
  EXPECT_EQ(pwl->conversions(), 9u);
  for (const auto& counter : counted.conversions) {
    EXPECT_EQ(counter->load(), 1);
  }
  // The cached forms are the slots' own conversions.
  for (int t = 1; t <= 9; ++t) {
    const auto direct = counted.problem.f(t).as_convex_pwl(7);
    ASSERT_TRUE(direct.has_value());
    for (int x = 0; x <= 7; ++x) {
      EXPECT_EQ(pwl->form(t).value_at(x), direct->value_at(x))
          << "t=" << t << " x=" << x;
    }
  }
}

TEST(PwlProblem, TryConvertDeclinesNonCompactInstances) {
  // An opaque slot anywhere sinks the whole conversion.
  std::vector<CostPtr> fs = {
      std::make_shared<rs::core::AffineAbsCost>(1.0, 2.0),
      std::make_shared<rs::core::FunctionCost>([](int x) { return 1.0 * x; }),
  };
  EXPECT_FALSE(PwlProblem::try_convert(Problem(5, 1.0, std::move(fs))));

  // The default budget is the m-relative auto rule: a quadratic at large m
  // needs one breakpoint per state and must decline there, but convert
  // under an explicit unbounded budget.
  std::vector<CostPtr> quad = {
      std::make_shared<rs::core::QuadraticCost>(0.5, 50.0)};
  const Problem q(200, 1.0, std::move(quad));
  EXPECT_FALSE(PwlProblem::try_convert(q));
  EXPECT_TRUE(
      PwlProblem::try_convert(q, rs::core::kUnboundedBreakpoints).has_value());

  // T = 0 converts trivially.
  EXPECT_TRUE(PwlProblem::try_convert(Problem(3, 1.0, {})).has_value());
}

TEST(PwlProblem, ParallelConversionMatchesSequential) {
  // 600 slots crosses the pool-parallel threshold; forms must be the same
  // as slot-by-slot conversion, and a late non-convertible slot must still
  // sink the build.
  const int T = 600;
  const int m = 9;
  rs::util::Rng rng(77);
  std::vector<CostPtr> fs;
  for (int t = 0; t < T; ++t) {
    fs.push_back(std::make_shared<rs::core::AffineAbsCost>(
        rng.uniform(0.25, 2.0), static_cast<double>(rng.uniform_int(0, m))));
  }
  const Problem p(m, 1.5, fs);
  const std::optional<PwlProblem> pwl = PwlProblem::try_convert(p);
  ASSERT_TRUE(pwl.has_value());
  for (int t = 1; t <= T; t += 37) {
    const auto direct = p.f(t).as_convex_pwl(m);
    for (int x = 0; x <= m; ++x) {
      EXPECT_EQ(pwl->form(t).value_at(x), direct->value_at(x));
    }
  }
  fs[550] = std::make_shared<rs::core::FunctionCost>(
      [](int x) { return 2.0 * x; });
  EXPECT_FALSE(PwlProblem::try_convert(Problem(m, 1.5, std::move(fs))));
}

// --- ConvexPwl batch evaluation and grid resampling --------------------------

TEST(ConvexPwlEval, SortedBatchMatchesValueAt) {
  rs::util::Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(2, 14));
    std::vector<double> values = rs::workload::random_convex_table(rng, m);
    const int prefix = static_cast<int>(rng.uniform_int(0, m / 2));
    for (int x = 0; x < prefix; ++x) values[static_cast<std::size_t>(x)] = kInf;
    const auto form = rs::core::TableCost(values).as_convex_pwl(m);
    ASSERT_TRUE(form.has_value());
    // All positions, including out-of-domain ones past both ends.
    std::vector<int> xs;
    for (int x = 0; x <= m; ++x) {
      if (rng.uniform(0.0, 1.0) < 0.7) xs.push_back(x);
    }
    xs.push_back(m);
    std::vector<double> out(xs.size());
    form->eval_at_sorted(xs, out);
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double expected = form->value_at(xs[i]);
      if (std::isinf(expected)) {
        EXPECT_TRUE(std::isinf(out[i])) << "x=" << xs[i];
      } else {
        EXPECT_NEAR(out[i], expected, 1e-12 * std::max(1.0, expected))
            << "x=" << xs[i];
      }
    }
  }
  // The infinite form evaluates to +inf everywhere.
  const ConvexPwl none = ConvexPwl::infinite();
  std::vector<double> out(3);
  none.eval_at_sorted(std::vector<int>{0, 1, 2}, out);
  for (double v : out) EXPECT_TRUE(std::isinf(v));
}

TEST(ConvexPwlEval, ResampleStrideMatchesGridValues) {
  rs::util::Rng rng(41);
  for (int trial = 0; trial < 20; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(4, 40));
    std::vector<double> values = rs::workload::random_convex_table(rng, m);
    const int prefix = static_cast<int>(rng.uniform_int(0, m / 3));
    const int cut = static_cast<int>(rng.uniform_int(2 * m / 3, m));
    for (int x = 0; x < prefix; ++x) values[static_cast<std::size_t>(x)] = kInf;
    for (int x = cut + 1; x <= m; ++x) {
      values[static_cast<std::size_t>(x)] = kInf;
    }
    const auto form = rs::core::TableCost(values).as_convex_pwl(m);
    ASSERT_TRUE(form.has_value());
    for (int stride : {1, 2, 3, 5}) {
      const ConvexPwl grid = form->resample_stride(stride);
      for (int y = 0; y * stride <= m; ++y) {
        const double expected = form->value_at(y * stride);
        if (std::isinf(expected)) {
          EXPECT_TRUE(std::isinf(grid.value_at(y)))
              << "stride=" << stride << " y=" << y;
        } else {
          EXPECT_NEAR(grid.value_at(y), expected,
                      1e-9 * std::max(1.0, std::fabs(expected)))
              << "stride=" << stride << " y=" << y;
        }
      }
    }
  }
  // No grid point inside the domain: infinite.
  const auto narrow =
      rs::core::TableCost({kInf, 1.0, 2.0, kInf}).as_convex_pwl(3);
  ASSERT_TRUE(narrow.has_value());
  EXPECT_TRUE(narrow->resample_stride(4).is_infinite());
  EXPECT_TRUE(ConvexPwl::infinite().resample_stride(2).is_infinite());
}

// --- cached replays match their streaming counterparts -----------------------

TEST(PwlProblem, CachedLcpAndBoundsMatchStreamingBackends) {
  for (InstanceFamily family : rs::workload::all_instance_families()) {
    rs::util::Rng rng(401 + static_cast<std::uint64_t>(family));
    const Problem p =
        rs::workload::random_instance(rng, family, 17, 8, rng.uniform(0.5, 2.5));
    const std::optional<PwlProblem> pwl =
        PwlProblem::try_convert(p, rs::core::kUnboundedBreakpoints);
    ASSERT_TRUE(pwl.has_value());

    rs::online::Lcp forced(rs::offline::WorkFunctionTracker::Backend::kPwl);
    EXPECT_EQ(rs::online::run_lcp_pwl(*pwl), rs::online::run_online(forced, p))
        << rs::workload::family_name(family);

    const rs::offline::BoundTrajectory cached = rs::offline::compute_bounds(*pwl);
    const rs::offline::BoundTrajectory streamed = rs::offline::compute_bounds(
        p, rs::offline::WorkFunctionTracker::Backend::kPwl);
    EXPECT_EQ(cached.lower, streamed.lower);
    EXPECT_EQ(cached.upper, streamed.upper);

    const rs::offline::DpSolver dp;
    const rs::offline::OfflineResult cached_dp = dp.solve(*pwl);
    EXPECT_EQ(dp.solve_cost(*pwl), cached_dp.cost);
    EXPECT_NEAR(rs::core::total_cost(p, cached_dp.schedule), cached_dp.cost,
                1e-9 * std::max(1.0, cached_dp.cost));
    EXPECT_NEAR(cached_dp.cost, rs::offline::DpSolver().solve_cost(p),
                1e-9 * std::max(1.0, cached_dp.cost));

    // The same slots as runs of 1-3 repeats, through every input form.
    std::vector<rs::core::RleProblem::Run> runs;
    for (int t = 1; t <= p.horizon(); ++t) {
      runs.push_back({p.f_ptr(t), 1 + t % 3});
    }
    rs::test_support::expect_forms_agree(
        rs::core::RleProblem(p.max_servers(), p.beta(), std::move(runs)),
        rs::workload::family_name(family));
  }
  // Degenerate horizons and fleets ride the same axis.
  rs::test_support::expect_forms_agree(rs::core::RleProblem(8, 1.5, {}),
                                       "T = 0");
  rs::test_support::expect_forms_agree(
      rs::core::RleProblem(
          0, 1.5,
          {{std::make_shared<rs::core::AffineAbsCost>(1.0, 0.0), 4},
           {std::make_shared<rs::core::QuadraticCost>(0.5, 2.0, 0.0), 2}}),
      "m = 0");
}

// --- conversion-count regressions (the bugfixes) -----------------------------

TEST(LcpWindow, SlidingWindowConvertsEachSlotExactlyOnce) {
  // Before the sliding form cache, a lookahead slot was converted on every
  // slide — up to w+1 conversions per slot (once per window position plus
  // once as the revealed cost).
  for (int window : {1, 3, 5}) {
    const CountedInstance counted = counted_affine_instance(14, 8);
    rs::online::Lcp lcp;  // kAuto, PWL path throughout
    const Schedule schedule =
        rs::online::run_online(lcp, counted.problem, window);
    EXPECT_EQ(schedule.size(), 14u);
    for (std::size_t t = 0; t < counted.conversions.size(); ++t) {
      EXPECT_EQ(counted.conversions[t]->load(), 1)
          << "slot " << t + 1 << " window " << window;
    }
  }
}

TEST(LcpWindow, SlidingCacheKeepsSchedulesIdentical) {
  // The cache must be a pure memoization: schedules equal the forced-PWL
  // and dense replays on integer instances (exact ties).
  rs::util::Rng rng(59);
  for (int trial = 0; trial < 6; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(4, 16));
    const int m = static_cast<int>(rng.uniform_int(2, 9));
    const Problem p = integer_instance(rng, T, m, 1.0);
    for (int window : {0, 2, 4}) {
      rs::online::Lcp pwl_lcp(
          rs::offline::WorkFunctionTracker::Backend::kPwl);
      rs::online::Lcp dense_lcp(
          rs::offline::WorkFunctionTracker::Backend::kDense);
      EXPECT_EQ(rs::online::run_online(pwl_lcp, p, window),
                rs::online::run_online(dense_lcp, p, window))
          << "trial=" << trial << " w=" << window;
    }
  }
}

TEST(SolverEngine, ProbePopulatesCacheOneConversionPerSlotPerBatch) {
  const CountedInstance counted = counted_affine_instance(11, 6);
  const Problem& p = counted.problem;
  // Two jobs of every kind on the same instance: the probe's conversion is
  // the only one — all eight jobs replay from the shared cache.
  std::vector<rs::engine::SolveJob> jobs;
  for (int copy = 0; copy < 2; ++copy) {
    for (rs::engine::SolverKind kind :
         {rs::engine::SolverKind::kDpCost, rs::engine::SolverKind::kDpSchedule,
          rs::engine::SolverKind::kLcp, rs::engine::SolverKind::kLowMemory}) {
      jobs.push_back(rs::engine::SolveJob{&p, nullptr, kind});
    }
  }
  const rs::engine::BatchResult batch =
      rs::engine::SolverEngine({.threads = 1}).run(jobs);
  for (std::size_t t = 0; t < counted.conversions.size(); ++t) {
    EXPECT_EQ(counted.conversions[t]->load(), 1) << "slot " << t + 1;
  }
  EXPECT_EQ(batch.stats.pwl_conversions, 11u);
  EXPECT_EQ(batch.stats.pwl_backed, jobs.size());
  EXPECT_EQ(batch.stats.dense_tables_built, 0u);
  // And the batch still solves correctly: the DP cost prices the LCP-free
  // optimum of the same instance on every copy.
  EXPECT_EQ(batch.outcomes[0].cost, rs::offline::DpSolver().solve_cost(p));
  EXPECT_EQ(batch.outcomes[0].cost, batch.outcomes[4].cost);
}

// --- bounded_dp on the cache -------------------------------------------------

TEST(BoundedDpPwl, GridColumnsMatchDenseAcrossFamilies) {
  for (InstanceFamily family : rs::workload::all_instance_families()) {
    rs::util::Rng rng(509 + static_cast<std::uint64_t>(family));
    for (int trial = 0; trial < 3; ++trial) {
      const int T = static_cast<int>(rng.uniform_int(1, 18));
      const int m = static_cast<int>(rng.uniform_int(2, 12));
      const Problem p = rs::workload::random_instance(rng, family, T, m,
                                                      rng.uniform(0.4, 2.5));
      const std::optional<PwlProblem> pwl =
          PwlProblem::try_convert(p, rs::core::kUnboundedBreakpoints);
      ASSERT_TRUE(pwl.has_value()) << rs::workload::family_name(family);
      for (int stride : {1, 2}) {
        const std::vector<std::vector<int>> states = grid_columns(p, stride);
        const rs::offline::OfflineResult dense =
            rs::offline::solve_bounded(p, states);
        const rs::offline::OfflineResult fast =
            rs::offline::solve_bounded(*pwl, states);
        if (std::isinf(dense.cost)) {
          EXPECT_TRUE(std::isinf(fast.cost));
          continue;
        }
        EXPECT_NEAR(fast.cost, dense.cost, 1e-9 * std::max(1.0, dense.cost))
            << rs::workload::family_name(family) << " stride=" << stride;
        if (family == InstanceFamily::kFlatRegions) {
          // Exact cost plateaus: ties may resolve to different (equally
          // optimal) grid states; assert optimality instead of position
          // (the bit-exact tie contract is covered on integer instances).
          EXPECT_NEAR(rs::core::total_cost(p, fast.schedule), dense.cost,
                      1e-9 * std::max(1.0, dense.cost));
        } else {
          EXPECT_EQ(fast.schedule, dense.schedule)
              << rs::workload::family_name(family) << " stride=" << stride;
        }
      }
    }
  }
}

TEST(BoundedDpPwl, GridColumnsBitIdenticalOnIntegerInstances) {
  rs::util::Rng rng(97);
  for (int trial = 0; trial < 10; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(1, 15));
    const int m = static_cast<int>(rng.uniform_int(2, 12));
    const Problem p = integer_instance(rng, T, m, 2.0);
    const std::optional<PwlProblem> pwl =
        PwlProblem::try_convert(p, rs::core::kUnboundedBreakpoints);
    ASSERT_TRUE(pwl.has_value());
    for (int k : {0, 1, 2}) {
      const rs::offline::OfflineResult dense =
          rs::offline::solve_phi_restricted(p, k);
      const rs::offline::OfflineResult fast =
          rs::offline::solve_phi_restricted(*pwl, k);
      EXPECT_EQ(fast.cost, dense.cost) << "trial=" << trial << " k=" << k;
      EXPECT_EQ(fast.schedule, dense.schedule)
          << "trial=" << trial << " k=" << k;
    }
  }
}

TEST(BoundedDpPwl, IrregularColumnsEvaluateFromFormsBitIdentically) {
  // Non-grid candidate sets cannot take the convex label path; they must
  // still fill their columns from the cache (no re-conversion) and agree
  // with the dense gather exactly on integer instances.
  rs::util::Rng rng(103);
  for (int trial = 0; trial < 8; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(1, 12));
    const int m = static_cast<int>(rng.uniform_int(3, 10));
    const Problem p = integer_instance(rng, T, m, 1.0);
    const std::optional<PwlProblem> pwl =
        PwlProblem::try_convert(p, rs::core::kUnboundedBreakpoints);
    ASSERT_TRUE(pwl.has_value());
    std::vector<std::vector<int>> states;
    for (int t = 0; t < T; ++t) {
      std::vector<int> column;
      for (int x = 0; x <= m; ++x) {
        if (rng.uniform(0.0, 1.0) < 0.6) column.push_back(x);
      }
      if (column.empty()) column.push_back(static_cast<int>(
          rng.uniform_int(0, m)));
      states.push_back(std::move(column));
    }
    rs::offline::BoundedDpStats dense_stats;
    rs::offline::BoundedDpStats fast_stats;
    const rs::offline::OfflineResult dense =
        rs::offline::solve_bounded(p, states, &dense_stats);
    const rs::offline::OfflineResult fast =
        rs::offline::solve_bounded(*pwl, states, &fast_stats);
    EXPECT_EQ(fast.cost, dense.cost) << trial;
    EXPECT_EQ(fast.schedule, dense.schedule) << trial;
    EXPECT_EQ(fast_stats.function_evaluations,
              dense_stats.function_evaluations);
    EXPECT_EQ(fast_stats.transitions_evaluated,
              dense_stats.transitions_evaluated);
  }
}

// --- low-memory corridor solve on the cache ---------------------------------

TEST(LowMemoryPwl, MatchesDenseAcrossFamilies) {
  // The cached forms run PWL labels; the Problem runs them too where every
  // slot converts within the auto budget, else dense labels.  One tie rule
  // makes the schedule bitwise the same either way, plateaus included.
  const rs::offline::LowMemorySolver solver;
  for (InstanceFamily family : rs::workload::all_instance_families()) {
    rs::util::Rng rng(607 + static_cast<std::uint64_t>(family));
    for (int trial = 0; trial < 3; ++trial) {
      const int T = static_cast<int>(rng.uniform_int(1, 20));
      const int m = static_cast<int>(rng.uniform_int(1, 11));
      const Problem p = rs::workload::random_instance(rng, family, T, m,
                                                      rng.uniform(0.4, 2.5));
      const std::optional<PwlProblem> pwl =
          PwlProblem::try_convert(p, rs::core::kUnboundedBreakpoints);
      ASSERT_TRUE(pwl.has_value());
      const rs::offline::OfflineResult dense = solver.solve(p);
      const rs::offline::OfflineResult fast = solver.solve(*pwl);
      EXPECT_NEAR(fast.cost, dense.cost, 1e-9 * std::max(1.0, dense.cost))
          << rs::workload::family_name(family);
      EXPECT_EQ(fast.schedule, dense.schedule)
          << rs::workload::family_name(family) << " T=" << T << " m=" << m;
      EXPECT_EQ(solver.solve(rs::core::DenseProblem(p)).schedule,
                dense.schedule)
          << rs::workload::family_name(family) << " T=" << T << " m=" << m;
    }
  }
}

TEST(LowMemoryPwl, BitIdenticalOnIntegerInstances) {
  rs::util::Rng rng(113);
  for (int trial = 0; trial < 10; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(1, 18));
    const int m = static_cast<int>(rng.uniform_int(1, 10));
    const Problem p = integer_instance(rng, T, m, 2.0);
    const std::optional<PwlProblem> pwl =
        PwlProblem::try_convert(p, rs::core::kUnboundedBreakpoints);
    ASSERT_TRUE(pwl.has_value());
    const rs::offline::OfflineResult dense =
        rs::offline::LowMemorySolver().solve(p);
    const rs::offline::OfflineResult fast =
        rs::offline::LowMemorySolver().solve(*pwl);
    EXPECT_EQ(fast.cost, dense.cost) << trial;
    EXPECT_EQ(fast.schedule, dense.schedule) << trial;
  }
}

TEST(LowMemoryPwl, ConvexAutoBackendSelectsAndFallsBack) {
  // Compact instance: the solve converts once per slot and runs PWL.
  const CountedInstance counted = counted_affine_instance(10, 7);
  const rs::offline::LowMemorySolver solver;
  const rs::offline::OfflineResult fast = solver.solve(counted.problem);
  for (const auto& counter : counted.conversions) {
    EXPECT_EQ(counter->load(), 1);
  }
  const rs::offline::BoundTrajectory dense_bounds = rs::offline::compute_bounds(
      counted.problem, rs::offline::WorkFunctionTracker::Backend::kDense);
  const double dense_cost =
      rs::offline::DpSolver().solve_cost(counted.problem);
  EXPECT_NEAR(fast.cost, dense_cost, 1e-9 * std::max(1.0, dense_cost));
  EXPECT_EQ(fast.schedule, rs::offline::backward_schedule(dense_bounds));

  // Opaque instance: the solve falls back to dense labels.
  std::vector<CostPtr> fs = {
      std::make_shared<rs::core::FunctionCost>([](int x) { return 1.0 * x; }),
      std::make_shared<rs::core::FunctionCost>(
          [](int x) { return 2.0 * (x > 2 ? x - 2 : 2 - x); }),
  };
  const Problem opaque(5, 1.0, std::move(fs));
  EXPECT_EQ(solver.solve(opaque).schedule,
            rs::offline::backward_schedule(rs::offline::compute_bounds(
                opaque, rs::offline::WorkFunctionTracker::Backend::kDense)));
}

TEST(LowMemoryPwl, MixedFormInstancesAgreeAcrossForms) {
  // Compact leading slots, opaque M/M/1 slots after: kAuto is resolved
  // over the whole instance, so the Problem and its runs run dense labels
  // from slot 1 like the table, and the corridor solves give one cost,
  // bitwise, on every form (tests/form_axis.hpp).  Seeds 21, 78, 86 and
  // 168 are the ones where PWL leading labels would change the cost's last
  // bits.
  for (const std::uint64_t seed : {0u, 1u, 2u, 3u, 21u, 78u, 86u, 168u}) {
    const Problem p = rs::test_support::mixed_form_instance(seed);
    ASSERT_TRUE(p.f(1).as_convex_pwl(p.max_servers()));
    ASSERT_FALSE(rs::core::admits_compact_pwl(p));
    std::vector<rs::core::RleProblem::Run> runs;
    for (int t = 1; t <= p.horizon(); ++t) runs.push_back({p.f_ptr(t), 1});
    const rs::core::RleProblem rle(p.max_servers(), p.beta(), std::move(runs));
    rs::test_support::expect_forms_agree(
        rle, "mixed seed " + std::to_string(seed));
  }
}

TEST(LowMemoryPwl, HandlesEdgeInstances) {
  const rs::offline::LowMemorySolver solver;
  const Problem empty(4, 1.0, {});
  const auto empty_pwl = PwlProblem::try_convert(empty);
  ASSERT_TRUE(empty_pwl.has_value());
  EXPECT_EQ(solver.solve(*empty_pwl).cost, 0.0);
  EXPECT_TRUE(solver.solve(*empty_pwl).schedule.empty());

  const Problem tiny = rs::core::make_table_problem(0, 1.0, {{2.0}, {3.0}});
  const auto tiny_pwl =
      PwlProblem::try_convert(tiny, rs::core::kUnboundedBreakpoints);
  ASSERT_TRUE(tiny_pwl.has_value());
  const rs::offline::OfflineResult r = solver.solve(*tiny_pwl);
  EXPECT_EQ(r.cost, 5.0);
  EXPECT_EQ(r.schedule, Schedule({0, 0}));

  const Problem infeasible = rs::core::make_table_problem(
      2, 1.0, {{1.0, 1.0, 1.0}, {kInf, kInf, kInf}});
  const auto dead_pwl =
      PwlProblem::try_convert(infeasible, rs::core::kUnboundedBreakpoints);
  ASSERT_TRUE(dead_pwl.has_value());
  const rs::offline::OfflineResult dead = solver.solve(*dead_pwl);
  EXPECT_TRUE(std::isinf(dead.cost));
  EXPECT_TRUE(dead.schedule.empty());
}

// --- the linear-tariff restricted model rides the PWL path -------------------

TEST(LinearLoadPwl, TariffInstancesRideEveryPwlConsumer) {
  // Integer tariffs and workloads: every backend's arithmetic is exact, so
  // all cross-backend comparisons are bit-tight.
  rs::util::Rng rng(131);
  for (int trial = 0; trial < 5; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(3, 16));
    const int m = static_cast<int>(rng.uniform_int(4, 12));
    std::vector<CostPtr> fs;
    for (int t = 0; t < T; ++t) {
      fs.push_back(std::make_shared<rs::core::LinearLoadSlotCost>(
          static_cast<double>(rng.uniform_int(1, 3)),
          static_cast<double>(rng.uniform_int(0, 4)),
          static_cast<double>(rng.uniform_int(0, m / 2))));
    }
    const Problem p(m, static_cast<double>(rng.uniform_int(1, 4)),
                    std::move(fs));
    // The family admits the compact form under the *auto* budget (zero
    // breakpoints), so the engine and trackers select PWL on their own.
    EXPECT_TRUE(rs::core::admits_compact_pwl(p));
    const std::optional<PwlProblem> pwl = PwlProblem::try_convert(p);
    ASSERT_TRUE(pwl.has_value());

    rs::online::Lcp dense_lcp(rs::offline::WorkFunctionTracker::Backend::kDense);
    EXPECT_EQ(rs::online::run_lcp_pwl(*pwl),
              rs::online::run_online(dense_lcp, p));

    EXPECT_EQ(rs::offline::DpSolver().solve_cost(*pwl),
              rs::offline::DpSolver().solve_cost(p));

    EXPECT_EQ(rs::offline::LowMemorySolver().solve(*pwl).schedule,
              rs::offline::LowMemorySolver().solve(p).schedule);

    const std::vector<std::vector<int>> states = grid_columns(p, 1);
    EXPECT_EQ(rs::offline::solve_bounded(*pwl, states).schedule,
              rs::offline::solve_bounded(p, states).schedule);
  }
}
