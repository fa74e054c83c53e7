// The input form as a test axis: one instance, given as a run-grouped
// RleProblem, is fed to every corridor consumer and every exact offline
// solver in each of the four forms a core::SlotSource wraps — the expanded
// Problem, its DenseProblem table, its PwlProblem forms (when every slot
// converts within the auto budget) and the RleProblem itself.
//
// Contracts checked (DESIGN.md §8):
//   * compute_bounds and run_lcp: bitwise equal across all forms and every
//     backend a form accepts (the tie rule makes the backend a performance
//     choice);
//   * DpSolver solve/solve_cost: bitwise equal within a backend family —
//     rows vs streamed dense (kDense), and forms vs kConvexAuto.  The one
//     exception is the convex DP cost of an RLE source whose slots all
//     convert: its PWL runs fast-forward the work-function values, which
//     matches stepping up to FP association order only, so that cost is
//     compared to tolerance (its schedule, derived from the bitwise
//     corridor, is still compared exactly);
//   * LowMemorySolver: one schedule across all four forms, the Lemma-11
//     projection of the shared corridor; its cost is bitwise the convex
//     DP's on every source that runs the same labels;
//   * kAuto resolves per instance: on an instance with a slot that has no
//     compact form the Problem and the RleProblem run dense labels from
//     slot 1, so LowMemorySolver and the kConvexAuto DP give one cost,
//     bitwise, on the Problem, its table and its runs (the table DP's
//     cost), and LowMemorySolver one schedule;
//   * the integral accounting (total_cost, cost_up_to / cost_down_up_to at
//     a mid τ, is_feasible) of the LCP schedule: bitwise equal on the
//     Problem, its table and its runs, within 1e-9 relative on the forms;
//   * solve_phi_restricted at k ∈ {0, 1}: bitwise equal on the Problem,
//     its table and its runs (one candidate-column DP); the forms take the
//     grid label path — cost within 1e-9 relative, the schedule exact on
//     integer-valued instances and optimal otherwise;
//   * GraphSolver, BruteForceSolver (when the search has at most 10^7
//     schedules), BackwardSolver and BinarySearchSolver (with its
//     BinarySearchStats counts): bitwise equal on the Problem, its table
//     and its runs; on the forms, cost within 1e-9 relative and a schedule
//     that prices to it on the Problem.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "core/dense_problem.hpp"
#include "core/problem.hpp"
#include "core/pwl_problem.hpp"
#include "core/rle_problem.hpp"
#include "core/schedule.hpp"
#include "offline/backward_solver.hpp"
#include "offline/binary_search_solver.hpp"
#include "offline/bounded_dp.hpp"
#include "offline/brute_force.hpp"
#include "offline/dp_solver.hpp"
#include "offline/graph_solver.hpp"
#include "offline/low_memory_solver.hpp"
#include "offline/work_function.hpp"
#include "online/lcp.hpp"

namespace rs::test_support {

inline void expect_forms_agree(const rs::core::RleProblem& rle,
                               const std::string& label) {
  using Backend = rs::offline::WorkFunctionTracker::Backend;
  using rs::offline::DpSolver;
  using rs::offline::LowMemorySolver;
  const rs::core::Problem p = rle.expand();
  const rs::core::DenseProblem dense(p);
  const std::optional<rs::core::PwlProblem> pwl =
      rs::core::PwlProblem::try_convert(p);
  SCOPED_TRACE(label + (pwl ? " (converts)" : " (no compact forms)"));

  // Corridor and LCP: one reference, every form, every accepted backend.
  const rs::offline::BoundTrajectory ref =
      rs::offline::compute_bounds(p, Backend::kDense);
  const rs::core::Schedule lcp_ref = rs::online::run_lcp(p, Backend::kDense);
  ASSERT_EQ(ref.lower.size(), static_cast<std::size_t>(p.horizon()));
  const auto expect_bounds = [&](const rs::core::SlotSource& source,
                                 Backend backend, const char* form) {
    const rs::offline::BoundTrajectory got =
        rs::offline::compute_bounds(source, backend);
    EXPECT_EQ(got.lower, ref.lower) << form << " " << static_cast<int>(backend);
    EXPECT_EQ(got.upper, ref.upper) << form << " " << static_cast<int>(backend);
    EXPECT_EQ(rs::online::run_lcp(source, backend), lcp_ref)
        << form << " " << static_cast<int>(backend);
  };
  for (const Backend backend :
       {Backend::kAuto, Backend::kDense, Backend::kPwl}) {
    if (backend == Backend::kPwl && !pwl) continue;
    expect_bounds(p, backend, "problem");
    expect_bounds(rle, backend, "rle");
  }
  expect_bounds(dense, Backend::kAuto, "dense");
  if (pwl) expect_bounds(*pwl, Backend::kAuto, "pwl");

  // Dense family: table rows vs rows streamed per slot or per run.
  const DpSolver dp_dense(DpSolver::Backend::kDense);
  const rs::offline::OfflineResult dp_ref = dp_dense.solve(p);
  const double dp_cost_ref = dp_dense.solve_cost(p);
  const auto expect_dense_family = [&](const rs::core::SlotSource& source,
                                       const char* form) {
    const rs::offline::OfflineResult dp = dp_dense.solve(source);
    EXPECT_EQ(dp.cost, dp_ref.cost) << form;
    EXPECT_EQ(dp.schedule, dp_ref.schedule) << form;
    EXPECT_EQ(dp_dense.solve_cost(source), dp_cost_ref) << form;
  };
  expect_dense_family(dense, "dense");
  expect_dense_family(rle, "rle");

  // Convex family: cached forms vs kConvexAuto over the cost functions.
  const DpSolver dp_convex(DpSolver::Backend::kConvexAuto);
  const rs::offline::OfflineResult cx_ref = dp_convex.solve(p);
  const double cx_cost_ref = dp_convex.solve_cost(p);
  EXPECT_EQ(cx_ref.cost, cx_cost_ref);
  if (pwl) {
    const rs::offline::OfflineResult cx = dp_convex.solve(*pwl);
    EXPECT_EQ(cx.cost, cx_ref.cost);
    EXPECT_EQ(cx.schedule, cx_ref.schedule);
    EXPECT_EQ(dp_convex.solve_cost(*pwl), cx_cost_ref);
  }
  const rs::offline::OfflineResult cx_rle = dp_convex.solve(rle);
  const double tolerance = 1e-9 * std::max(1.0, std::fabs(cx_ref.cost));
  if (pwl && std::isfinite(cx_ref.cost)) {
    EXPECT_NEAR(cx_rle.cost, cx_ref.cost, tolerance);
    EXPECT_NEAR(dp_convex.solve_cost(rle), cx_cost_ref, tolerance);
  } else {
    EXPECT_EQ(cx_rle.cost, cx_ref.cost);
    EXPECT_EQ(dp_convex.solve_cost(rle), cx_cost_ref);
  }
  EXPECT_EQ(cx_rle.schedule, cx_ref.schedule);

  // LowMemorySolver: the backend is a performance choice, so every form
  // yields the projection of the one corridor.  Its cost is the tracker's
  // min Ĉ^L: bitwise the convex DP's on the cost functions and forms, the
  // cost-only table DP's on a table (the same two-pass relax).
  const LowMemorySolver lm;
  const rs::offline::OfflineResult lm_ref = lm.solve(p);
  EXPECT_EQ(lm_ref.cost, cx_ref.cost);
  if (lm_ref.feasible()) {
    EXPECT_EQ(lm_ref.schedule, rs::offline::backward_schedule(ref));
  } else {
    EXPECT_TRUE(lm_ref.schedule.empty());
  }
  const auto expect_low_memory = [&](const rs::core::SlotSource& source,
                                     double cost, const char* form) {
    const rs::offline::OfflineResult got = lm.solve(source);
    EXPECT_EQ(got.cost, cost) << form;
    EXPECT_EQ(got.schedule, lm_ref.schedule) << form;
  };
  expect_low_memory(dense, dp_cost_ref, "dense");
  if (pwl) expect_low_memory(*pwl, cx_ref.cost, "pwl");
  expect_low_memory(rle, cx_rle.cost, "rle");
  if (!pwl) {
    // No compact form somewhere: every form runs dense labels from slot 1.
    EXPECT_EQ(lm_ref.cost, dp_cost_ref) << "problem vs table";
    EXPECT_EQ(cx_rle.cost, dp_cost_ref) << "runs vs table";
  }

  // Accounting of the LCP schedule: one definition, read per form.
  const int mid = p.horizon() / 2;
  const double total_ref = rs::core::total_cost(p, lcp_ref);
  const double up_ref = rs::core::cost_up_to(p, lcp_ref, mid);
  const double down_ref = rs::core::cost_down_up_to(p, lcp_ref, mid);
  const bool feasible_ref = rs::core::is_feasible(p, lcp_ref);
  EXPECT_EQ(feasible_ref, std::isfinite(total_ref));
  const auto expect_accounting = [&](const rs::core::SlotSource& source,
                                     const char* form) {
    EXPECT_EQ(rs::core::total_cost(source, lcp_ref), total_ref) << form;
    EXPECT_EQ(rs::core::cost_up_to(source, lcp_ref, mid), up_ref) << form;
    EXPECT_EQ(rs::core::cost_down_up_to(source, lcp_ref, mid), down_ref)
        << form;
    EXPECT_EQ(rs::core::is_feasible(source, lcp_ref), feasible_ref) << form;
  };
  expect_accounting(dense, "dense");
  expect_accounting(rle, "rle");
  if (pwl && std::isfinite(total_ref)) {
    EXPECT_NEAR(rs::core::total_cost(*pwl, lcp_ref), total_ref,
                1e-9 * std::max(1.0, std::fabs(total_ref)));
    EXPECT_EQ(rs::core::is_feasible(*pwl, lcp_ref), feasible_ref);
  }

  // Φ_k-restricted optima: the candidate-column DP on every value form,
  // the grid label path on the forms.
  bool integer_valued = true;
  for (int t = 1; t <= dense.horizon(); ++t) {
    for (const double value : dense.row(t)) {
      if (std::isfinite(value) && value != std::floor(value)) {
        integer_valued = false;
      }
    }
  }
  for (const int k : {0, 1}) {
    const rs::offline::OfflineResult phi_ref =
        rs::offline::solve_phi_restricted(p, k);
    const auto expect_phi = [&](const rs::core::SlotSource& source,
                                const char* form) {
      const rs::offline::OfflineResult got =
          rs::offline::solve_phi_restricted(source, k);
      EXPECT_EQ(got.cost, phi_ref.cost) << form << " k=" << k;
      EXPECT_EQ(got.schedule, phi_ref.schedule) << form << " k=" << k;
    };
    expect_phi(dense, "dense");
    expect_phi(rle, "rle");
    if (!pwl) continue;
    const rs::offline::OfflineResult grid =
        rs::offline::solve_phi_restricted(*pwl, k);
    if (!std::isfinite(phi_ref.cost)) {
      EXPECT_EQ(grid.cost, phi_ref.cost) << "pwl k=" << k;
      EXPECT_TRUE(grid.schedule.empty()) << "pwl k=" << k;
      continue;
    }
    const double phi_tolerance = 1e-9 * std::max(1.0, std::fabs(phi_ref.cost));
    EXPECT_NEAR(grid.cost, phi_ref.cost, phi_tolerance) << "pwl k=" << k;
    if (integer_valued) {
      EXPECT_EQ(grid.schedule, phi_ref.schedule) << "pwl k=" << k;
    } else {
      EXPECT_NEAR(rs::core::total_cost(p, grid.schedule), phi_ref.cost,
                  phi_tolerance)
          << "pwl k=" << k;
    }
  }

  // The remaining exact solvers, one SlotSource entry each.
  const rs::offline::GraphSolver graph;
  const rs::offline::BruteForceSolver brute_force;
  const rs::offline::BackwardSolver backward;
  const rs::offline::BinarySearchSolver binary_search;
  std::vector<const rs::offline::OfflineSolver*> exact = {&graph, &backward,
                                                          &binary_search};
  if (std::pow(p.max_servers() + 1.0, p.horizon()) <= 1e7) {
    exact.push_back(&brute_force);
  }
  for (const rs::offline::OfflineSolver* solver : exact) {
    const rs::offline::OfflineResult want = solver->solve(p);
    const auto expect_same = [&](const rs::core::SlotSource& source,
                                 const char* form) {
      const rs::offline::OfflineResult got = solver->solve(source);
      EXPECT_EQ(got.cost, want.cost) << solver->name() << " " << form;
      EXPECT_EQ(got.schedule, want.schedule) << solver->name() << " " << form;
    };
    expect_same(dense, "dense");
    expect_same(rle, "rle");
    if (!pwl) continue;
    const rs::offline::OfflineResult got = solver->solve(*pwl);
    if (!std::isfinite(want.cost)) {
      EXPECT_EQ(got.cost, want.cost) << solver->name() << " pwl";
      EXPECT_TRUE(got.schedule.empty()) << solver->name() << " pwl";
      continue;
    }
    const double exact_tolerance = 1e-9 * std::max(1.0, std::fabs(want.cost));
    EXPECT_NEAR(got.cost, want.cost, exact_tolerance) << solver->name();
    EXPECT_NEAR(rs::core::total_cost(p, got.schedule), want.cost,
                exact_tolerance)
        << solver->name();
  }
  rs::offline::BinarySearchStats stats_ref;
  binary_search.solve_with_stats(p, stats_ref);
  for (const rs::core::SlotSource& source :
       {rs::core::SlotSource(dense), rs::core::SlotSource(rle)}) {
    rs::offline::BinarySearchStats stats;
    binary_search.solve_with_stats(source, stats);
    EXPECT_EQ(stats.iterations, stats_ref.iterations);
    EXPECT_EQ(stats.dp.transitions_evaluated,
              stats_ref.dp.transitions_evaluated);
    EXPECT_EQ(stats.dp.function_evaluations,
              stats_ref.dp.function_evaluations);
  }
}

}  // namespace rs::test_support
