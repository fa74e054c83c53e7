// Dense evaluation layer: equivalence of the batched row path with the seed
// per-point path.
//
// Every CostFunction::eval_row override must produce bit-identical values
// to at(), and every dense-backed solver must return bit-identical cost and
// schedule to the same solver driven through per-point evaluation.  The
// per-point oracle wraps each f_t in a FunctionCost whose eval_row is the
// default at()-loop, so running a solver on the wrapped instance exercises
// exactly the seed evaluation path on exactly the same values.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <vector>

#include "rightsizer/rightsizer.hpp"

namespace {

using rs::core::CostPtr;
using rs::core::DenseProblem;
using rs::core::Problem;
using rs::core::Schedule;
using rs::util::kInf;

// Rewraps every slot cost in a FunctionCost so all evaluation funnels
// through the default per-point eval_row loop (the seed path), with values
// identical to the original by construction.
Problem per_point_view(const Problem& p) {
  std::vector<CostPtr> fs;
  fs.reserve(static_cast<std::size_t>(p.horizon()));
  for (int t = 1; t <= p.horizon(); ++t) {
    fs.push_back(std::make_shared<rs::core::FunctionCost>(
        [f = p.f_ptr(t)](int x) { return f->at(x); }, "per_point"));
  }
  return Problem(p.max_servers(), p.beta(), std::move(fs));
}

std::vector<double> row_by_at(const rs::core::CostFunction& f, int m) {
  std::vector<double> out(static_cast<std::size_t>(m) + 1);
  for (int x = 0; x <= m; ++x) out[static_cast<std::size_t>(x)] = f.at(x);
  return out;
}

std::vector<double> row_by_eval(const rs::core::CostFunction& f, int m) {
  std::vector<double> out(static_cast<std::size_t>(m) + 1);
  f.eval_row(m, out);
  return out;
}

struct SizeCase {
  int T;
  int m;
  std::uint64_t seed;
};

const SizeCase kSizes[] = {{7, 5, 11}, {23, 16, 12}, {9, 1, 13}, {40, 9, 14}};

// Decorator stack over random convex tables: Scaled(Stride(Padded(Table))),
// the chain produced by the Section-2.2/2.3 instance transforms.
Problem decorated_problem(rs::util::Rng& rng, int T, int m, int stride) {
  std::vector<CostPtr> fs;
  fs.reserve(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    auto table = std::make_shared<rs::core::TableCost>(
        rs::workload::random_convex_table(rng, m * stride));
    auto padded = std::make_shared<rs::core::PaddedCost>(table, m * stride);
    auto strided = std::make_shared<rs::core::StrideCost>(padded, stride);
    fs.push_back(std::make_shared<rs::core::ScaledCost>(strided, 0.5));
  }
  return Problem(m, 1.5, std::move(fs));
}

}  // namespace

// --- eval_row vs at, per family --------------------------------------------

TEST(EvalRow, MatchesAtForConcreteFamilies) {
  const int m = 17;
  auto fn = std::make_shared<const std::function<double(double)>>(
      [](double z) { return 0.25 + z * z; });
  const std::vector<CostPtr> functions = {
      std::make_shared<rs::core::TableCost>(
          std::vector<double>{3.0, 1.0, 2.5, 7.0}),  // shorter than m: extends
      std::make_shared<rs::core::AffineAbsCost>(0.75, 4.3, 0.2),
      std::make_shared<rs::core::QuadraticCost>(0.31, 6.7, 1.1),
      std::make_shared<rs::core::FunctionCost>(
          [](int x) { return static_cast<double>(x) * 0.1 + 2.0; }),
      std::make_shared<rs::core::RestrictedSlotCost>(fn, 4.7),
      std::make_shared<rs::core::RestrictedSlotCost>(fn, 0.0),
  };
  for (const CostPtr& f : functions) {
    EXPECT_EQ(row_by_eval(*f, m), row_by_at(*f, m)) << f->name();
    EXPECT_EQ(row_by_eval(*f, 0), row_by_at(*f, 0)) << f->name() << " m=0";
  }
}

TEST(EvalRow, MatchesAtThroughDecoratorChains) {
  rs::util::Rng rng(77);
  for (int stride : {1, 2, 3, 5, 7}) {  // bulk path (<=4) and gather path
    const int m = 12;
    auto table = std::make_shared<rs::core::TableCost>(
        rs::workload::random_convex_table(rng, m * stride + 3));
    auto padded = std::make_shared<rs::core::PaddedCost>(table, m * stride);
    auto strided = std::make_shared<rs::core::StrideCost>(padded, stride);
    auto scaled = std::make_shared<rs::core::ScaledCost>(strided, 1.0 / 3.0);
    EXPECT_EQ(row_by_eval(*scaled, m), row_by_at(*scaled, m))
        << "stride=" << stride;
    // Padding shorter than the requested row: the extension branch.
    auto short_padded = std::make_shared<rs::core::PaddedCost>(table, m / 2);
    EXPECT_EQ(row_by_eval(*short_padded, m), row_by_at(*short_padded, m));
  }
}

TEST(EvalRow, InfinitePrefixAndSuffixRows) {
  const std::vector<std::vector<double>> tables = {
      {kInf, kInf, 1.0, 2.0, 4.0},       // infeasible prefix
      {1.0, 2.0, kInf, kInf, kInf},      // infeasible suffix
      {kInf, kInf, kInf},                // all-infinite
      {kInf, 3.0, kInf},                 // single feasible state
  };
  for (const auto& values : tables) {
    const rs::core::TableCost f(values);
    const int m = static_cast<int>(values.size()) - 1;
    EXPECT_EQ(row_by_eval(f, m), row_by_at(f, m));
    EXPECT_EQ(row_by_eval(f, m + 4), row_by_at(f, m + 4));  // extension
  }
}

// --- DenseProblem ------------------------------------------------------------

TEST(DenseProblem, RowsMatchPerPointScans) {
  rs::util::Rng rng(5);
  for (rs::workload::InstanceFamily family :
       rs::workload::all_instance_families()) {
    for (const SizeCase& size : kSizes) {
      rs::util::Rng instance_rng(size.seed);
      const Problem p = rs::workload::random_instance(instance_rng, family,
                                                      size.T, size.m, 2.0);
      const DenseProblem eager(p);
      ASSERT_EQ(eager.horizon(), p.horizon());
      ASSERT_EQ(eager.max_servers(), p.max_servers());
      for (int t = 1; t <= p.horizon(); ++t) {
        const std::vector<double> expected = row_by_at(p.f(t), p.max_servers());
        const std::span<const double> eager_row = eager.row(t);
        for (int x = 0; x <= p.max_servers(); ++x) {
          EXPECT_EQ(eager_row[static_cast<std::size_t>(x)],
                    expected[static_cast<std::size_t>(x)]);
        }
      }
    }
  }
  (void)rng;
}

TEST(DenseProblem, EdgeCases) {
  // T = 0.
  const Problem empty(4, 1.0, {});
  const DenseProblem dense_empty(empty);
  EXPECT_EQ(dense_empty.horizon(), 0);
  EXPECT_EQ(rs::offline::DpSolver().solve(dense_empty).cost, 0.0);
  EXPECT_TRUE(rs::online::run_lcp_dense(dense_empty).empty());

  // m = 0: the single state 0.
  const Problem tiny = rs::core::make_table_problem(0, 1.0, {{2.0}, {3.0}});
  const DenseProblem dense_tiny(tiny);
  EXPECT_EQ(dense_tiny.max_servers(), 0);
  const rs::offline::OfflineResult r = rs::offline::DpSolver().solve(dense_tiny);
  EXPECT_EQ(r.schedule, Schedule({0, 0}));
  EXPECT_EQ(r.cost, 5.0);

  // All-infinite row: infeasible instance.
  const Problem infeasible = rs::core::make_table_problem(
      2, 1.0, {{1.0, 1.0, 1.0}, {kInf, kInf, kInf}});
  const DenseProblem dense_inf(infeasible);
  EXPECT_TRUE(std::isinf(rs::offline::DpSolver().solve(dense_inf).cost));
}

TEST(DenseProblem, TwoPhaseFillOnWorkersMatchesEager) {
  // An unfilled table whose rows are filled in uneven chunks, out of order
  // and on pool workers, then sealed, equals the eager table bit for bit:
  // rows and the NaN flag.
  rs::util::Rng rng(17);
  const Problem clean = rs::workload::random_instance(
      rng, rs::workload::InstanceFamily::kConvexTable, 29, 11, 2.0);
  std::vector<std::vector<double>> rows;
  for (int t = 1; t <= clean.horizon(); ++t) {
    rows.push_back(row_by_at(clean.f(t), clean.max_servers()));
  }
  std::vector<std::vector<double>> poisoned_rows = rows;
  poisoned_rows[23][4] = std::numeric_limits<double>::quiet_NaN();
  const Problem poisoned =
      rs::core::make_table_problem(clean.max_servers(), 2.0, poisoned_rows);

  rs::util::ThreadPool pool(3);
  constexpr std::size_t kChunk = 4;
  for (const Problem* p : {&clean, &poisoned}) {
    const DenseProblem eager(*p);
    DenseProblem filled(*p, DenseProblem::Unfilled{});
    const std::size_t rows_total = static_cast<std::size_t>(p->horizon());
    const std::size_t chunks = (rows_total + kChunk - 1) / kChunk;
    pool.parallel_for_dynamic(0, chunks, [&](std::size_t c) {
      const std::size_t first = (chunks - 1 - c) * kChunk;
      filled.fill_rows(*p, first, std::min(first + kChunk, rows_total));
    });
    filled.seal();
    EXPECT_EQ(filled.has_nan(), p == &poisoned);
    EXPECT_EQ(filled.has_nan(), eager.has_nan());
    for (int t = 1; t <= p->horizon(); ++t) {
      const std::span<const double> a = filled.row(t);
      const std::span<const double> b = eager.row(t);
      ASSERT_EQ(a.size(), b.size());
      EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size_bytes()), 0)
          << "row " << t;
    }
  }
}

// --- solver equivalence ------------------------------------------------------

TEST(DenseEquivalence, OfflineSolversMatchPerPointPathAcrossFamilies) {
  // β = 0.9 is not dyadic, so fl(fl(W(x) − βx) + βx) can fall below W(x):
  // a DP that relaxed from a different row than the cost-only DP and the
  // tracker would round its labels differently there.
  for (const double beta : {2.0, 0.9}) {
    for (rs::workload::InstanceFamily family :
         rs::workload::all_instance_families()) {
      for (const SizeCase& size : kSizes) {
        rs::util::Rng rng(size.seed ^ 0x9e3779b97f4a7c15ull);
        const Problem p =
            rs::workload::random_instance(rng, family, size.T, size.m, beta);
        const Problem q = per_point_view(p);
        const std::string label = rs::workload::family_name(family) + " T=" +
                                  std::to_string(size.T) +
                                  " m=" + std::to_string(size.m) +
                                  " beta=" + std::to_string(beta);

        const rs::offline::DpSolver dp;
        const rs::offline::OfflineResult dense_result = dp.solve(p);
        const rs::offline::OfflineResult per_point_result = dp.solve(q);
        EXPECT_EQ(dense_result.cost, per_point_result.cost) << label;
        EXPECT_EQ(dense_result.schedule, per_point_result.schedule) << label;
        EXPECT_EQ(dp.solve_cost(p), per_point_result.cost) << label;
        // Table-backed entry points agree with the streaming ones.
        const DenseProblem dense(p);
        EXPECT_EQ(dp.solve(dense).cost, dense_result.cost) << label;
        EXPECT_EQ(dp.solve(dense).schedule, dense_result.schedule) << label;
        EXPECT_EQ(dp.solve_cost(dense), dense_result.cost) << label;

        // The per-point view has no convex-PWL forms, so its low-memory
        // solve runs dense labels: bitwise the table's, and the same
        // schedule as the (possibly PWL-backed) original.
        const rs::offline::LowMemorySolver low_memory;
        // One dense step: the table's tracker labels are bitwise its DP
        // labels, so the cost equals the table DP's and the cost-only DP's
        // (both pinned to dense_result above).
        EXPECT_EQ(low_memory.solve(dense).cost, dense_result.cost) << label;
        EXPECT_EQ(low_memory.solve(dense).cost, low_memory.solve(q).cost)
            << label;
        EXPECT_EQ(low_memory.solve(dense).schedule,
                  low_memory.solve(q).schedule)
            << label;
        EXPECT_EQ(low_memory.solve(p).schedule, low_memory.solve(q).schedule)
            << label;
        EXPECT_NEAR(low_memory.solve(p).cost, low_memory.solve(q).cost,
                    1e-9 * std::max(1.0, low_memory.solve(q).cost))
            << label;

        const rs::offline::BackwardSolver backward;
        EXPECT_EQ(backward.solve(p).cost, backward.solve(q).cost) << label;
        EXPECT_EQ(backward.solve(p).schedule, backward.solve(q).schedule)
            << label;

        const rs::offline::BinarySearchSolver binary_search;
        EXPECT_EQ(binary_search.solve(p).cost, binary_search.solve(q).cost)
            << label;
        EXPECT_EQ(binary_search.solve(p).schedule,
                  binary_search.solve(q).schedule)
            << label;

        EXPECT_EQ(rs::offline::solve_phi_restricted(p, 1).cost,
                  rs::offline::solve_phi_restricted(q, 1).cost)
            << label;
      }
    }
  }
}

TEST(DenseEquivalence, BruteForceMatchesPerPointPath) {
  rs::util::Rng rng(31);
  const Problem p = rs::workload::random_instance(
      rng, rs::workload::InstanceFamily::kConvexTable, 6, 4, 2.0);
  const Problem q = per_point_view(p);
  const rs::offline::BruteForceSolver brute;
  EXPECT_EQ(brute.solve(p).cost, brute.solve(q).cost);
  EXPECT_EQ(brute.solve(p).schedule, brute.solve(q).schedule);
}

TEST(DenseEquivalence, OnlineAlgorithmsMatchPerPointPath) {
  for (rs::workload::InstanceFamily family :
       rs::workload::all_instance_families()) {
    for (const SizeCase& size : kSizes) {
      rs::util::Rng rng(size.seed ^ 0xc2b2ae3d27d4eb4full);
      const Problem p =
          rs::workload::random_instance(rng, family, size.T, size.m, 2.0);
      const Problem q = per_point_view(p);
      const std::string label = rs::workload::family_name(family) + " T=" +
                                std::to_string(size.T) +
                                " m=" + std::to_string(size.m);

      rs::online::Lcp lcp_dense;
      rs::online::Lcp lcp_per_point;
      const Schedule dense_schedule = rs::online::run_online(lcp_dense, p);
      const Schedule per_point_schedule =
          rs::online::run_online(lcp_per_point, q);
      EXPECT_EQ(dense_schedule, per_point_schedule) << label;

      // Table-backed replay agrees too.
      const DenseProblem table(p);
      EXPECT_EQ(rs::online::run_lcp_dense(table), dense_schedule) << label;

      // Pinned to the dense backend on both sides: this suite isolates the
      // dense-row-vs-per-point evaluation layer.  (Auto would take the
      // convex-PWL pass for p but not for the FunctionCost-wrapped q, and
      // on exact-tie instances the windowed corridor may tie-break
      // differently across backends — see DESIGN.md §8; the cross-backend
      // equivalence suite lives in test_convex_pwl.cpp.)
      rs::online::Lcp windowed_dense(
          rs::offline::WorkFunctionTracker::Backend::kDense);
      rs::online::Lcp windowed_per_point(
          rs::offline::WorkFunctionTracker::Backend::kDense);
      EXPECT_EQ(rs::online::run_online(windowed_dense, p, /*window=*/3),
                rs::online::run_online(windowed_per_point, q, /*window=*/3))
          << label;
    }
  }
}

TEST(DenseEquivalence, DecoratedInstancesMatchPerPointPath) {
  rs::util::Rng rng(41);
  for (int stride : {1, 2, 5}) {
    const Problem p = decorated_problem(rng, 12, 10, stride);
    const Problem q = per_point_view(p);
    const rs::offline::DpSolver dp;
    EXPECT_EQ(dp.solve(p).cost, dp.solve(q).cost) << "stride=" << stride;
    EXPECT_EQ(dp.solve(p).schedule, dp.solve(q).schedule)
        << "stride=" << stride;
    rs::online::Lcp lcp_dense;
    rs::online::Lcp lcp_per_point;
    EXPECT_EQ(rs::online::run_online(lcp_dense, p),
              rs::online::run_online(lcp_per_point, q))
        << "stride=" << stride;
  }
}

TEST(DenseEquivalence, MaterializeUsesEvalRowValues) {
  rs::util::Rng rng(51);
  const Problem p = rs::workload::random_instance(
      rng, rs::workload::InstanceFamily::kConstrained, 10, 7, 2.0);
  const Problem materialized = rs::core::materialize(p);
  for (int t = 1; t <= p.horizon(); ++t) {
    EXPECT_EQ(row_by_at(materialized.f(t), p.max_servers()),
              row_by_at(p.f(t), p.max_servers()));
  }
}
