// Batch solver engine and workspace arenas.
//
// The engine's contract: batch outcomes are bit-identical to sequential
// solo solves for every solver kind and generator family, deterministic
// under any thread count, and — after one warm-up batch — allocation-free
// out of the per-thread workspace arenas.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "mixed_form_instance.hpp"
#include "rightsizer/rightsizer.hpp"

namespace {

using rs::core::DenseProblem;
using rs::core::Problem;
using rs::core::Schedule;
using rs::engine::BatchResult;
using rs::engine::SolveJob;
using rs::engine::SolverEngine;
using rs::engine::SolverKind;

const SolverKind kAllKinds[] = {SolverKind::kDpCost, SolverKind::kDpSchedule,
                                SolverKind::kLcp, SolverKind::kLowMemory};

// A small fleet of instances across every generator family, plus
// FunctionCost-wrapped copies that have no convex-PWL form: the engine's
// automatic backend selection must serve both (PWL path without tables /
// dense path with shared tables) in one batch.
std::vector<Problem> fleet_instances() {
  std::vector<Problem> instances;
  std::uint64_t seed = 71;
  for (rs::workload::InstanceFamily family :
       rs::workload::all_instance_families()) {
    rs::util::Rng rng(seed++);
    instances.push_back(
        rs::workload::random_instance(rng, family, 13, 9, 2.0));
    rs::util::Rng rng2(seed++);
    instances.push_back(
        rs::workload::random_instance(rng2, family, 6, 4, 1.5));
  }
  {
    rs::util::Rng rng(seed++);
    const Problem p = rs::workload::random_instance(
        rng, rs::workload::InstanceFamily::kConvexTable, 9, 6, 2.0);
    std::vector<rs::core::CostPtr> opaque;
    for (int t = 1; t <= p.horizon(); ++t) {
      opaque.push_back(std::make_shared<rs::core::FunctionCost>(
          [f = p.f_ptr(t)](int x) { return f->at(x); }, "opaque"));
    }
    instances.emplace_back(p.max_servers(), p.beta(), std::move(opaque));
  }
  return instances;
}

std::vector<SolveJob> fleet_jobs(const std::vector<Problem>& instances) {
  std::vector<SolveJob> jobs;
  for (const Problem& p : instances) {
    for (SolverKind kind : kAllKinds) {
      jobs.push_back(SolveJob{&p, nullptr, kind});
    }
  }
  return jobs;
}

// The sequential solo reference for one job, through the library's plain
// entry points (streaming per-instance paths) under the engine's
// documented backend selection: DP jobs on instances admitting a compact
// convex-PWL form run Backend::kConvexAuto; LCP replays select the same
// way on their own inside the work-function tracker.
rs::engine::SolveOutcome solo_solve(const Problem& p, SolverKind kind) {
  const bool admits = rs::core::admits_compact_pwl(p);
  const rs::offline::DpSolver dp(
      admits ? rs::offline::DpSolver::Backend::kConvexAuto
             : rs::offline::DpSolver::Backend::kDense);
  rs::engine::SolveOutcome outcome;
  switch (kind) {
    case SolverKind::kDpCost:
      outcome.cost = dp.solve_cost(p);
      break;
    case SolverKind::kDpSchedule: {
      const rs::offline::OfflineResult r = dp.solve(p);
      outcome.cost = r.cost;
      outcome.schedule = r.schedule;
      break;
    }
    case SolverKind::kLcp: {
      rs::online::Lcp lcp;
      outcome.schedule = rs::online::run_online(lcp, p);
      outcome.cost = rs::core::total_cost(p, outcome.schedule);
      break;
    }
    case SolverKind::kLowMemory: {
      const rs::offline::OfflineResult r =
          rs::offline::LowMemorySolver().solve(p);
      outcome.cost = r.cost;
      outcome.schedule = r.schedule;
      break;
    }
    case SolverKind::kDeltaResolve:
      // Delta jobs carry an edit; this solo reference never issues one.
      ADD_FAILURE() << "solo_solve has no kDeltaResolve reference";
      break;
  }
  return outcome;
}

}  // namespace

// --- workspace ---------------------------------------------------------------

TEST(Workspace, ReusesBuffersAfterWarmUp) {
  rs::util::Workspace workspace;
  const auto base = workspace.stats();
  {
    auto a = workspace.borrow<double>(100);
    EXPECT_EQ(a.size(), 100u);
    a[0] = 1.0;
    a[99] = 2.0;
  }
  auto warm = workspace.stats();
  EXPECT_EQ(warm.borrows - base.borrows, 1u);
  EXPECT_EQ(warm.growths - base.growths, 1u);
  EXPECT_EQ(warm.pooled_buffers, 1u);
  {
    auto b = workspace.borrow<double>(80);  // fits in the pooled buffer
    EXPECT_EQ(b.size(), 80u);
  }
  auto after = workspace.stats();
  EXPECT_EQ(after.borrows - warm.borrows, 1u);
  EXPECT_EQ(after.growths, warm.growths) << "warm borrow must not allocate";
}

TEST(Workspace, BestFitAcrossMixedShapes) {
  rs::util::Workspace workspace;
  {
    auto small = workspace.borrow<double>(10);
    auto large = workspace.borrow<double>(1000);
  }
  const auto warm = workspace.stats();
  EXPECT_EQ(warm.pooled_buffers, 2u);
  {
    // Both shapes again, in the opposite order: best-fit keeps each shape
    // on its own pooled buffer, so neither borrow grows.
    auto large = workspace.borrow<double>(1000);
    auto small = workspace.borrow<double>(10);
  }
  EXPECT_EQ(workspace.stats().growths, warm.growths);
}

TEST(Workspace, ClearReleasesPooledBuffers) {
  rs::util::Workspace workspace;
  { auto a = workspace.borrow<std::int32_t>(64); }
  EXPECT_GT(workspace.stats().pooled_buffers, 0u);
  workspace.clear();
  EXPECT_EQ(workspace.stats().pooled_buffers, 0u);
  EXPECT_EQ(workspace.stats().pooled_bytes, 0u);
}

// --- batch equivalence -------------------------------------------------------

TEST(SolverEngine, BatchMatchesSoloSolvesAcrossKindsAndFamilies) {
  const std::vector<Problem> instances = fleet_instances();
  const std::vector<SolveJob> jobs = fleet_jobs(instances);

  const SolverEngine engine;  // global pool, shared dense tables
  const BatchResult batch = engine.run(jobs);
  ASSERT_EQ(batch.outcomes.size(), jobs.size());
  EXPECT_EQ(batch.stats.jobs, jobs.size());
  // Tables are materialized only for instances that do not admit the
  // convex-PWL backend; PWL-served jobs are counted in pwl_backed, and
  // each admitting instance is converted exactly once per batch (one
  // as_convex_pwl per slot, shared by all four of its jobs).
  std::size_t expected_tables = 0;
  std::size_t expected_pwl_jobs = 0;
  std::size_t expected_conversions = 0;
  for (const Problem& p : instances) {
    if (rs::core::admits_compact_pwl(p)) {
      expected_pwl_jobs += 4;  // every kind, kLowMemory included
      expected_conversions += static_cast<std::size_t>(p.horizon());
    } else {
      ++expected_tables;
    }
  }
  EXPECT_GT(expected_tables, 0u);   // the fleet covers the dense path...
  EXPECT_GT(expected_pwl_jobs, 0u);  // ...and the PWL path
  EXPECT_EQ(batch.stats.dense_tables_built, expected_tables);
  EXPECT_EQ(batch.stats.pwl_backed, expected_pwl_jobs);
  EXPECT_EQ(batch.stats.pwl_conversions, expected_conversions);

  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const rs::engine::SolveOutcome expected =
        solo_solve(*jobs[i].problem, jobs[i].kind);
    EXPECT_EQ(batch.outcomes[i].cost, expected.cost) << "job " << i;
    EXPECT_EQ(batch.outcomes[i].schedule, expected.schedule) << "job " << i;
  }
}

TEST(SolverEngine, DeterministicUnderThreadCountVariation) {
  const std::vector<Problem> instances = fleet_instances();
  const std::vector<SolveJob> jobs = fleet_jobs(instances);

  const BatchResult inline_run = SolverEngine({.threads = 1}).run(jobs);
  for (std::size_t threads : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
    const SolverEngine engine({.threads = threads});
    const BatchResult parallel_run = engine.run(jobs);
    ASSERT_EQ(parallel_run.outcomes.size(), inline_run.outcomes.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(parallel_run.outcomes[i].cost, inline_run.outcomes[i].cost)
          << "threads=" << threads << " job " << i;
      EXPECT_EQ(parallel_run.outcomes[i].schedule,
                inline_run.outcomes[i].schedule)
          << "threads=" << threads << " job " << i;
    }
  }
}

TEST(SolverEngine, AcceptsPreBuiltDenseTables) {
  rs::util::Rng rng(5);
  const Problem p = rs::workload::random_instance(
      rng, rs::workload::InstanceFamily::kQuadratic, 11, 7, 2.0);
  const auto dense = std::make_shared<const DenseProblem>(p);
  const std::vector<SolveJob> jobs = {
      SolveJob{nullptr, dense, SolverKind::kDpCost},
      SolveJob{nullptr, dense, SolverKind::kLcp},
  };
  const BatchResult batch = SolverEngine({.threads = 1}).run(jobs);
  EXPECT_EQ(batch.stats.dense_tables_built, 0u);  // caller's table reused
  EXPECT_EQ(batch.outcomes[0].cost, rs::offline::DpSolver().solve_cost(p));
  EXPECT_EQ(batch.outcomes[1].schedule, rs::online::run_lcp_dense(*dense));
}

TEST(SolverEngine, ValidatesJobs) {
  const SolverEngine engine({.threads = 1});
  EXPECT_THROW(engine.run({SolveJob{}}), std::invalid_argument);
  rs::util::Rng rng(6);
  const Problem p = rs::workload::random_instance(
      rng, rs::workload::InstanceFamily::kConvexTable, 4, 3, 1.0);
  const auto dense = std::make_shared<const DenseProblem>(p);
  // kLowMemory runs from a table alone, like every other table kind: the
  // same corridor (so the same schedule) as the streamed Problem, and the
  // table's own labels for the cost.
  const BatchResult table_run =
      engine.run({SolveJob{nullptr, dense, SolverKind::kLowMemory}});
  ASSERT_TRUE(table_run.outcomes[0].ok()) << table_run.outcomes[0].error;
  EXPECT_EQ(table_run.outcomes[0].schedule,
            rs::offline::LowMemorySolver().solve(p).schedule);
  EXPECT_EQ(table_run.outcomes[0].cost,
            rs::offline::LowMemorySolver().solve(*dense).cost);
  EXPECT_EQ(table_run.stats.dense_tables_built, 0u);
  // Empty batches are legal and report zero throughput.
  const BatchResult empty = engine.run(std::vector<SolveJob>{});
  EXPECT_TRUE(empty.outcomes.empty());
  EXPECT_EQ(empty.stats.jobs, 0u);
}

TEST(SolverEngine, HandlesEdgeInstances) {
  const Problem empty(4, 1.0, {});
  const Problem tiny = rs::core::make_table_problem(0, 1.0, {{2.0}, {3.0}});
  const std::vector<SolveJob> jobs = {
      SolveJob{&empty, nullptr, SolverKind::kDpSchedule},
      SolveJob{&tiny, nullptr, SolverKind::kDpSchedule},
      SolveJob{&tiny, nullptr, SolverKind::kLcp},
  };
  const BatchResult batch = SolverEngine({.threads = 1}).run(jobs);
  EXPECT_EQ(batch.outcomes[0].cost, 0.0);
  EXPECT_TRUE(batch.outcomes[0].schedule.empty());
  EXPECT_EQ(batch.outcomes[1].cost, 5.0);
  EXPECT_EQ(batch.outcomes[1].schedule, Schedule({0, 0}));
  EXPECT_EQ(batch.outcomes[2].schedule, Schedule({0, 0}));
}

TEST(SolverEngine, LowMemoryStreamsMixedFormInstances) {
  // Instances whose leading slots have compact convex-PWL forms
  // (AffineAbsCost) but whose later slots are opaque M/M/1 restricted
  // costs: no compact form overall, so the batch builds each a shared
  // table, and kLowMemory reads it.  Its outcome must still equal the
  // LowMemorySolver solo solve on the Problem bitwise: that solve resolves
  // kAuto over the whole instance and runs dense labels from slot 1, as the
  // table's pass does.  A per-slot choice would run PWL labels over the
  // leading slots instead, and on seeds 21, 78, 86 and 168 its cost
  // differs from the table's in the last bits, so this test fails if
  // either side goes back to choosing per slot.
  std::vector<Problem> instances;
  for (const std::uint64_t seed : {0u, 21u, 78u, 86u, 168u}) {
    instances.push_back(rs::test_support::mixed_form_instance(seed));
    ASSERT_TRUE(instances.back().f(1).as_convex_pwl(
        instances.back().max_servers()));
    ASSERT_FALSE(rs::core::admits_compact_pwl(instances.back()));
  }

  const auto expect_streamed = [&](const std::vector<SolveJob>& jobs,
                                   const BatchResult& batch) {
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      ASSERT_TRUE(batch.outcomes[i].ok()) << batch.outcomes[i].error;
      if (jobs[i].kind != SolverKind::kLowMemory) continue;
      const rs::offline::OfflineResult streamed =
          rs::offline::LowMemorySolver().solve(*jobs[i].problem);
      EXPECT_EQ(batch.outcomes[i].cost, streamed.cost) << "job " << i;
      EXPECT_EQ(batch.outcomes[i].schedule, streamed.schedule) << "job " << i;
    }
  };

  const std::vector<SolveJob> mixed = fleet_jobs(instances);
  for (std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    SCOPED_TRACE(threads);
    const BatchResult batch = SolverEngine({.threads = threads}).run(mixed);
    EXPECT_EQ(batch.stats.dense_tables_built, instances.size());
    EXPECT_EQ(batch.stats.pwl_backed, 0u);
    expect_streamed(mixed, batch);
  }

  // A batch of only kLowMemory jobs keeps the O(m + T) contract: no table.
  std::vector<SolveJob> low_memory_only;
  for (const Problem& p : instances) {
    low_memory_only.push_back(SolveJob{&p, nullptr, SolverKind::kLowMemory});
  }
  const BatchResult alone = SolverEngine({.threads = 2}).run(low_memory_only);
  EXPECT_EQ(alone.stats.dense_tables_built, 0u);
  expect_streamed(low_memory_only, alone);
}

TEST(SolverEngine, SharedPassesMatchSoloSolves) {
  // Jobs on one instance share its DP pass (kDpCost, kDpSchedule) and its
  // corridor pass (kLcp, kLowMemory); a restricted M/M/1 instance's
  // kLowMemory reads the table its siblings caused.  Whatever the mix, the
  // duplicates, the job order and the thread count, every outcome must be
  // bitwise its solo call: the job alone in a batch, and the library's
  // plain entry point on the same form.
  std::vector<Problem> instances;
  for (int i = 0; i < 3; ++i) {
    rs::util::Rng rng(900 + static_cast<std::uint64_t>(i));
    rs::dcsim::DataCenterModel model;
    model.servers = 12 + 10 * i;
    const rs::workload::Trace trace =
        rs::workload::hotmail_like(rng, 1, 40, 0.6 * model.servers);
    instances.push_back(rs::dcsim::restricted_datacenter_problem(model, trace));
    ASSERT_FALSE(instances.back().f(1).as_convex_pwl(model.servers));
  }
  {
    rs::util::Rng rng(77);
    instances.push_back(rs::workload::random_instance(
        rng, rs::workload::InstanceFamily::kQuadratic, 14, 9, 2.0));
    std::vector<rs::core::CostPtr> hinges;
    for (int t = 0; t < 20; ++t) {
      hinges.push_back(std::make_shared<rs::core::AffineAbsCost>(
          static_cast<double>(rng.uniform_int(1, 3)),
          static_cast<double>(rng.uniform_int(0, 10)), 0.0));
    }
    instances.emplace_back(10, 3.0, std::move(hinges));
    ASSERT_TRUE(rs::core::admits_compact_pwl(instances.back()));
  }
  {
    // A table-routed draw with a non-dyadic β (m = 59, β ≈ 0.635): a DP
    // pass whose labels round differently from the cost-only DP's would
    // hand its kDpCost member other bits than a solo kDpCost job.
    rs::util::Rng rng(380112);
    const int m = 8 + static_cast<int>(rng.uniform_int(0, 120));
    const double beta = rng.uniform(0.3, 5.0);
    instances.push_back(rs::workload::random_instance(
        rng, rs::workload::InstanceFamily::kConvexTable, 48, m, beta));
    ASSERT_FALSE(rs::core::admits_compact_pwl(instances.back()));
  }
  const std::shared_ptr<const DenseProblem> caller_table =
      std::make_shared<const DenseProblem>(instances[1]);
  const std::shared_ptr<const DenseProblem> caller_only_table =
      std::make_shared<const DenseProblem>(instances[3]);

  std::vector<SolveJob> jobs;
  for (const Problem& p : instances) {
    for (SolverKind kind : kAllKinds) {
      jobs.push_back(SolveJob{&p, nullptr, kind});
      jobs.push_back(SolveJob{&p, nullptr, kind});  // a duplicate kind
    }
  }
  for (SolverKind kind : kAllKinds) {
    jobs.push_back(SolveJob{&instances[1], caller_table, kind});
    jobs.push_back(SolveJob{nullptr, caller_only_table, kind});
  }
  // Lone kinds: a pass with one member is the plain per-job solve.
  jobs.push_back(SolveJob{&instances[2],
                          std::make_shared<const DenseProblem>(instances[2]),
                          SolverKind::kLowMemory});
  rs::util::Rng order(4242);
  std::shuffle(jobs.begin(), jobs.end(), order);

  // The library reference for one job: the form the engine serves it from.
  const auto reference = [](const SolveJob& job) {
    if (job.dense == nullptr) return solo_solve(*job.problem, job.kind);
    const DenseProblem& dense = *job.dense;
    rs::engine::SolveOutcome out;
    switch (job.kind) {
      case SolverKind::kDpCost:
        out.cost = rs::offline::DpSolver().solve_cost(dense);
        break;
      case SolverKind::kDpSchedule: {
        rs::offline::OfflineResult r = rs::offline::DpSolver().solve(dense);
        out.cost = r.cost;
        out.schedule = std::move(r.schedule);
        break;
      }
      case SolverKind::kLcp:
        out.schedule = rs::online::run_lcp(dense);
        out.cost = rs::core::total_cost(dense, out.schedule);
        break;
      case SolverKind::kLowMemory: {
        rs::offline::OfflineResult r =
            rs::offline::LowMemorySolver().solve(dense);
        out.cost = r.cost;
        out.schedule = std::move(r.schedule);
        break;
      }
      case SolverKind::kDeltaResolve:
        ADD_FAILURE() << "no kDeltaResolve reference";
        break;
    }
    return out;
  };

  const SolverEngine inline_engine({.threads = 1});
  for (std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    const BatchResult batch = SolverEngine({.threads = threads}).run(jobs);
    ASSERT_EQ(batch.outcomes.size(), jobs.size());
    EXPECT_EQ(batch.stats.failed_jobs, 0u);
    // Tables for the restricted, quadratic and convex-table instances; the
    // hinge one is PWL-routed; kLowMemory and the callers' tables cause
    // none.
    EXPECT_EQ(batch.stats.dense_tables_built, 5u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const BatchResult solo = inline_engine.run({jobs[i]});
      const rs::engine::SolveOutcome want = reference(jobs[i]);
      const rs::engine::SolveOutcome& got = batch.outcomes[i];
      ASSERT_TRUE(got.ok()) << "job " << i << ": " << got.error;
      EXPECT_EQ(solo.outcomes[0].cost, want.cost) << "job " << i;
      EXPECT_EQ(solo.outcomes[0].schedule, want.schedule) << "job " << i;
      EXPECT_EQ(got.cost, want.cost) << "job " << i;  // bitwise (EQ)
      EXPECT_EQ(got.schedule, want.schedule) << "job " << i;
    }
  }
}

TEST(SolverEngine, RejectsTablesThatDifferFromTheirProblem) {
  rs::util::Rng rng(8);
  const Problem p = rs::workload::random_instance(
      rng, rs::workload::InstanceFamily::kConvexTable, 6, 4, 2.0);
  const auto table_of = [&](int horizon, int m, double beta) {
    return std::make_shared<const DenseProblem>(rs::workload::random_instance(
        rng, rs::workload::InstanceFamily::kConvexTable, horizon, m, beta));
  };
  const SolverEngine engine({.threads = 1});
  const BatchResult matching =
      engine.run({SolveJob{&p, table_of(6, 4, 2.0), SolverKind::kLcp}});
  EXPECT_TRUE(matching.outcomes[0].ok()) << matching.outcomes[0].error;
  const std::vector<std::pair<const char*, std::shared_ptr<const DenseProblem>>>
      mismatched = {{"T", table_of(5, 4, 2.0)},
                    {"m", table_of(6, 5, 2.0)},
                    {"beta", table_of(6, 4, 1.5)}};
  for (const auto& [field, table] : mismatched) {
    for (SolverKind kind : kAllKinds) {
      EXPECT_THROW(engine.run({SolveJob{&p, table, kind}}),
                   std::invalid_argument)
          << field << " kind " << static_cast<int>(kind);
    }
  }
}

// --- warm arenas -------------------------------------------------------------

TEST(SolverEngine, SecondBatchRunsAllocationFree) {
  const std::vector<Problem> instances = fleet_instances();
  const std::vector<SolveJob> jobs = fleet_jobs(instances);

  // Inline engine: every solve runs on this thread, so the warm-arena
  // property is deterministic (no dependence on which pool worker got
  // which job).
  const SolverEngine engine({.threads = 1});
  const BatchResult cold = engine.run(jobs);   // warms the arenas
  const BatchResult warm = engine.run(jobs);   // must not allocate scratch
  EXPECT_EQ(warm.stats.workspace_growths, 0u)
      << "second batch re-grew workspace buffers (cold batch grew "
      << cold.stats.workspace_growths << ")";
  EXPECT_TRUE(warm.stats.allocation_free());
  // And it still produces the same answers.
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(warm.outcomes[i].cost, cold.outcomes[i].cost);
  }
}

// --- harness integration -----------------------------------------------------

TEST(SolverEngine, ForEachReportsBatchStats) {
  const SolverEngine engine({.threads = 1});
  std::vector<int> hits(16, 0);
  rs::engine::BatchStats stats;
  engine.for_each(hits.size(), [&hits](std::size_t i) { ++hits[i]; }, &stats);
  EXPECT_EQ(stats.jobs, hits.size());
  EXPECT_EQ(stats.threads, 1u);
  for (int h : hits) EXPECT_EQ(h, 1);
  EXPECT_THROW(engine.for_each(1, nullptr), std::invalid_argument);
}

TEST(SolverEngine, ThreadsCountsTheCallingThread) {
  // parallel_for_dynamic drains work on the calling thread beside the
  // pool's workers, so a pooled batch runs on workers + 1 threads.
  EXPECT_EQ(SolverEngine({.threads = 1}).threads(), 1u);
  EXPECT_EQ(SolverEngine({.threads = 3}).threads(), 4u);
  EXPECT_EQ(SolverEngine().threads(), rs::util::global_pool().size() + 1);
  const SolverEngine engine({.threads = 2});
  std::mutex mutex;
  std::set<std::thread::id> ran_on;
  rs::engine::BatchStats stats;
  engine.for_each(
      64,
      [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        const std::lock_guard<std::mutex> lock(mutex);
        ran_on.insert(std::this_thread::get_id());
      },
      &stats);
  EXPECT_EQ(stats.threads, 3u);
  EXPECT_LE(ran_on.size(), stats.threads);
}

TEST(SolverEngine, ForEachTimedFillsPerItemSeconds) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    const SolverEngine engine({.threads = threads});
    std::vector<int> hits(12, 0);
    std::vector<double> seconds(12, -1.0);
    rs::engine::BatchStats stats;
    engine.for_each_timed(
        hits.size(), [&hits](std::size_t i) { ++hits[i]; }, seconds, &stats);
    EXPECT_EQ(stats.jobs, hits.size());
    for (int h : hits) EXPECT_EQ(h, 1);
    for (double s : seconds) EXPECT_GE(s, 0.0);  // every slot written
  }
  const SolverEngine engine({.threads = 1});
  std::vector<double> seconds(2, 0.0);
  EXPECT_THROW(engine.for_each_timed(2, nullptr, seconds),
               std::invalid_argument);
  EXPECT_THROW(
      engine.for_each_timed(4, [](std::size_t) {}, seconds),
      std::invalid_argument);  // seconds span shorter than n
}

TEST(SweepRunner, EngineRunRecordsStatsAndMatchesDefaultRun) {
  const auto points = rs::analysis::grid({{"i", {"0", "1", "2", "3"}}});
  const auto eval = [](std::size_t i) {
    return rs::analysis::SweepRow{{"twice", 2.0 * static_cast<double>(i)}};
  };
  rs::analysis::SweepRunner plain(points, eval);
  plain.run(false);
  rs::analysis::SweepRunner engined(points, eval);
  engined.run(SolverEngine({.threads = 2}));
  ASSERT_EQ(plain.rows().size(), engined.rows().size());
  for (std::size_t i = 0; i < plain.rows().size(); ++i) {
    EXPECT_EQ(plain.rows()[i], engined.rows()[i]);
  }
  EXPECT_EQ(engined.stats().jobs, points.size());
  EXPECT_EQ(engined.stats().threads, 3u);  // 2 workers + the caller
  EXPECT_EQ(plain.stats().jobs, points.size());
}

TEST(MonteCarlo, DenseOverloadMatchesProblemOverloadAndReportsBatch) {
  rs::util::Rng rng(17);
  const Problem p = rs::workload::random_instance(
      rng, rs::workload::InstanceFamily::kQuadratic, 12, 8, 2.0);
  const auto trial = [](std::uint64_t seed) {
    return static_cast<double>(seed % 7) + 1.0;
  };
  const auto a = rs::analysis::monte_carlo(p, 32, 9, trial);
  const DenseProblem dense(p);
  const auto b = rs::analysis::monte_carlo(dense, 32, 9, trial);
  EXPECT_EQ(a.optimal_cost, b.optimal_cost);
  EXPECT_EQ(a.cost.mean, b.cost.mean);
  EXPECT_EQ(a.batch.jobs, 32u);
}

TEST(MeasureRatio, SharedDenseOverloadMatches) {
  rs::util::Rng rng(23);
  const Problem p = rs::workload::random_instance(
      rng, rs::workload::InstanceFamily::kConvexTable, 15, 10, 2.0);
  rs::online::Lcp lcp_a;
  const rs::analysis::RatioReport plain = rs::analysis::measure_ratio(lcp_a, p);
  const DenseProblem dense(p);
  rs::online::Lcp lcp_b;
  const rs::analysis::RatioReport shared =
      rs::analysis::measure_ratio(lcp_b, p, dense);
  EXPECT_EQ(plain.algorithm_cost, shared.algorithm_cost);
  EXPECT_EQ(plain.optimal_cost, shared.optimal_cost);
  EXPECT_EQ(plain.ratio, shared.ratio);
}
