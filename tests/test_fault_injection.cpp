// Seeded fault injection and per-job fault isolation.
//
// The isolation acceptance criterion (DESIGN.md §10): a batch with injected
// faults completes with exactly the predicted jobs failed — correct typed
// status, everything else bit-identical to the clean batch.  Because every
// fault trigger is a pure function of (seed, site, index), the tests
// *predict* the casualty set up front and assert it exactly.
//
// The suite derives its seeds from RIGHTSIZER_FAULT_BASE_SEED when set (CI
// rotates it per run, widening coverage over time) and falls back to a
// fixed smoke seed, so a red CI run reproduces locally by exporting the
// printed seed.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/cost_function.hpp"
#include "core/problem.hpp"
#include "core/schedule.hpp"
#include "dcsim/cost_model.hpp"
#include "engine/solver_engine.hpp"
#include "offline/backward_solver.hpp"
#include "offline/binary_search_solver.hpp"
#include "offline/bounded_dp.hpp"
#include "offline/brute_force.hpp"
#include "offline/dp_solver.hpp"
#include "offline/graph_solver.hpp"
#include "offline/low_memory_solver.hpp"
#include "offline/work_function.hpp"
#include "online/lcp.hpp"
#include "online/online_algorithm.hpp"
#include "scenario/fault_plan.hpp"
#include "scenario/rle.hpp"
#include "util/fault_injection.hpp"
#include "util/math_util.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"
#include "workload/random_instance.hpp"

#include "counting_cost.hpp"

namespace {

using rs::core::Problem;
using rs::engine::BatchResult;
using rs::engine::SolveJob;
using rs::engine::SolveOutcome;
using rs::engine::SolveStatus;
using rs::engine::SolverEngine;
using rs::engine::SolverKind;
using rs::scenario::FaultPlan;
using rs::scenario::PoisonKind;
using rs::util::FaultInjector;
using rs::util::FaultSite;
using rs::util::ScopedFaultInjection;

// Base seed for the randomized sweeps: CI rotates it via the environment,
// local runs use the fixed smoke seed.  Strict parsing — a malformed CI
// value aborts the suite instead of silently re-sweeping the smoke seed.
std::uint64_t base_seed() {
  return rs::util::env_fault_base_seed(0xC0FFEEull);
}

// Integer-valued hinge instance: admits compact convex-PWL forms AND its
// dense and PWL solves agree bitwise (integer arithmetic is exact on both
// backends), so degraded-to-dense outcomes can be compared bit-for-bit
// against PWL-backed ones.
Problem integer_hinge_problem(int m, double beta, int horizon,
                              std::uint64_t seed) {
  rs::util::Rng rng(seed);
  std::vector<rs::core::CostPtr> fs;
  fs.reserve(static_cast<std::size_t>(horizon));
  for (int t = 0; t < horizon; ++t) {
    const double center = static_cast<double>(rng.uniform_int(0, m));
    const double slope = static_cast<double>(rng.uniform_int(1, 3));
    fs.push_back(std::make_shared<rs::core::AffineAbsCost>(slope, center, 0.0));
  }
  return Problem(m, beta, std::move(fs));
}

Problem table_problem(int m, double beta, int horizon, std::uint64_t seed) {
  rs::util::Rng rng(seed);
  return rs::workload::random_instance(
      rng, rs::workload::InstanceFamily::kConvexTable, horizon, m, beta);
}

void expect_outcome_bitwise(const SolveOutcome& got, const SolveOutcome& want,
                            std::size_t job) {
  EXPECT_EQ(got.status, want.status) << "job " << job;
  EXPECT_EQ(got.cost, want.cost) << "job " << job;  // bitwise (EQ, not NEAR)
  EXPECT_EQ(got.schedule, want.schedule) << "job " << job;
  EXPECT_EQ(got.error, want.error) << "job " << job;
}

// ---------------------------------------------------------------------------
// env_fault_base_seed — strict full-string parsing of the CI rotation knob
// ---------------------------------------------------------------------------

// RAII guard: sets RIGHTSIZER_FAULT_BASE_SEED for one test and restores the
// prior value afterwards, so the sweeps below keep seeing the CI seed.
class ScopedSeedEnv {
 public:
  explicit ScopedSeedEnv(const char* value) {
    if (const char* prev = std::getenv(kVar)) {
      saved_ = prev;
      had_ = true;
    }
    if (value == nullptr) {
      ::unsetenv(kVar);
    } else {
      ::setenv(kVar, value, 1);
    }
  }
  ~ScopedSeedEnv() {
    if (had_) {
      ::setenv(kVar, saved_.c_str(), 1);
    } else {
      ::unsetenv(kVar);
    }
  }
  ScopedSeedEnv(const ScopedSeedEnv&) = delete;
  ScopedSeedEnv& operator=(const ScopedSeedEnv&) = delete;

 private:
  static constexpr const char* kVar = "RIGHTSIZER_FAULT_BASE_SEED";
  std::string saved_;
  bool had_ = false;
};

TEST(EnvFaultBaseSeed, UnsetUsesFallback) {
  const ScopedSeedEnv env(nullptr);
  EXPECT_EQ(rs::util::env_fault_base_seed(0xC0FFEEull), 0xC0FFEEull);
}

TEST(EnvFaultBaseSeed, ParsesDecimalUint64) {
  const ScopedSeedEnv env("12345");
  EXPECT_EQ(rs::util::env_fault_base_seed(7), 12345ull);
}

TEST(EnvFaultBaseSeed, ParsesMaxUint64) {
  const ScopedSeedEnv env("18446744073709551615");
  EXPECT_EQ(rs::util::env_fault_base_seed(7), 0xFFFFFFFFFFFFFFFFull);
}

TEST(EnvFaultBaseSeed, RejectsGarbage) {
  for (const char* bad : {"12abc", "abc", "", " 5", "5 ", "-3", "+4", "0x10",
                          "18446744073709551616" /* 2^64: overflow */}) {
    const ScopedSeedEnv env(bad);
    EXPECT_THROW(rs::util::env_fault_base_seed(7), std::runtime_error)
        << "value \"" << bad << "\" should be rejected";
  }
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjector, DeterministicPureFunction) {
  const FaultInjector a(base_seed(), 4);
  const FaultInjector b(base_seed(), 4);
  for (std::uint64_t i = 0; i < 256; ++i) {
    for (FaultSite site : {FaultSite::kPwlBackend, FaultSite::kDenseBackend,
                           FaultSite::kSlotCost, FaultSite::kCheckpoint}) {
      EXPECT_EQ(a.fires(site, i), b.fires(site, i));
    }
  }
}

TEST(FaultInjector, PeriodOneAlwaysFiresAndZeroClamps) {
  const FaultInjector always(123, 1);
  const FaultInjector clamped(123, 0);
  EXPECT_EQ(clamped.period(), 1u);
  for (std::uint64_t i = 0; i < 64; ++i) {
    EXPECT_TRUE(always.fires(FaultSite::kPwlBackend, i));
    EXPECT_TRUE(clamped.fires(FaultSite::kSlotCost, i));
  }
}

TEST(FaultInjector, SitesAndSeedsDecorrelated) {
  // Different sites (and different seeds) must not fire in lockstep; with
  // period 2 over 512 indices, identical streams would mean a broken hash.
  const FaultInjector inj(base_seed(), 2);
  const FaultInjector other(base_seed() + 1, 2);
  int site_diff = 0;
  int seed_diff = 0;
  int fired = 0;
  for (std::uint64_t i = 0; i < 512; ++i) {
    const bool p = inj.fires(FaultSite::kPwlBackend, i);
    const bool d = inj.fires(FaultSite::kDenseBackend, i);
    site_diff += (p != d) ? 1 : 0;
    seed_diff += (p != other.fires(FaultSite::kPwlBackend, i)) ? 1 : 0;
    fired += p ? 1 : 0;
  }
  EXPECT_GT(site_diff, 0);
  EXPECT_GT(seed_diff, 0);
  // ~1/2 firing rate; [1/8, 7/8] over 512 draws is a >10-sigma envelope.
  EXPECT_GT(fired, 64);
  EXPECT_LT(fired, 448);
}

TEST(FaultInjector, ScopedInstallationAndNonNesting) {
  EXPECT_EQ(rs::util::active_fault_injector(), nullptr);
  EXPECT_FALSE(rs::util::fault_fires(FaultSite::kPwlBackend, 0));
  {
    const ScopedFaultInjection guard{FaultInjector(7, 1)};
    ASSERT_NE(rs::util::active_fault_injector(), nullptr);
    EXPECT_EQ(rs::util::active_fault_injector()->seed(), 7u);
    EXPECT_TRUE(rs::util::fault_fires(FaultSite::kPwlBackend, 0));
    EXPECT_THROW(ScopedFaultInjection{FaultInjector(8, 1)}, std::logic_error);
    // The failed nested install must not have torn down the active guard.
    ASSERT_NE(rs::util::active_fault_injector(), nullptr);
    EXPECT_EQ(rs::util::active_fault_injector()->seed(), 7u);
  }
  EXPECT_EQ(rs::util::active_fault_injector(), nullptr);
  EXPECT_FALSE(rs::util::fault_fires(FaultSite::kPwlBackend, 0));
}

TEST(FaultInjector, CorruptionHelpers) {
  const std::vector<std::uint8_t> bytes = {0x00, 0xFF, 0x81};
  const std::vector<std::uint8_t> flipped0 = rs::util::corrupt_bit(bytes, 0);
  EXPECT_EQ(flipped0[0], 0x01);
  EXPECT_EQ(flipped0[1], 0xFF);
  const std::vector<std::uint8_t> flipped15 = rs::util::corrupt_bit(bytes, 15);
  EXPECT_EQ(flipped15[1], 0x7F);
  // Index reduced modulo the bit count: 24 wraps to bit 0.
  EXPECT_EQ(rs::util::corrupt_bit(bytes, 24), flipped0);
  EXPECT_TRUE(rs::util::corrupt_bit({}, 5).empty());

  EXPECT_EQ(rs::util::truncate_bytes(bytes, 2),
            (std::vector<std::uint8_t>{0x00, 0xFF}));
  EXPECT_EQ(rs::util::truncate_bytes(bytes, 0).size(), 0u);
  EXPECT_EQ(rs::util::truncate_bytes(bytes, 99), bytes);
}

TEST(FaultInjector, SeededCheckpointCorruptionIsAlwaysRejected) {
  // The kCheckpoint site drives *which* snapshots get corrupted; every
  // corrupted copy must be rejected, every clean copy must restore.
  rs::offline::WorkFunctionTracker tracker(
      8, 2.0, rs::offline::WorkFunctionTracker::Backend::kDense);
  const Problem p = table_problem(8, 2.0, 6, 3);
  for (int t = 1; t <= p.horizon(); ++t) tracker.advance(p.f(t));
  const std::vector<std::uint8_t> bytes = tracker.snapshot();

  const FaultInjector inj(base_seed(), 3);
  std::uint64_t bit_state = base_seed();
  for (std::uint64_t i = 0; i < 32; ++i) {
    const std::uint64_t bit = rs::util::splitmix64(bit_state);
    if (inj.fires(FaultSite::kCheckpoint, i)) {
      EXPECT_THROW(rs::offline::WorkFunctionTracker::restore(
                       rs::util::corrupt_bit(bytes, bit)),
                   rs::core::CheckpointError)
          << "i=" << i;
    } else {
      EXPECT_EQ(rs::offline::WorkFunctionTracker::restore(bytes).tau(),
                tracker.tau());
    }
  }
}

// ---------------------------------------------------------------------------
// FaultPlan
// ---------------------------------------------------------------------------

TEST(FaultPlan, PoisonedSlotsPredictApplyFaultPlan) {
  const Problem p = table_problem(6, 1.5, 48, 4);
  FaultPlan plan;
  plan.seed = base_seed();
  plan.period = 4;
  plan.poison = PoisonKind::kNaN;
  const std::vector<int> slots =
      rs::scenario::poisoned_slots(plan, p.horizon());
  ASSERT_FALSE(slots.empty());
  ASSERT_LT(static_cast<int>(slots.size()), p.horizon());

  const Problem poisoned = rs::scenario::apply_fault_plan(p, plan);
  std::size_t next = 0;
  for (int t = 1; t <= p.horizon(); ++t) {
    const bool hit = next < slots.size() && slots[next] == t;
    if (hit) {
      ++next;
      EXPECT_TRUE(std::isnan(poisoned.f(t).at(0))) << "t=" << t;
    } else {
      // Untouched slots share the original CostPtr, not a copy.
      EXPECT_EQ(poisoned.f_ptr(t).get(), p.f_ptr(t).get()) << "t=" << t;
    }
  }
  EXPECT_EQ(next, slots.size());
}

TEST(FaultPlan, PoisonKindsMisbehaveAsDocumented) {
  const auto base = std::make_shared<rs::core::AffineAbsCost>(1.0, 2.0, 0.0);
  const rs::core::CostPtr nan_cost =
      rs::scenario::make_poisoned_cost(base, PoisonKind::kNaN);
  EXPECT_TRUE(std::isnan(nan_cost->at(1)));
  const rs::core::CostPtr inf_cost =
      rs::scenario::make_poisoned_cost(base, PoisonKind::kInfeasible);
  EXPECT_EQ(inf_cost->at(1), rs::util::kInf);
  const rs::core::CostPtr throw_cost =
      rs::scenario::make_poisoned_cost(base, PoisonKind::kThrow);
  EXPECT_THROW(throw_cost->at(1), std::runtime_error);
  // All poison kinds are opaque to the PWL conversion, forcing the dense
  // path where the violation is detected.
  EXPECT_FALSE(nan_cost->as_convex_pwl(8).has_value());
  EXPECT_THROW(rs::scenario::make_poisoned_cost(nullptr, PoisonKind::kNaN),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Batch isolation
// ---------------------------------------------------------------------------

// The acceptance test: poison a predicted subset of jobs; the batch must
// complete with exactly those jobs failed and every other outcome
// bit-identical to the clean batch — at thread count 1 and under a pool.
TEST(BatchIsolation, PoisonedJobsFailAloneRestBitIdentical) {
  constexpr int kJobs = 6;
  FaultPlan plan;
  plan.seed = base_seed() + 17;
  plan.period = 2;
  plan.poison = PoisonKind::kNaN;

  std::vector<Problem> clean_problems;
  std::vector<Problem> faulty_problems;
  clean_problems.reserve(kJobs);
  faulty_problems.reserve(kJobs);
  // Poison odd jobs: a fixed, self-evident casualty set.
  std::vector<bool> poisoned(kJobs, false);
  for (int i = 0; i < kJobs; ++i) {
    clean_problems.push_back(table_problem(8, 2.0, 24, 100 + i));
    poisoned[static_cast<std::size_t>(i)] = (i % 2 == 1);
    if (poisoned[static_cast<std::size_t>(i)]) {
      ASSERT_FALSE(rs::scenario::poisoned_slots(plan, 24).empty());
      faulty_problems.push_back(
          rs::scenario::apply_fault_plan(clean_problems.back(), plan));
    } else {
      faulty_problems.push_back(clean_problems.back());
    }
  }

  const SolverKind kinds[] = {SolverKind::kDpCost, SolverKind::kDpSchedule,
                              SolverKind::kLcp};
  std::vector<SolveJob> clean_jobs;
  std::vector<SolveJob> faulty_jobs;
  for (int i = 0; i < kJobs; ++i) {
    SolveJob job;
    job.kind = kinds[i % 3];
    job.problem = &clean_problems[static_cast<std::size_t>(i)];
    clean_jobs.push_back(job);
    job.problem = &faulty_problems[static_cast<std::size_t>(i)];
    faulty_jobs.push_back(job);
  }

  for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(threads);
    SolverEngine::Options options;
    options.threads = threads;
    const SolverEngine engine(options);
    const BatchResult clean = engine.run(clean_jobs);
    const BatchResult faulty = engine.run(faulty_jobs);
    ASSERT_EQ(clean.outcomes.size(), static_cast<std::size_t>(kJobs));
    ASSERT_EQ(faulty.outcomes.size(), static_cast<std::size_t>(kJobs));
    std::size_t failed = 0;
    for (int i = 0; i < kJobs; ++i) {
      const std::size_t j = static_cast<std::size_t>(i);
      if (poisoned[j]) {
        ++failed;
        EXPECT_EQ(faulty.outcomes[j].status, SolveStatus::kInvalidInput)
            << "job " << i;
        EXPECT_FALSE(faulty.outcomes[j].error.empty()) << "job " << i;
        EXPECT_TRUE(faulty.outcomes[j].schedule.empty()) << "job " << i;
      } else {
        EXPECT_TRUE(faulty.outcomes[j].ok()) << "job " << i;
        expect_outcome_bitwise(faulty.outcomes[j], clean.outcomes[j], j);
      }
      EXPECT_TRUE(clean.outcomes[j].ok()) << "job " << i;
    }
    EXPECT_EQ(faulty.stats.failed_jobs, failed);
    EXPECT_EQ(clean.stats.failed_jobs, 0u);
    EXPECT_TRUE(clean.stats.degrade_events.empty());
  }
}

TEST(BatchIsolation, NaNPoisonFailsEverySolverKind) {
  // Regression guard for NaN laundering: the DPs fold labels with std::min
  // (or strict comparisons), which discard NaN — a poisoned slot anywhere
  // but the last used to come back as a clean finite or "+inf infeasible"
  // kOk.  Every solver kind must classify a NaN-poisoned instance as
  // kInvalidInput no matter which slots are poisoned.
  const auto expect_every_kind_fails = [](const Problem& poisoned,
                                          const std::string& label) {
    for (SolverKind kind : {SolverKind::kDpCost, SolverKind::kDpSchedule,
                            SolverKind::kLcp, SolverKind::kLowMemory}) {
      SolveJob job;
      job.kind = kind;
      job.problem = &poisoned;
      const SolverEngine engine;
      const BatchResult result = engine.run(std::vector<SolveJob>{job});
      ASSERT_EQ(result.outcomes.size(), 1u);
      EXPECT_EQ(result.outcomes[0].status, SolveStatus::kInvalidInput)
          << "kind " << static_cast<int>(kind) << " " << label;
      EXPECT_FALSE(result.outcomes[0].error.empty());
      EXPECT_TRUE(result.outcomes[0].schedule.empty());
      EXPECT_EQ(result.stats.failed_jobs, 1u);
    }
  };
  const Problem p = table_problem(8, 2.0, 24, 100);
  FaultPlan plan;
  plan.poison = PoisonKind::kNaN;
  plan.period = 8;  // sparse: typically poisons interior slots only
  for (std::uint64_t offset : {0ull, 1ull, 2ull, 3ull}) {
    plan.seed = base_seed() + 1000 + offset;
    if (rs::scenario::poisoned_slots(plan, p.horizon()).empty()) continue;
    expect_every_kind_fails(rs::scenario::apply_fault_plan(p, plan),
                            "seed offset " + std::to_string(offset));
  }
  // One NaN at a single interior state: the parent-tracking DP's argmin
  // comparisons skip it, so the schedule DP used to return a finite cost.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Problem single_point = rs::core::make_table_problem(
      3, 2.0,
      {{3.0, 2.0, 1.0, 2.0},
       {3.0, 2.0, 1.0, 2.0},
       {3.0, nan, 1.0, 2.0},
       {3.0, 2.0, 1.0, 2.0},
       {3.0, 2.0, 1.0, 2.0},
       {3.0, 2.0, 1.0, 2.0}});
  expect_every_kind_fails(single_point, "single-point NaN table");

  // Every exact offline solver, outside the engine, on the instance as a
  // Problem, as its DenseProblem and as its RleProblem (a NaN instance has
  // no PWL form): a NaN cost with no schedule, or std::invalid_argument —
  // never a finite cost.  The candidate-column DP under BinarySearchSolver
  // and the exhaustive search both used to skip the NaN state and return
  // 10.
  const rs::core::DenseProblem single_point_dense(single_point);
  const rs::core::RleProblem single_point_rle =
      rs::scenario::rle_compress(single_point);
  ASSERT_LT(single_point_rle.run_count(), single_point.horizon());
  const rs::offline::DpSolver dp_dense;
  const rs::offline::DpSolver dp_convex(
      rs::offline::DpSolver::Backend::kConvexAuto);
  const rs::offline::BinarySearchSolver binary_search;
  const rs::offline::BruteForceSolver brute_force;
  const rs::offline::GraphSolver graph;
  const rs::offline::BackwardSolver backward;
  const rs::offline::LowMemorySolver low_memory;
  const std::vector<std::pair<const char*, rs::core::SlotSource>> forms = {
      {"problem", single_point},
      {"dense", single_point_dense},
      {"rle", single_point_rle}};
  for (const auto& [form, source] : forms) {
    for (const rs::offline::OfflineSolver* solver :
         std::vector<const rs::offline::OfflineSolver*>{
             &dp_dense, &dp_convex, &binary_search, &brute_force, &graph,
             &backward, &low_memory}) {
      try {
        const rs::offline::OfflineResult result = solver->solve(source);
        EXPECT_TRUE(std::isnan(result.cost))
            << solver->name() << " on " << form << " returned "
            << result.cost;
        EXPECT_TRUE(result.schedule.empty()) << solver->name() << " " << form;
      } catch (const std::invalid_argument&) {
        // Rejecting the poisoned instance is the other legal answer.
      }
    }
    for (const rs::offline::OfflineResult& result :
         {binary_search.solve(source), brute_force.solve(source),
          rs::offline::solve_phi_restricted(source, 0)}) {
      EXPECT_TRUE(std::isnan(result.cost)) << form;
      EXPECT_TRUE(result.schedule.empty()) << form;
    }
    EXPECT_TRUE(std::isnan(dp_dense.solve(source).cost)) << form;
  }
}

TEST(BatchIsolation, ThrowingJobLeavesRestValid) {
  constexpr int kJobs = 5;
  std::vector<Problem> problems;
  problems.reserve(kJobs);
  for (int i = 0; i < kJobs - 1; ++i) {
    problems.push_back(table_problem(6, 1.5, 16, 200 + i));
  }
  // One job whose cost function throws on evaluation — a crashing
  // dependency, not bad numbers.
  std::vector<rs::core::CostPtr> fs(
      16, std::make_shared<rs::core::FunctionCost>(
              [](int) -> double {
                throw std::runtime_error("dependency crashed");
              },
              "crashing"));
  problems.push_back(Problem(6, 1.5, std::move(fs)));

  std::vector<SolveJob> jobs;
  for (const Problem& p : problems) {
    SolveJob job;
    job.kind = SolverKind::kDpSchedule;
    job.problem = &p;
    jobs.push_back(job);
  }
  const SolverEngine engine;
  const BatchResult result = engine.run(jobs);
  ASSERT_EQ(result.outcomes.size(), static_cast<std::size_t>(kJobs));
  for (int i = 0; i < kJobs - 1; ++i) {
    EXPECT_TRUE(result.outcomes[static_cast<std::size_t>(i)].ok())
        << "job " << i;
    EXPECT_FALSE(
        result.outcomes[static_cast<std::size_t>(i)].schedule.empty());
  }
  const SolveOutcome& bad = result.outcomes[kJobs - 1];
  EXPECT_EQ(bad.status, SolveStatus::kException);
  EXPECT_NE(bad.error.find("dependency crashed"), std::string::npos);
  EXPECT_EQ(result.stats.failed_jobs, 1u);
}

// Paper eq. 2 restricted-model instance with the M/M/1 delay cost: its
// load curve is an opaque std::function, so the engine fills a shared table
// for it on its workers.
Problem restricted_problem(int servers, std::uint64_t seed) {
  rs::util::Rng rng(seed);
  rs::dcsim::DataCenterModel model;
  model.servers = servers;
  const rs::workload::Trace trace =
      rs::workload::hotmail_like(rng, 1, 48, 0.6 * servers);
  return rs::dcsim::restricted_datacenter_problem(model, trace);
}

// A job's solo outcome through the library's plain entry points, each on
// the Problem as given.
SolveOutcome solo_outcome(const Problem& p, SolverKind kind) {
  SolveOutcome out;
  switch (kind) {
    case SolverKind::kDpCost:
      out.cost = rs::offline::DpSolver().solve_cost(p);
      break;
    case SolverKind::kDpSchedule: {
      rs::offline::OfflineResult r = rs::offline::DpSolver().solve(p);
      out.cost = r.cost;
      out.schedule = std::move(r.schedule);
      break;
    }
    case SolverKind::kLcp: {
      rs::online::Lcp lcp;
      out.schedule = rs::online::run_online(lcp, p);
      out.cost = rs::core::total_cost(p, out.schedule);
      break;
    }
    case SolverKind::kLowMemory: {
      rs::offline::OfflineResult r = rs::offline::LowMemorySolver().solve(p);
      out.cost = r.cost;
      out.schedule = std::move(r.schedule);
      break;
    }
    case SolverKind::kDeltaResolve:
      ADD_FAILURE() << "no kDeltaResolve reference";
      break;
  }
  return out;
}

TEST(BatchIsolation, PoisonedTablesFailAloneAtEveryThreadCount) {
  // One throwing and one NaN-poisoned restricted instance among healthy
  // ones, all needing shared tables.  A throw while a worker fills a table
  // must fail that table only: its jobs stream and classify their own
  // error, the NaN table is built and its jobs fail kInvalidInput, and
  // every sibling matches its solo solve — whatever the thread count.
  std::vector<Problem> problems;
  for (int i = 0; i < 4; ++i) {
    problems.push_back(restricted_problem(12 + 4 * i, 500 + i));
  }
  FaultPlan plan;
  plan.seed = base_seed() + 61;
  plan.period = 4;
  ASSERT_FALSE(rs::scenario::poisoned_slots(plan, 48).empty());
  plan.poison = PoisonKind::kThrow;
  problems.push_back(rs::scenario::apply_fault_plan(problems[0], plan));
  plan.poison = PoisonKind::kNaN;
  problems.push_back(rs::scenario::apply_fault_plan(problems[1], plan));
  const std::size_t throwing = 4;
  const std::size_t nan = 5;
  for (const Problem& p : problems) {
    ASSERT_FALSE(rs::core::admits_compact_pwl(p));
  }

  const SolverKind kinds[] = {SolverKind::kDpCost, SolverKind::kDpSchedule,
                              SolverKind::kLcp, SolverKind::kLowMemory};
  std::vector<SolveJob> jobs;
  for (const Problem& p : problems) {
    for (SolverKind kind : kinds) {
      SolveJob job;
      job.kind = kind;
      job.problem = &p;
      jobs.push_back(job);
    }
  }
  std::vector<SolveOutcome> first;
  for (std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    SolverEngine::Options options;
    options.threads = threads;
    const BatchResult result = SolverEngine(options).run(jobs);
    ASSERT_EQ(result.outcomes.size(), jobs.size());
    // Healthy instances and the NaN one get tables; the throwing one
    // does not.
    EXPECT_EQ(result.stats.dense_tables_built, problems.size() - 1);
    EXPECT_EQ(result.stats.failed_jobs, 2 * std::size(kinds));
    EXPECT_TRUE(result.stats.degrade_events.empty());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const std::size_t instance = j / std::size(kinds);
      const SolveOutcome& got = result.outcomes[j];
      if (instance == throwing || instance == nan) {
        EXPECT_EQ(got.status, instance == throwing
                                  ? SolveStatus::kException
                                  : SolveStatus::kInvalidInput)
            << "job " << j;
        EXPECT_FALSE(got.error.empty()) << "job " << j;
        EXPECT_TRUE(got.schedule.empty()) << "job " << j;
        if (!first.empty()) {
          EXPECT_EQ(got.status, first[j].status) << "job " << j;
          EXPECT_EQ(got.error, first[j].error) << "job " << j;
        }
      } else {
        EXPECT_TRUE(got.ok()) << "job " << j << ": " << got.error;
        expect_outcome_bitwise(
            got, solo_outcome(*jobs[j].problem, jobs[j].kind), j);
      }
    }
    if (first.empty()) first = result.outcomes;
  }
}

// Forwards every evaluation to `base` but throws from the PWL conversion:
// the engine's probe of such an instance fails, while its rows fill.
class ThrowingConversionCost final : public rs::core::CostFunction {
 public:
  explicit ThrowingConversionCost(rs::core::CostPtr base)
      : base_(std::move(base)) {}
  double at(int x) const override { return base_->at(x); }
  void eval_row(int m, std::span<double> out) const override {
    base_->eval_row(m, out);
  }
  bool is_convex() const override { return base_->is_convex(); }

 protected:
  std::optional<rs::core::ConvexPwl> as_convex_pwl_impl(
      int /*m*/, int /*max_breakpoints*/) const override {
    throw std::runtime_error("conversion crashed");
  }

 private:
  rs::core::CostPtr base_;
};

TEST(BatchIsolation, ThrowingProbeLeavesLowMemoryStreaming) {
  // kLowMemory reads the table its siblings caused only after a probe that
  // found no compact form.  Here the probe throws: the kDpCost sibling
  // still solves on the table, and kLowMemory streams the Problem and meets
  // the throw itself, as it would alone.
  const Problem base = restricted_problem(12, 910);
  std::vector<rs::core::CostPtr> fs;
  for (int t = 1; t <= base.horizon(); ++t) {
    fs.push_back(std::make_shared<ThrowingConversionCost>(base.f_ptr(t)));
  }
  const Problem p(base.max_servers(), base.beta(), std::move(fs));
  std::vector<SolveJob> jobs(2);
  jobs[0].kind = SolverKind::kDpCost;
  jobs[1].kind = SolverKind::kLowMemory;
  for (SolveJob& job : jobs) job.problem = &p;
  for (std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    SCOPED_TRACE(threads);
    SolverEngine::Options options;
    options.threads = threads;
    const BatchResult result = SolverEngine(options).run(jobs);
    EXPECT_EQ(result.stats.dense_tables_built, 1u);
    expect_outcome_bitwise(result.outcomes[0],
                           solo_outcome(p, SolverKind::kDpCost), 0);
    EXPECT_EQ(result.outcomes[1].status, SolveStatus::kException);
    EXPECT_EQ(result.outcomes[1].error, "conversion crashed");
  }
}

TEST(BatchIsolation, InfeasibleSlotIsNotAFault) {
  // +inf slot costs are *within* the extended-real contract: the solve
  // completes with status kOk and a +inf objective — the fault taxonomy
  // must not swallow legitimate infeasibility.
  // A short plan can miss every slot for some seeds, so take the first seed
  // from base_seed() + 5 on whose plan poisons at least one.
  Problem p = table_problem(5, 1.0, 8, 300);
  FaultPlan plan;
  plan.seed = base_seed() + 5;
  plan.period = 3;
  plan.poison = PoisonKind::kInfeasible;
  for (int tries = 1; tries < 64 &&
                      rs::scenario::poisoned_slots(plan, p.horizon()).empty();
       ++tries) {
    ++plan.seed;
  }
  ASSERT_FALSE(rs::scenario::poisoned_slots(plan, p.horizon()).empty())
      << "no poisoning plan within 64 seeds of " << base_seed() + 5;
  const Problem infeasible = rs::scenario::apply_fault_plan(p, plan);

  SolveJob job;
  job.kind = SolverKind::kDpCost;
  job.problem = &infeasible;
  const SolverEngine engine;
  const BatchResult result = engine.run(std::vector<SolveJob>{job});
  ASSERT_EQ(result.outcomes.size(), 1u);
  EXPECT_TRUE(result.outcomes[0].ok());
  EXPECT_EQ(result.outcomes[0].cost, rs::util::kInf);
  EXPECT_EQ(result.stats.failed_jobs, 0u);
}

// ---------------------------------------------------------------------------
// Injected backend faults + dense fallback
// ---------------------------------------------------------------------------

// Every job's fate under an installed injector is predictable from the
// injector alone: PWL-routed jobs whose kPwlBackend site fires are retried
// dense-streaming (a DegradeEvent; kBackendFailure only if the dense site
// fires too), everything else solves clean.
TEST(InjectedFaults, PwlFailuresDegradeToDenseWithEvents) {
  constexpr int kJobs = 10;
  const Problem p = integer_hinge_problem(12, 3.0, 32, 400);
  ASSERT_TRUE(rs::core::admits_compact_pwl(p));

  std::vector<SolveJob> jobs;
  for (int i = 0; i < kJobs; ++i) {
    SolveJob job;
    job.kind = (i % 2 == 0) ? SolverKind::kDpSchedule : SolverKind::kLcp;
    job.problem = &p;
    jobs.push_back(job);
  }
  SolverEngine::Options options;
  options.threads = 1;
  const SolverEngine engine(options);
  const BatchResult clean = engine.run(jobs);
  ASSERT_EQ(clean.stats.pwl_backed, static_cast<std::size_t>(kJobs));

  const FaultInjector inj(base_seed() + 31, 2);
  BatchResult faulty = [&] {
    const ScopedFaultInjection guard{inj};
    return engine.run(jobs);
  }();

  std::size_t expected_failures = 0;
  std::vector<std::size_t> expected_degrades;
  for (int i = 0; i < kJobs; ++i) {
    const std::size_t j = static_cast<std::size_t>(i);
    const bool pwl_fires = inj.fires(FaultSite::kPwlBackend, j);
    const bool dense_fires = inj.fires(FaultSite::kDenseBackend, j);
    if (!pwl_fires) {
      EXPECT_TRUE(faulty.outcomes[j].ok()) << "job " << i;
      expect_outcome_bitwise(faulty.outcomes[j], clean.outcomes[j], j);
    } else if (!dense_fires) {
      // Degraded but recovered: integer-valued instance, so the fallback's
      // objective is bitwise-equal to the PWL one (the schedule may be a
      // different optimum of equal cost — verify it attains it).
      expected_degrades.push_back(j);
      EXPECT_TRUE(faulty.outcomes[j].ok()) << "job " << i;
      EXPECT_EQ(faulty.outcomes[j].cost, clean.outcomes[j].cost)
          << "job " << i;
      ASSERT_FALSE(faulty.outcomes[j].schedule.empty()) << "job " << i;
      EXPECT_EQ(rs::core::total_cost(p, faulty.outcomes[j].schedule),
                faulty.outcomes[j].cost)
          << "job " << i;
    } else {
      ++expected_failures;
      EXPECT_EQ(faulty.outcomes[j].status, SolveStatus::kBackendFailure)
          << "job " << i;
      EXPECT_NE(faulty.outcomes[j].error.find("injected fault"),
                std::string::npos)
          << "job " << i;
    }
  }
  EXPECT_EQ(faulty.stats.failed_jobs, expected_failures);
  ASSERT_EQ(faulty.stats.degrade_events.size(), expected_degrades.size());
  for (std::size_t k = 0; k < expected_degrades.size(); ++k) {
    EXPECT_EQ(faulty.stats.degrade_events[k].job, expected_degrades[k]);
    EXPECT_NE(faulty.stats.degrade_events[k].reason.find("PWL backend"),
              std::string::npos);
  }
  // The suite must cover all three fates; if this seed produces a
  // degenerate split the decorrelation test above has already failed.
  EXPECT_FALSE(expected_degrades.empty());
}

TEST(InjectedFaults, PwlRetryOfCorridorJobsRunsDense) {
  // A PWL-routed kLcp job whose PWL pass fails is retried over its Problem
  // on dense corridor labels: the retry converts nothing, so the batch
  // converts every slot exactly once (its probe), and the tie rule makes
  // the corridor, hence the schedule and its price, the clean run's.
  const Problem hinge = integer_hinge_problem(12, 3.0, 32, 410);
  std::vector<std::shared_ptr<std::atomic<int>>> conversions;
  std::vector<rs::core::CostPtr> fs;
  for (int t = 1; t <= hinge.horizon(); ++t) {
    conversions.push_back(std::make_shared<std::atomic<int>>(0));
    fs.push_back(std::make_shared<rs::test_support::CountingCost>(
        hinge.f_ptr(t), conversions.back()));
  }
  const Problem p(hinge.max_servers(), hinge.beta(), std::move(fs));
  SolveJob job;
  job.kind = SolverKind::kLcp;
  job.problem = &p;
  const std::vector<SolveJob> jobs = {job};
  SolverEngine::Options options;
  options.threads = 1;
  const SolverEngine engine(options);
  const BatchResult clean = engine.run(jobs);
  ASSERT_EQ(clean.stats.pwl_backed, 1u);
  ASSERT_TRUE(clean.outcomes[0].ok());

  // The first injector from base_seed() + 89 that fails the PWL pass of
  // job 0 but not its dense retry.
  std::uint64_t seed = base_seed() + 89;
  const auto degrades = [](const FaultInjector& inj) {
    return inj.fires(FaultSite::kPwlBackend, 0) &&
           !inj.fires(FaultSite::kDenseBackend, 0);
  };
  for (int tries = 1; tries < 64 && !degrades(FaultInjector(seed, 2));
       ++tries) {
    ++seed;
  }
  const FaultInjector inj(seed, 2);
  ASSERT_TRUE(degrades(inj)) << "no injector within 64 seeds of "
                             << base_seed() + 89;
  for (const auto& counter : conversions) counter->store(0);
  const BatchResult faulty = [&] {
    const ScopedFaultInjection guard{inj};
    return engine.run(jobs);
  }();
  ASSERT_EQ(faulty.stats.degrade_events.size(), 1u);
  EXPECT_EQ(faulty.stats.degrade_events[0].job, 0u);
  expect_outcome_bitwise(faulty.outcomes[0], clean.outcomes[0], 0);
  for (std::size_t t = 0; t < conversions.size(); ++t) {
    EXPECT_EQ(conversions[t]->load(), 1) << "slot " << t + 1;
  }
}

TEST(InjectedFaults, DenseRoutedJobsFailWithoutRetry) {
  // FunctionCost is opaque to the PWL conversion, so this instance is
  // guaranteed to route through the dense backend.
  std::vector<rs::core::CostPtr> fs;
  for (int t = 0; t < 16; ++t) {
    fs.push_back(std::make_shared<rs::core::FunctionCost>(
        [t](int x) {
          const double d = static_cast<double>(x) - static_cast<double>(t % 9);
          return d * d;
        },
        "quadratic"));
  }
  const Problem p(8, 2.0, std::move(fs));
  ASSERT_FALSE(rs::core::admits_compact_pwl(p));
  std::vector<SolveJob> jobs(4);
  for (SolveJob& job : jobs) {
    job.kind = SolverKind::kDpCost;
    job.problem = &p;
  }
  const FaultInjector inj(base_seed() + 47, 2);
  SolverEngine::Options options;
  options.threads = 1;
  const SolverEngine engine(options);
  const BatchResult result = [&] {
    const ScopedFaultInjection guard{inj};
    return engine.run(jobs);
  }();
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    if (inj.fires(FaultSite::kDenseBackend, j)) {
      EXPECT_EQ(result.outcomes[j].status, SolveStatus::kBackendFailure);
      EXPECT_NE(result.outcomes[j].error.find("dense backend"),
                std::string::npos);
    } else {
      EXPECT_TRUE(result.outcomes[j].ok());
    }
  }
  // Dense jobs have no fallback: no degrade events, only failures.
  EXPECT_TRUE(result.stats.degrade_events.empty());
}

TEST(InjectedFaults, SharedPassMemberFailsAlone) {
  // Every kind twice on restricted M/M/1 instances: per instance, four
  // jobs share the DP pass over its table and four the corridor pass.  A
  // fault fired on one member fails that job alone with kBackendFailure;
  // the pass still runs for its siblings, which stay bitwise their solo
  // solves.  Take the first injector seed from base_seed() + 73 that fails
  // some but not all members of at least one pass.
  std::vector<Problem> problems;
  for (int i = 0; i < 3; ++i) {
    problems.push_back(restricted_problem(10 + 6 * i, 700 + i));
    ASSERT_FALSE(rs::core::admits_compact_pwl(problems.back()));
  }
  const SolverKind kinds[] = {SolverKind::kDpCost, SolverKind::kDpSchedule,
                              SolverKind::kLcp, SolverKind::kLowMemory};
  std::vector<SolveJob> jobs;
  for (const Problem& p : problems) {
    for (int copy = 0; copy < 2; ++copy) {
      for (SolverKind kind : kinds) {
        SolveJob job;
        job.kind = kind;
        job.problem = &p;
        jobs.push_back(job);
      }
    }
  }
  // Job j's pass: its instance, and DP (kinds 0, 1) or corridor (2, 3).
  const auto pass_of = [&](std::size_t j) {
    return 2 * (j / (2 * std::size(kinds))) + (j % std::size(kinds)) / 2;
  };
  const std::size_t passes = 2 * problems.size();
  const auto splits_a_pass = [&](const FaultInjector& inj) {
    std::vector<int> fired(passes, 0);
    std::vector<int> members(passes, 0);
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      ++members[pass_of(j)];
      if (inj.fires(FaultSite::kDenseBackend, j)) ++fired[pass_of(j)];
    }
    for (std::size_t k = 0; k < passes; ++k) {
      if (fired[k] > 0 && fired[k] < members[k]) return true;
    }
    return false;
  };
  std::uint64_t seed = base_seed() + 73;
  for (int tries = 1; tries < 64 && !splits_a_pass(FaultInjector(seed, 3));
       ++tries) {
    ++seed;
  }
  const FaultInjector inj(seed, 3);
  ASSERT_TRUE(splits_a_pass(inj))
      << "no splitting injector within 64 seeds of " << base_seed() + 73;

  for (std::size_t threads :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    SCOPED_TRACE(threads);
    SolverEngine::Options options;
    options.threads = threads;
    const SolverEngine engine(options);
    const BatchResult result = [&] {
      const ScopedFaultInjection guard{inj};
      return engine.run(jobs);
    }();
    ASSERT_EQ(result.outcomes.size(), jobs.size());
    std::size_t failed = 0;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
      const SolveOutcome& got = result.outcomes[j];
      if (inj.fires(FaultSite::kDenseBackend, j)) {
        ++failed;
        EXPECT_EQ(got.status, SolveStatus::kBackendFailure) << "job " << j;
        EXPECT_EQ(got.error, "injected fault: dense backend") << "job " << j;
        EXPECT_TRUE(got.schedule.empty()) << "job " << j;
      } else {
        expect_outcome_bitwise(
            got, solo_outcome(*jobs[j].problem, jobs[j].kind), j);
      }
    }
    EXPECT_EQ(result.stats.failed_jobs, failed);
    EXPECT_TRUE(result.stats.degrade_events.empty());
    EXPECT_EQ(result.stats.dense_tables_built, problems.size());
  }
}

TEST(InjectedFaults, StatusStringsAreStable) {
  EXPECT_STREQ(rs::engine::to_string(SolveStatus::kOk), "ok");
  EXPECT_STREQ(rs::engine::to_string(SolveStatus::kInvalidInput),
               "invalid-input");
  EXPECT_STREQ(rs::engine::to_string(SolveStatus::kBackendFailure),
               "backend-failure");
  EXPECT_STREQ(rs::engine::to_string(SolveStatus::kException), "exception");
}

}  // namespace
