#include "engine/solver_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/slot_source.hpp"
#include "offline/delta_session.hpp"
#include "offline/dp_solver.hpp"
#include "offline/low_memory_solver.hpp"
#include "online/lcp.hpp"
#include "util/audit.hpp"
#include "util/fault_injection.hpp"
#include "util/stopwatch.hpp"
#include "util/workspace.hpp"

namespace rs::engine {

using rs::core::DenseProblem;
using rs::core::Problem;
using rs::core::PwlProblem;

const char* to_string(SolveStatus status) noexcept {
  switch (status) {
    case SolveStatus::kOk:
      return "ok";
    case SolveStatus::kInvalidInput:
      return "invalid-input";
    case SolveStatus::kBackendFailure:
      return "backend-failure";
    case SolveStatus::kException:
      return "exception";
  }
  return "unknown";
}

namespace {

// Rows per table-fill task: small enough that a batch of many small tables
// still spreads across the workers, large enough to amortize the dispatch.
constexpr std::size_t kFillRows = 8;

// One shared delta session per distinct instance with kDeltaResolve jobs.
// The mutex guards only the lazy base solve, which happens inside the first
// probe behind the same job fault boundary.  Probes are const on the
// session and replay off to the side, so once it exists, probes on one
// instance run concurrently.
struct DeltaSlot {
  std::mutex mutex;
  std::optional<rs::offline::DpDeltaSession> session;
};

SolveOutcome run_one(const SolveJob& job, const DenseProblem* dense,
                     const rs::core::PwlProblem* pwl, DeltaSlot* delta,
                     std::size_t index, std::mutex& stats_mutex,
                     BatchStats& stats) {
  // pwl: the batch's shared form cache for this instance (non-null exactly
  // when it admits a compact convex-PWL form and no table was materialized
  // for it).  Every kind replays from the cached forms — no job performs a
  // conversion of its own.
  if (rs::util::fault_fires(pwl != nullptr ? rs::util::FaultSite::kPwlBackend
                                           : rs::util::FaultSite::kDenseBackend,
                            index)) {
    throw BackendFailureError(pwl != nullptr
                                  ? "injected fault: PWL backend"
                                  : "injected fault: dense backend");
  }
  // The job's one slot source: the cached forms, else the shared table,
  // else the Problem itself (rows streamed per solve).
  using rs::core::SlotSource;
  const SlotSource source = pwl     ? SlotSource(*pwl)
                            : dense ? SlotSource(*dense)
                                    : SlotSource(*job.problem);
  SolveOutcome outcome;
  switch (job.kind) {
    case SolverKind::kDpCost:
      outcome.cost = rs::offline::DpSolver().solve_cost(source);
      break;
    case SolverKind::kDpSchedule: {
      rs::offline::OfflineResult result = rs::offline::DpSolver().solve(source);
      outcome.cost = result.cost;
      outcome.schedule = std::move(result.schedule);
      break;
    }
    case SolverKind::kLcp:
      outcome.schedule = rs::online::run_lcp(source);
      // Priced on the table when there is one, else on the Problem (also
      // for PWL-routed jobs, whose cost bits thus match a solo replay).
      outcome.cost = rs::core::total_cost(
          dense ? SlotSource(*dense) : SlotSource(*job.problem),
          outcome.schedule);
      break;
    case SolverKind::kLowMemory: {
      rs::offline::OfflineResult result =
          rs::offline::LowMemorySolver().solve(source);
      outcome.cost = result.cost;
      outcome.schedule = std::move(result.schedule);
      break;
    }
    case SolverKind::kDeltaResolve: {
      {
        const std::lock_guard<std::mutex> lock(delta->mutex);
        if (!delta->session.has_value()) {
          delta->session.emplace(*job.problem);  // one base solve per instance
        }
      }
      const rs::offline::DpDeltaSession& session = *delta->session;
      rs::offline::DpDeltaSession::DeltaStats ds;
      rs::offline::OfflineResult result =
          session.probe_delta(job.edit_slot, job.edit_cost, &ds);
      outcome.cost = result.cost;
      outcome.schedule = std::move(result.schedule);
      {
        const std::lock_guard<std::mutex> stats_lock(stats_mutex);
        stats.slots_repaired += static_cast<std::size_t>(ds.slots_repaired);
        if (ds.early_exit) ++stats.early_exits;
      }
      break;
    }
  }
  return outcome;
}

// One classified solve attempt: the outcome on success, nullopt with
// (status, error) filled on any fault.  A NaN total cost is demoted to
// kInvalidInput here so poisoned instances that slip through a solver
// without throwing still fail *their* job instead of polluting the batch.
std::optional<SolveOutcome> try_solve(const SolveJob& job,
                                      const DenseProblem* dense,
                                      const rs::core::PwlProblem* pwl,
                                      DeltaSlot* delta, std::size_t index,
                                      SolveStatus& status, std::string& error,
                                      std::mutex& stats_mutex,
                                      BatchStats& stats) {
  try {
    SolveOutcome outcome =
        run_one(job, dense, pwl, delta, index, stats_mutex, stats);
    if (std::isnan(outcome.cost)) {
      status = SolveStatus::kInvalidInput;
      error = "solver produced a NaN total cost";
      return std::nullopt;
    }
    // A kOk outcome contract audit (DESIGN.md §13): schedule-producing
    // kinds return one state per slot, every state inside [0, m], and
    // extended-real costs never go negative or -inf.
    RS_AUDIT({
      namespace audit = rs::util::audit;
      audit::require(!(outcome.cost < 0.0),
                     "engine-outcome-cost-nonnegative", "try_solve");
      if (!outcome.schedule.empty() && job.problem != nullptr) {
        audit::require(outcome.schedule.size() ==
                           static_cast<std::size_t>(job.problem->horizon()),
                       "engine-outcome-schedule-shape", "try_solve");
        const int m = job.problem->max_servers();
        for (const int x : outcome.schedule) {
          audit::require(0 <= x && x <= m,
                         "engine-outcome-schedule-in-range", "try_solve");
        }
      }
    });
    return outcome;
  } catch (const BackendFailureError& e) {
    status = SolveStatus::kBackendFailure;
    error = e.what();
  } catch (const std::invalid_argument& e) {
    status = SolveStatus::kInvalidInput;
    error = e.what();
  } catch (const std::domain_error& e) {
    status = SolveStatus::kInvalidInput;
    error = e.what();
  } catch (const std::exception& e) {
    status = SolveStatus::kException;
    error = e.what();
  } catch (...) {  // rs-lint: catch-all-ok (classified to kException)
    status = SolveStatus::kException;
    error = "unknown exception";
  }
  return std::nullopt;
}

// The per-job fault boundary: nothing a job does can escape this function.
// PWL-routed failures get one dense-streaming retry (no table build in the
// worker — the solvers stream rows from the original Problem), recorded as
// a DegradeEvent; a failure on the final attempt becomes a non-kOk outcome
// with an empty schedule.
void run_isolated(const SolveJob& job, const DenseProblem* dense,
                  const rs::core::PwlProblem* pwl, DeltaSlot* delta,
                  std::size_t index, SolveOutcome& out,
                  std::mutex& stats_mutex, BatchStats& stats) {
  SolveStatus status = SolveStatus::kOk;
  std::string error;
  if (std::optional<SolveOutcome> outcome = try_solve(
          job, dense, pwl, delta, index, status, error, stats_mutex, stats)) {
    out = std::move(*outcome);
    return;
  }
  if (pwl != nullptr && job.problem != nullptr) {
    const std::string first_error = error;
    if (std::optional<SolveOutcome> outcome =
            try_solve(job, nullptr, nullptr, nullptr, index, status, error,
                      stats_mutex, stats)) {
      out = std::move(*outcome);
      const std::lock_guard<std::mutex> lock(stats_mutex);
      stats.degrade_events.push_back(DegradeEvent{index, first_error});
      return;
    }
  }
  out = SolveOutcome{};
  out.status = status;
  out.error = std::move(error);
}

// Brackets one batch: samples the global workspace-growth counter and the
// wall clock around `body` and fills the derived stats.  Shared by run()
// and for_each() so typed batches and harness loops are measured
// identically.
void with_batch_stats(BatchStats& stats, std::size_t jobs,
                      std::size_t threads,
                      const std::function<void()>& body) {
  stats.jobs = jobs;
  stats.threads = threads;
  const std::uint64_t growths_before = rs::util::Workspace::total_growths();
  const rs::util::Stopwatch watch;
  body();
  stats.total_seconds = watch.seconds();
  stats.workspace_growths =
      rs::util::Workspace::total_growths() - growths_before;
  stats.instances_per_second =
      stats.total_seconds > 0.0
          ? static_cast<double>(jobs) / stats.total_seconds
          : 0.0;
}

}  // namespace

SolverEngine::SolverEngine(Options options) : options_(options) {
  if (options_.threads > 1) {
    pool_ = std::make_unique<rs::util::ThreadPool>(options_.threads);
  }
}

std::size_t SolverEngine::threads() const noexcept {
  if (options_.threads == 1) return 1;
  // parallel_for_dynamic drains work on the calling thread too.
  return (pool_ ? pool_->size() : rs::util::global_pool().size()) + 1;
}

void SolverEngine::dispatch(
    std::size_t n, const std::function<void(std::size_t)>& fn) const {
  if (n == 0) return;
  if (options_.threads == 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  // Dynamic scheduling: batch entries routinely mix instance sizes and
  // solver kinds, so per-job costs vary by orders of magnitude and static
  // chunks would serialize behind the most expensive stretch.
  rs::util::ThreadPool& pool = pool_ ? *pool_ : rs::util::global_pool();
  pool.parallel_for_dynamic(0, n, fn);
}

BatchResult SolverEngine::run(std::span<const SolveJob> jobs) const {
  for (const SolveJob& job : jobs) {
    if (job.problem == nullptr && job.dense == nullptr) {
      throw std::invalid_argument("SolverEngine::run: job has no instance");
    }
    if (job.kind == SolverKind::kDeltaResolve) {
      if (job.problem == nullptr) {
        throw std::invalid_argument(
            "SolverEngine::run: kDeltaResolve requires a Problem");
      }
      if (job.edit_cost == nullptr) {
        throw std::invalid_argument(
            "SolverEngine::run: kDeltaResolve requires an edit_cost");
      }
      if (job.edit_slot < 1 || job.edit_slot > job.problem->horizon()) {
        throw std::invalid_argument(
            "SolverEngine::run: kDeltaResolve edit_slot outside [1, T]");
      }
    }
  }

  BatchResult result;
  result.outcomes.resize(jobs.size());
  BatchStats& stats = result.stats;

  // The timed window covers the shared materialization too — a batch's
  // throughput includes the cost of building its tables.
  with_batch_stats(stats, jobs.size(), threads(), [&]() {
    // Backend probe per distinct Problem: instances whose every slot
    // admits a compact convex-PWL form run on the m-independent backend
    // and never materialize a table (at m ~ 10⁶ the T×(m+1) table would
    // not fit in memory, which is the point).  The probe converts by
    // building one shared PwlProblem per distinct instance — each slot is
    // converted exactly once per batch and the forms are what the routed
    // jobs replay from, not a discarded capability bit.
    std::unordered_map<const Problem*, std::shared_ptr<const PwlProblem>>
        pwl_cache;
    std::vector<std::shared_ptr<const PwlProblem>> pwl_of(jobs.size());
    // Delta probes share one lazily base-solved session per distinct
    // instance; they never touch the PWL probe or the dense tables (the
    // session's tracker IS the instance's materialization).
    std::unordered_map<const Problem*, std::unique_ptr<DeltaSlot>>
        delta_cache;
    std::vector<DeltaSlot*> delta_of(jobs.size(), nullptr);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (jobs[i].kind != SolverKind::kDeltaResolve) continue;
      std::unique_ptr<DeltaSlot>& slot = delta_cache[jobs[i].problem];
      if (slot == nullptr) slot = std::make_unique<DeltaSlot>();
      delta_of[i] = slot.get();
    }

    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const SolveJob& job = jobs[i];
      if (job.dense || job.problem == nullptr ||
          job.kind == SolverKind::kDeltaResolve) {
        continue;  // explicit tables stay dense
      }
      auto [it, inserted] = pwl_cache.try_emplace(job.problem, nullptr);
      if (inserted) {
        // A throwing cost function must fail *its* jobs, not the batch: a
        // probe fault leaves the instance unrouted, and the per-job
        // attempts re-hit and classify the error behind the isolation
        // boundary.
        try {
          if (std::optional<PwlProblem> built =
                  PwlProblem::try_convert(*job.problem)) {
            it->second =
                std::make_shared<const PwlProblem>(std::move(*built));
            stats.pwl_conversions += it->second->conversions();
          }
        } catch (...) {  // rs-lint: catch-all-ok (cache probe: a failed
                         // conversion is a miss; jobs classify their own)
          it->second = nullptr;
        }
      }
      if (it->second) {
        pwl_of[i] = it->second;
        ++stats.pwl_backed;
      }
    }

    // One shared table per distinct Problem that still needs rows, filled
    // on the engine's own executor (its pool, the global pool, or inline
    // for threads = 1).  The calling thread allocates every table first, so
    // the tables land in its malloc arena rather than in per-worker ones;
    // then one dispatch fills all of them in kFillRows-row chunks, and each
    // table is sealed (its per-row NaN flags reduced) before any job reads
    // it.  Sealed tables are immutable, so sharing them across the batch's
    // workers is safe.  Rows only: the batch kinds never query the
    // minimizer caches, and skipping them trims two O(m) scans per row.
    // A build fault (throwing cost function, failed allocation) fails only
    // its own table: that instance's jobs stream from the Problem, where
    // the per-job isolation classifies the error.
    std::vector<std::shared_ptr<const DenseProblem>> dense_of(jobs.size());
    constexpr std::size_t kNoTable = static_cast<std::size_t>(-1);
    std::vector<std::size_t> table_of(jobs.size(), kNoTable);
    std::unordered_map<const Problem*, std::size_t> table_index;
    std::vector<const Problem*> table_problems;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const SolveJob& job = jobs[i];
      if (job.kind == SolverKind::kDeltaResolve) continue;
      if (job.dense) {
        dense_of[i] = job.dense;
        continue;
      }
      // kLowMemory runs from a caller's table but never gets one built:
      // its O(m + T) memory contract streams the Problem instead.
      if (job.kind == SolverKind::kLowMemory) continue;
      if (pwl_of[i]) continue;  // served without rows
      const auto [it, inserted] =
          table_index.try_emplace(job.problem, table_problems.size());
      if (inserted) table_problems.push_back(job.problem);
      table_of[i] = it->second;
    }
    const std::size_t table_count = table_problems.size();
    std::vector<std::shared_ptr<DenseProblem>> tables(table_count);
    std::vector<std::atomic<bool>> table_failed(table_count);
    std::vector<std::pair<std::size_t, std::size_t>> chunks;  // (table, row)
    for (std::size_t k = 0; k < table_count; ++k) {
      try {
        tables[k] = std::make_shared<DenseProblem>(
            *table_problems[k], DenseProblem::Unfilled{},
            DenseProblem::MinimizerCache::kOnDemand);
      } catch (...) {  // rs-lint: catch-all-ok (allocation failure: the
                       // instance's jobs stream and classify their own)
        continue;
      }
      const auto rows = static_cast<std::size_t>(tables[k]->horizon());
      for (std::size_t row = 0; row < rows; row += kFillRows) {
        chunks.emplace_back(k, row);
      }
    }
    dispatch(chunks.size(), [&](std::size_t c) {
      const auto [k, first] = chunks[c];
      if (table_failed[k].load()) return;
      const Problem& problem = *table_problems[k];
      const std::size_t last = std::min(
          first + kFillRows, static_cast<std::size_t>(problem.horizon()));
      try {
        tables[k]->fill_rows(problem, first, last);
      } catch (...) {  // rs-lint: catch-all-ok (fails this table only; its
                       // jobs re-hit and classify the error)
        table_failed[k].store(true);
      }
    });
    for (std::size_t k = 0; k < table_count; ++k) {
      if (tables[k] == nullptr || table_failed[k].load()) {
        tables[k] = nullptr;
        continue;
      }
      try {
        tables[k]->seal();
        ++stats.dense_tables_built;
      } catch (...) {  // rs-lint: catch-all-ok (audit failure: the
                       // instance's jobs stream and classify their own)
        tables[k] = nullptr;
      }
    }
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      if (table_of[i] != kNoTable) dense_of[i] = tables[table_of[i]];
    }

    std::mutex stats_mutex;
    dispatch(jobs.size(), [&jobs, &result, &dense_of, &pwl_of, &delta_of,
                           &stats_mutex, &stats](std::size_t i) {
      run_isolated(jobs[i], dense_of[i].get(), pwl_of[i].get(), delta_of[i],
                   i, result.outcomes[i], stats_mutex, stats);
    });
    for (const SolveOutcome& outcome : result.outcomes) {
      if (!outcome.ok()) ++stats.failed_jobs;
    }
  });
  return result;
}

void SolverEngine::for_each(std::size_t n,
                            const std::function<void(std::size_t)>& fn,
                            BatchStats* stats) const {
  if (!fn) throw std::invalid_argument("SolverEngine::for_each: null fn");
  BatchStats local;
  with_batch_stats(local, n, threads(), [&]() { dispatch(n, fn); });
  if (stats != nullptr) *stats = local;
}

void SolverEngine::for_each_timed(std::size_t n,
                                  const std::function<void(std::size_t)>& fn,
                                  std::span<double> seconds,
                                  BatchStats* stats) const {
  if (!fn) {
    throw std::invalid_argument("SolverEngine::for_each_timed: null fn");
  }
  if (seconds.size() < n) {
    throw std::invalid_argument(
        "SolverEngine::for_each_timed: seconds span smaller than n");
  }
  BatchStats local;
  with_batch_stats(local, n, threads(), [&]() {
    dispatch(n, [&fn, seconds](std::size_t i) {
      const rs::util::Stopwatch watch;
      fn(i);
      seconds[i] = watch.seconds();
    });
  });
  if (stats != nullptr) *stats = local;
}

}  // namespace rs::engine
