#include "engine/solver_engine.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "core/slot_source.hpp"
#include "offline/backward_solver.hpp"
#include "offline/delta_session.hpp"
#include "offline/dp_solver.hpp"
#include "offline/work_function.hpp"
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

// The two passes jobs share, and the one-probe delta task.  Both kinds of
// a pass read the same slot source the same way: kDpCost and kDpSchedule
// one DP, kLcp and kLowMemory one work-function corridor.
enum class PassKind { kDp, kCorridor, kDelta };

PassKind pass_of(SolverKind kind) {
  if (kind == SolverKind::kDeltaResolve) return PassKind::kDelta;
  return kind == SolverKind::kDpCost || kind == SolverKind::kDpSchedule
             ? PassKind::kDp
             : PassKind::kCorridor;
}

// One task of a batch: the jobs that share one pass over one slot source —
// the cached forms, else the table, else the members' one Problem streamed.
// A kDelta pass has exactly one member.
struct Pass {
  PassKind kind = PassKind::kDp;
  const PwlProblem* pwl = nullptr;
  const DenseProblem* dense = nullptr;
  DeltaSlot* delta = nullptr;
  std::vector<std::size_t> members;  // job indices, ascending
  // The corridor labels over a streamed Problem: kAuto, or kDense for the
  // retry of a failed PWL pass, which must not run PWL again.
  rs::offline::WorkFunctionTracker::Backend labels =
      rs::offline::WorkFunctionTracker::Backend::kAuto;
};

// The outcome of a failed job: its status and error, nothing else.
SolveOutcome failed(SolveStatus status, std::string error) {
  SolveOutcome out;
  out.status = status;
  out.error = std::move(error);
  return out;
}

// Runs `fn` behind a fault boundary: nullopt when it returns, else the
// failure its exception classifies to.
template <typename Fn>
std::optional<SolveOutcome> guarded(Fn&& fn) {
  try {
    fn();
    return std::nullopt;
  } catch (const BackendFailureError& e) {
    return failed(SolveStatus::kBackendFailure, e.what());
  } catch (const std::invalid_argument& e) {
    return failed(SolveStatus::kInvalidInput, e.what());
  } catch (const std::domain_error& e) {
    return failed(SolveStatus::kInvalidInput, e.what());
  } catch (const std::exception& e) {
    return failed(SolveStatus::kException, e.what());
  } catch (...) {  // rs-lint: catch-all-ok (classified to kException)
    return failed(SolveStatus::kException, "unknown exception");
  }
}

// The pass's shared work behind the fault boundary of every live member (a
// member whose outcome is still ok): on a throw, each of them fails with
// the classified error, as each would have failed solving alone.
template <typename Step>
bool shared_step(const Pass& pass, std::span<SolveOutcome> outcomes,
                 Step&& step) {
  const std::optional<SolveOutcome> failure = guarded(step);
  if (!failure) return true;
  for (const std::size_t i : pass.members) {
    if (outcomes[i].ok()) outcomes[i] = *failure;
  }
  return false;
}

// One member's own part behind its own fault boundary: `fill` writes the
// cost (and schedule) from the shared pass.  A NaN total cost is demoted to
// kInvalidInput here so poisoned instances that slip through a solver
// without throwing still fail *their* job instead of polluting the batch.
template <typename Fill>
void finish([[maybe_unused]] const SolveJob& job, SolveOutcome& out,
            Fill&& fill) {
  std::optional<SolveOutcome> failure = guarded([&]() {
    fill(out);
    if (std::isnan(out.cost)) {
      throw std::invalid_argument("solver produced a NaN total cost");
    }
    // A kOk outcome contract audit (DESIGN.md §13): schedule-producing
    // kinds return one state per slot, every state inside [0, m], and
    // extended-real costs never go negative or -inf.
    RS_AUDIT({
      namespace audit = rs::util::audit;
      audit::require(!(out.cost < 0.0), "engine-outcome-cost-nonnegative",
                     "finish");
      if (!out.schedule.empty() && job.problem != nullptr) {
        audit::require(out.schedule.size() ==
                           static_cast<std::size_t>(job.problem->horizon()),
                       "engine-outcome-schedule-shape", "finish");
        const int m = job.problem->max_servers();
        for (const int x : out.schedule) {
          audit::require(0 <= x && x <= m, "engine-outcome-schedule-in-range",
                         "finish");
        }
      }
    });
  });
  if (failure) out = std::move(*failure);
}

// Solves a pass for its live members.
void solve_pass(const Pass& pass, std::span<const SolveJob> jobs,
                std::span<SolveOutcome> outcomes, std::mutex& stats_mutex,
                BatchStats& stats) {
  using rs::core::SlotSource;
  const SlotSource source =
      pass.pwl     ? SlotSource(*pass.pwl)
      : pass.dense ? SlotSource(*pass.dense)
                   : SlotSource(*jobs[pass.members.front()].problem);
  switch (pass.kind) {
    case PassKind::kDp: {
      // One DP gives every member its answer; a kDpCost member takes the
      // schedule DP's cost, bitwise the cost-only DP's.
      const bool want_schedule = std::any_of(
          pass.members.begin(), pass.members.end(), [&](std::size_t i) {
            return outcomes[i].ok() && jobs[i].kind == SolverKind::kDpSchedule;
          });
      rs::offline::OfflineResult shared;
      if (!shared_step(pass, outcomes, [&]() {
            if (want_schedule) {
              shared = rs::offline::DpSolver().solve(source);
            } else {
              shared.cost = rs::offline::DpSolver().solve_cost(source);
            }
          })) {
        return;
      }
      for (const std::size_t i : pass.members) {
        if (!outcomes[i].ok()) continue;
        finish(jobs[i], outcomes[i], [&](SolveOutcome& out) {
          out.cost = shared.cost;
          if (jobs[i].kind == SolverKind::kDpSchedule) {
            out.schedule = shared.schedule;
          }
        });
      }
      return;
    }
    case PassKind::kCorridor: {
      // One tracker pass: kLcp projects forward through the corridor, the
      // other kinds backward, with the cost min Ĉ^L_T.
      rs::offline::BoundTrajectory bounds;
      std::optional<rs::offline::WorkFunctionTracker> tracker;
      if (!shared_step(pass, outcomes, [&]() {
            tracker.emplace(
                rs::offline::track_slots(source, pass.labels, &bounds));
          })) {
        return;
      }
      for (const std::size_t i : pass.members) {
        if (!outcomes[i].ok()) continue;
        finish(jobs[i], outcomes[i], [&](SolveOutcome& out) {
          if (jobs[i].kind == SolverKind::kLcp) {
            out.schedule = rs::online::lcp_schedule(bounds);
            // Priced on the table when there is one, else on the Problem
            // (also for PWL-routed jobs, whose cost bits thus match a solo
            // replay).
            out.cost = rs::core::total_cost(
                pass.dense ? SlotSource(*pass.dense)
                           : SlotSource(*jobs[i].problem),
                out.schedule);
          } else {
            const bool schedule = jobs[i].kind != SolverKind::kDpCost;
            rs::offline::OfflineResult result = rs::offline::corridor_optimum(
                *tracker, schedule ? &bounds : nullptr);
            out.cost = result.cost;
            out.schedule = std::move(result.schedule);
          }
        });
      }
      return;
    }
    case PassKind::kDelta: {
      const std::size_t i = pass.members.front();
      DeltaSlot& delta = *pass.delta;
      finish(jobs[i], outcomes[i], [&](SolveOutcome& out) {
        {
          const std::lock_guard<std::mutex> lock(delta.mutex);
          if (!delta.session.has_value()) {
            delta.session.emplace(*jobs[i].problem);  // one base solve
          }
        }
        rs::offline::DpDeltaSession::DeltaStats ds;
        rs::offline::OfflineResult result = delta.session->probe_delta(
            jobs[i].edit_slot, jobs[i].edit_cost, &ds);
        out.cost = result.cost;
        out.schedule = std::move(result.schedule);
        const std::lock_guard<std::mutex> stats_lock(stats_mutex);
        stats.slots_repaired += static_cast<std::size_t>(ds.slots_repaired);
        if (ds.early_exit) ++stats.early_exits;
      });
      return;
    }
  }
}

// The batch's one task runner, and its fault boundary: nothing a pass does
// can escape it, and each member gets its own outcome.  A member whose own
// fault site fires fails alone and the rest share the pass.  A failed
// member of a PWL-routed pass gets one dense-streaming retry, a pass of its
// own over the Problem (no table build in the worker): the table DP for the
// DP kinds, dense corridor labels for the others.  It is recorded as a
// DegradeEvent; a failure on the final attempt becomes a non-kOk outcome
// with an empty schedule.
void run_pass(const Pass& pass, std::span<const SolveJob> jobs,
              std::span<SolveOutcome> outcomes, std::mutex& stats_mutex,
              BatchStats& stats) {
  const bool on_pwl = pass.pwl != nullptr;
  bool any_live = false;
  for (const std::size_t i : pass.members) {
    outcomes[i] = SolveOutcome{};
    if (rs::util::fault_fires(on_pwl ? rs::util::FaultSite::kPwlBackend
                                     : rs::util::FaultSite::kDenseBackend,
                              i)) {
      outcomes[i] = failed(SolveStatus::kBackendFailure,
                           on_pwl ? "injected fault: PWL backend"
                                  : "injected fault: dense backend");
    } else {
      any_live = true;
    }
  }
  if (any_live) solve_pass(pass, jobs, outcomes, stats_mutex, stats);
  if (!on_pwl) return;
  for (const std::size_t i : pass.members) {
    if (outcomes[i].ok() || jobs[i].problem == nullptr) continue;
    std::string first_error = std::move(outcomes[i].error);
    run_pass(Pass{pass_of(jobs[i].kind), nullptr, nullptr, nullptr, {i},
                  rs::offline::WorkFunctionTracker::Backend::kDense},
             jobs, outcomes, stats_mutex, stats);
    if (outcomes[i].ok()) {
      const std::lock_guard<std::mutex> lock(stats_mutex);
      stats.degrade_events.push_back(DegradeEvent{i, std::move(first_error)});
    }
  }
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
    if (job.problem != nullptr && job.dense != nullptr &&
        (job.dense->horizon() != job.problem->horizon() ||
         job.dense->max_servers() != job.problem->max_servers() ||
         job.dense->beta() != job.problem->beta())) {
      throw std::invalid_argument(
          "SolverEngine::run: job's dense table differs from its Problem in "
          "T, m or beta");
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
    std::unordered_set<const Problem*> probe_threw;
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
          probe_threw.insert(job.problem);
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
    // workers is safe.  A build fault (throwing cost function, failed
    // allocation) fails only its own table: that instance's jobs stream
    // from the Problem, where the per-job isolation classifies the error.
    std::vector<std::shared_ptr<const DenseProblem>> dense_of(jobs.size());
    std::unordered_map<const Problem*, std::size_t> table_index;
    std::vector<const Problem*> table_problems;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const SolveJob& job = jobs[i];
      if (job.kind == SolverKind::kDeltaResolve) continue;
      if (job.dense) {
        dense_of[i] = job.dense;
        continue;
      }
      // PWL-routed jobs need no rows, and kLowMemory never causes a table
      // (its O(m + T) memory contract); it may read one, below.
      if (pwl_of[i] || job.kind == SolverKind::kLowMemory) continue;
      if (table_index.try_emplace(job.problem, table_problems.size()).second) {
        table_problems.push_back(job.problem);
      }
    }
    const std::size_t table_count = table_problems.size();
    std::vector<std::shared_ptr<DenseProblem>> tables(table_count);
    std::vector<std::atomic<bool>> table_failed(table_count);
    std::vector<std::pair<std::size_t, std::size_t>> chunks;  // (table, row)
    for (std::size_t k = 0; k < table_count; ++k) {
      try {
        tables[k] = std::make_shared<DenseProblem>(*table_problems[k],
                                                   DenseProblem::Unfilled{});
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
    // Jobs on a Problem read its table when one was built.  So does a
    // kLowMemory job: the probe found a slot with no compact form, so its
    // own solve would run dense labels from slot 1 (track_slots), bitwise
    // the table's pass.  After a probe that threw it streams instead, to
    // meet the error itself.
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const SolveJob& job = jobs[i];
      if (dense_of[i] || pwl_of[i] || job.kind == SolverKind::kDeltaResolve ||
          (job.kind == SolverKind::kLowMemory &&
           probe_threw.contains(job.problem))) {
        continue;
      }
      const auto it = table_index.find(job.problem);
      if (it != table_index.end()) dense_of[i] = tables[it->second];
    }

    // One pass per (slot source, pass kind): jobs on one instance that
    // read the same source share its DP and its corridor.
    std::vector<Pass> passes;
    std::map<std::pair<const void*, PassKind>, std::size_t> pass_index;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      // On cached forms the DP *is* the corridor solve (DpSolver runs
      // corridor_solve on a PwlProblem), so there every kind shares it.
      const PassKind kind =
          pwl_of[i] ? PassKind::kCorridor : pass_of(jobs[i].kind);
      if (kind != PassKind::kDelta) {
        const void* source = jobs[i].problem;
        if (dense_of[i]) source = dense_of[i].get();
        if (pwl_of[i]) source = pwl_of[i].get();
        const auto [it, inserted] =
            pass_index.try_emplace({source, kind}, passes.size());
        if (!inserted) {
          passes[it->second].members.push_back(i);
          continue;
        }
      }
      passes.push_back(Pass{kind, pwl_of[i].get(), dense_of[i].get(),
                            delta_of[i], {i}});
    }

    std::mutex stats_mutex;
    dispatch(passes.size(), [&](std::size_t k) {
      run_pass(passes[k], jobs, result.outcomes, stats_mutex, stats);
    });
    // Retries land in completion order; the stats list them by job.
    std::sort(stats.degrade_events.begin(), stats.degrade_events.end(),
              [](const DegradeEvent& a, const DegradeEvent& b) {
                return a.job < b.job;
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
