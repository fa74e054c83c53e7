#include "engine/solver_engine.hpp"

#include <algorithm>
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
using rs::core::SlotSource;

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

// One shared delta session per distinct instance with kDeltaResolve jobs.
// The mutex guards only the lazy base solve, which happens inside the first
// probe behind the same job fault boundary.  Probes are const on the
// session and replay off to the side, so once it exists, probes on one
// instance run concurrently.
struct DeltaSlot {
  std::mutex mutex;
  std::optional<rs::offline::DpDeltaSession> session;
};

// The passes jobs share, and the one-probe delta task.  A dense pass steps
// an instance's rows once for all four kinds; a corridor pass runs the
// work-function tracker, over cached PWL forms (all four kinds) or over a
// streamed Problem with kAuto labels (a lone kLowMemory job whose PWL probe
// threw).
enum class PassKind { kDense, kCorridor, kDelta };

bool is_dp(SolverKind kind) {
  return kind == SolverKind::kDpCost || kind == SolverKind::kDpSchedule;
}

// One task of a batch: the jobs that share one pass over one slot source —
// the cached forms, else the caller's table, else the members' one Problem
// streamed.  A kDelta pass has exactly one member.
struct Pass {
  PassKind kind = PassKind::kDense;
  const PwlProblem* pwl = nullptr;
  const DenseProblem* dense = nullptr;
  DeltaSlot* delta = nullptr;
  std::vector<std::size_t> members;  // job indices, ascending
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

// A corridor member's answer from its pass: the corridor `bounds` and the
// labels' minimum `cost`.  kLcp projects forward through the corridor and
// prices its schedule on the job's table when it has one, else on its
// Problem (also for PWL-routed jobs, whose cost bits thus match a solo
// replay); the other kinds take the Lemma-11 solve, kDpCost without the
// backward projection.
void finish_corridor(const SolveJob& job, const Pass& pass, SolveOutcome& out,
                     const rs::offline::BoundTrajectory& bounds, double cost) {
  finish(job, out, [&](SolveOutcome& o) {
    if (job.kind == SolverKind::kLcp) {
      o.schedule = rs::online::lcp_schedule(bounds);
      o.cost = rs::core::total_cost(pass.dense ? SlotSource(*pass.dense)
                                               : SlotSource(*job.problem),
                                    o.schedule);
      return;
    }
    rs::offline::OfflineResult result = rs::offline::corridor_optimum(
        cost, job.kind != SolverKind::kDpCost ? &bounds : nullptr);
    o.cost = result.cost;
    o.schedule = std::move(result.schedule);
  });
}

// The live `members` of a pass share one tracker pass over `source` with
// `labels`; a throw there fails each of them with the classified error, as
// each would have failed solving alone.
void corridor_pass(const Pass& pass, std::span<const std::size_t> members,
                   const SlotSource& source,
                   rs::offline::WorkFunctionTracker::Backend labels,
                   std::span<const SolveJob> jobs,
                   std::span<SolveOutcome> outcomes) {
  rs::offline::BoundTrajectory bounds;
  double cost = 0.0;
  const std::optional<SolveOutcome> failure = guarded([&]() {
    const rs::offline::WorkFunctionTracker tracker =
        rs::offline::track_slots(source, labels, &bounds);
    cost = tracker.tau() == 0 ? 0.0 : tracker.chat_min();
  });
  for (const std::size_t i : members) {
    if (!outcomes[i].ok()) continue;
    if (failure) {
      outcomes[i] = *failure;
    } else {
      finish_corridor(jobs[i], pass, outcomes[i], bounds, cost);
    }
  }
}

// The dense pass: one offline::dense_pass over the source's rows writes the
// labels, the parents while a kDpSchedule member is live and the corridor
// while a kLcp or kLowMemory member is.  The DP members take its cost (a
// kDpCost member's is bitwise the cost-only DP's) and schedule, and every
// other member the corridor, exactly as the dense tracker would give it.
// On a poisoned or throwing instance the DP members keep the pass's answer
// (a NaN cost, or the throw), as the DP alone gives it, and the corridor
// members rerun the tracker's own pass, so each meets its fault (the
// tracker's NaN message, or the throw) as it would alone.
void dense_members(const Pass& pass, const SlotSource& source,
                   std::span<const SolveJob> jobs,
                   std::span<SolveOutcome> outcomes) {
  bool want_schedule = false;
  bool want_corridor = false;
  for (const std::size_t i : pass.members) {
    if (!outcomes[i].ok()) continue;
    want_schedule = want_schedule || jobs[i].kind == SolverKind::kDpSchedule;
    want_corridor = want_corridor || !is_dp(jobs[i].kind);
  }
  rs::offline::BoundTrajectory bounds;
  rs::offline::OfflineResult shared;
  const std::optional<SolveOutcome> failure = guarded([&]() {
    shared = rs::offline::dense_pass(source, want_schedule,
                                     want_corridor ? &bounds : nullptr);
  });
  const bool corridor_ok = !failure && !std::isnan(shared.cost);
  std::vector<std::size_t> rerun;
  for (const std::size_t i : pass.members) {
    if (!outcomes[i].ok()) continue;
    if (!is_dp(jobs[i].kind)) {
      if (corridor_ok) {
        finish_corridor(jobs[i], pass, outcomes[i], bounds, shared.cost);
      } else {
        rerun.push_back(i);
      }
    } else if (failure) {
      outcomes[i] = *failure;
    } else {
      finish(jobs[i], outcomes[i], [&](SolveOutcome& out) {
        out.cost = shared.cost;
        if (jobs[i].kind == SolverKind::kDpSchedule) {
          out.schedule = shared.schedule;
        }
      });
    }
  }
  if (!rerun.empty()) {
    corridor_pass(pass, rerun, source,
                  rs::offline::WorkFunctionTracker::Backend::kDense, jobs,
                  outcomes);
  }
}

// Solves a pass for its live members.
void solve_pass(const Pass& pass, std::span<const SolveJob> jobs,
                std::span<SolveOutcome> outcomes, std::mutex& stats_mutex,
                BatchStats& stats) {
  const SlotSource source =
      pass.pwl     ? SlotSource(*pass.pwl)
      : pass.dense ? SlotSource(*pass.dense)
                   : SlotSource(*jobs[pass.members.front()].problem);
  switch (pass.kind) {
    case PassKind::kDense:
      dense_members(pass, source, jobs, outcomes);
      return;
    case PassKind::kCorridor:
      corridor_pass(pass, pass.members, source,
                    rs::offline::WorkFunctionTracker::Backend::kAuto, jobs,
                    outcomes);
      return;
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
// member of a PWL-routed pass gets one dense-streaming retry, a dense pass
// of its own over the Problem, which converts nothing.  It is recorded as a
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
    run_pass(Pass{PassKind::kDense, nullptr, nullptr, nullptr, {i}}, jobs,
             outcomes, stats_mutex, stats);
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

  // The timed window covers the PWL probe too — a batch's throughput
  // includes the cost of converting its forms.
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
    // instance; they never touch the PWL probe or the shared passes (the
    // session's tracker IS the instance's pass).
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

    // One pass per (slot source, pass kind): the jobs on an instance that
    // did not convert share one dense pass over its rows — the caller's
    // table, else the Problem streamed, each row evaluated once — so no
    // table is built.  A kLowMemory job whose probe threw streams the
    // Problem on its own with kAuto labels instead, meeting the conversion
    // error as it would alone.
    std::vector<Pass> passes;
    std::map<std::pair<const void*, PassKind>, std::size_t> pass_index;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const SolveJob& job = jobs[i];
      PassKind kind = PassKind::kDense;
      const void* source = job.problem;
      if (job.kind == SolverKind::kDeltaResolve) {
        kind = PassKind::kDelta;
      } else if (job.dense) {
        source = job.dense.get();
      } else if (pwl_of[i]) {
        kind = PassKind::kCorridor;
        source = pwl_of[i].get();
      } else if (job.kind == SolverKind::kLowMemory &&
                 probe_threw.contains(job.problem)) {
        kind = PassKind::kCorridor;
      }
      if (kind != PassKind::kDelta) {
        const auto [it, inserted] =
            pass_index.try_emplace({source, kind}, passes.size());
        if (!inserted) {
          passes[it->second].members.push_back(i);
          continue;
        }
      }
      passes.push_back(Pass{kind, pwl_of[i].get(), job.dense.get(),
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
