// Batch solver engine: throughput (instances/sec) as a first-class quantity.
//
// The fleet-style consumers of this library — Monte-Carlo trials,
// competitive-ratio sweeps, adversary search — issue thousands of small
// solves whose wall-clock is dominated by amortizable per-instance
// overhead, not single-solve asymptotics.  SolverEngine batches them:
//
//   * jobs are (instance, solver kind) pairs submitted N at a time;
//   * each distinct Problem is materialized into one shared DenseProblem
//     (immutable once sealed, thread-safe), so K jobs on the same instance
//     evaluate its cost rows once instead of K times; the rows are filled
//     in chunks on the same executor the jobs run on;
//   * jobs that read the same slot source share one solve pass over it:
//     kDpCost and kDpSchedule one DP, kLcp and kLowMemory one
//     work-function corridor (LCP projects forward through it, the
//     Lemma-11 solve backward; on cached PWL forms all four kinds share
//     it).  Each job keeps its own fault-site check, NaN demotion, outcome
//     audit, error classification and PWL retry;
//   * passes run with dynamic scheduling across a ThreadPool (the global
//     pool, a dedicated pool, or inline for threads = 1), and every solver
//     draws its scratch from the per-thread workspace arenas
//     (util/workspace.hpp), so a warm batch performs zero allocations in
//     the solve loops;
//   * every batch reports BatchStats: instances/sec, wall time, thread
//     count, dense tables built, and the workspace-growth delta (the
//     allocation-free flag the throughput benchmarks and warm-arena tests
//     key on).
//
// Results are written by job index, so batch outcomes are bit-identical to
// sequential solo solves and deterministic under any thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/dense_problem.hpp"
#include "core/problem.hpp"
#include "core/pwl_problem.hpp"
#include "core/schedule.hpp"
#include "util/thread_pool.hpp"

namespace rs::engine {

/// Which solver a job runs.  All kinds produce a SolveOutcome; cost-only
/// kinds leave the schedule empty.
enum class SolverKind {
  kDpCost,        // DpSolver::solve_cost — O(m) memory, cost only
  kDpSchedule,    // DpSolver::solve — cost + optimal schedule
  kLcp,           // LCP replay — schedule + its total cost
  kLowMemory,     // LowMemorySolver — O(m + T) memory, never causes a table
  kDeltaResolve,  // what-if probe on a shared DpDeltaSession (see SolveJob)
};

/// One batch entry.  `problem` is non-owning and must outlive run(); jobs
/// may alternatively (or additionally) carry a pre-built dense table of the
/// same instance (same T, m and β).  Every kind but kDeltaResolve uses
/// `dense` when present; otherwise the engine serves `problem` from its
/// shared materialization.  kLowMemory never causes a table (its O(m + T)
/// memory contract) but reads one its sibling jobs caused: then some slot
/// has no compact convex-PWL form, so its streamed solve would run dense
/// labels from slot 1 too (offline::track_slots) and equals the table's
/// bitwise.  After a PWL probe that threw it streams the Problem.
///
/// kDeltaResolve answers "what if slot `edit_slot` of `problem` cost
/// `edit_cost` instead?": the batch lazily base-solves each distinct
/// instance into ONE shared offline::DpDeltaSession (the analog of the
/// shared dense table), and every probe repairs forward from its edited
/// slot — with the bitwise reconvergence early-exit — instead of
/// re-solving the horizon.  Outcomes are bit-identical to a from-scratch
/// solve of the edited instance and independent of probe order (probes
/// never write the session).  Requires `problem`, a non-null
/// `edit_cost`, and `edit_slot` in [1, horizon]; repair work lands in
/// BatchStats::slots_repaired / early_exits.
struct SolveJob {
  const rs::core::Problem* problem = nullptr;
  std::shared_ptr<const rs::core::DenseProblem> dense = nullptr;
  SolverKind kind = SolverKind::kDpCost;
  int edit_slot = 0;                       // kDeltaResolve: 1-based edited slot
  rs::core::CostPtr edit_cost = nullptr;   // kDeltaResolve: replacement cost
};

/// Per-job terminal status.  A batch never loses a job to another job's
/// fault: every submitted job gets exactly one outcome, and anything that
/// goes wrong *inside* a job is classified here instead of escaping run().
enum class SolveStatus {
  kOk = 0,
  /// The job's own input is unusable: malformed instance, NaN slot costs,
  /// a solver precondition violated (std::invalid_argument / domain_error),
  /// or a NaN total cost.  Deterministic — resubmitting cannot succeed.
  kInvalidInput,
  /// A solver backend failed (BackendFailureError), e.g. under fault
  /// injection.  PWL-routed jobs get one dense-streaming retry first.
  kBackendFailure,
  /// Any other exception out of job execution (the catch-all that keeps a
  /// poisoned job from killing the batch); `error` carries what().
  kException,
};

const char* to_string(SolveStatus status) noexcept;

/// Thrown by solver backends to signal an environmental (possibly
/// transient) failure as opposed to bad input; the engine's fault-injection
/// sites throw it, and it is the one status the dense fallback retries.
class BackendFailureError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One PWL-routed job that failed and was recovered by the dense-streaming
/// fallback; `reason` is the original failure message.
struct DegradeEvent {
  std::size_t job = 0;
  std::string reason;
};

struct SolveOutcome {
  double cost = 0.0;
  rs::core::Schedule schedule;  // empty for kDpCost
  SolveStatus status = SolveStatus::kOk;
  std::string error;  // empty iff ok()
  bool ok() const noexcept { return status == SolveStatus::kOk; }
};

struct BatchStats {
  std::size_t jobs = 0;
  std::size_t threads = 1;
  std::size_t dense_tables_built = 0;  // distinct instances materialized
  // Jobs served by the m-independent convex-PWL backend.  The engine
  // probes each distinct Problem by building a shared core::PwlProblem
  // (the probe IS the cache — its forms are kept, not discarded) and
  // routes every job kind of an admitting instance there, skipping the
  // dense table for that instance entirely — the selection that makes
  // million-server batch entries feasible.  Jobs carrying an explicit
  // pre-built table always run dense.
  std::size_t pwl_backed = 0;
  // Slot-to-ConvexPwl conversions performed this batch: exactly one per
  // slot per admitting distinct instance, however many jobs share it (the
  // one-conversion-per-slot invariant the regression tests assert).
  std::size_t pwl_conversions = 0;
  // kDeltaResolve accounting: tracker advances re-executed by the batch's
  // repairs (excludes each instance's one-time base solve), and how many
  // probes hit the bitwise reconvergence early-exit.  The repair-vs-replay
  // win of a batch is roughly jobs·T versus slots_repaired.
  std::size_t slots_repaired = 0;
  std::size_t early_exits = 0;
  double total_seconds = 0.0;
  double instances_per_second = 0.0;
  // Workspace growth events during the batch, summed over all threads; 0
  // means the batch ran allocation-free out of warm arenas.  The counter
  // is process-global, so concurrent workspace activity *outside* this
  // batch (another engine running in parallel) is attributed to it —
  // interpret the flag under one batch at a time, which is how the
  // benchmarks and tests measure it.
  std::uint64_t workspace_growths = 0;
  // Jobs whose outcome ended with status != kOk (after any retry); the
  // batch itself still completes and every other outcome is valid.
  std::size_t failed_jobs = 0;
  // PWL-routed jobs recovered by the dense-streaming fallback, in job
  // order.  Empty on every healthy batch (the vector never allocates on
  // the happy path, preserving the allocation-free steady state).
  std::vector<DegradeEvent> degrade_events;
  bool allocation_free() const noexcept { return workspace_growths == 0; }
};

struct BatchResult {
  std::vector<SolveOutcome> outcomes;  // outcome i belongs to job i
  BatchStats stats;
};

class SolverEngine {
 public:
  struct Options {
    /// 0 = share the process-wide pool; 1 = run inline on the calling
    /// thread (deterministic, no cross-thread handoff — shared tables are
    /// filled inline too); N > 1 = dedicated pool with N workers owned by
    /// this engine.  Jobs and table fills run on the same executor.
    std::size_t threads = 0;
  };

  SolverEngine() : SolverEngine(Options{}) {}
  explicit SolverEngine(Options options);

  /// Runs every job and returns outcomes by job index plus batch stats.
  ///
  /// Fault isolation: *structural* job errors — no instance, a table whose
  /// T, m or β differ from the job's Problem, a kDeltaResolve job without
  /// a Problem or with a malformed edit — are caller bugs and throw
  /// std::invalid_argument before anything runs.
  /// Faults *during* execution (throwing cost functions, NaN costs, backend
  /// failures) never escape: the affected job's outcome carries a non-kOk
  /// SolveStatus and the error message, every other job completes
  /// unaffected, and stats.failed_jobs counts the casualties.  Jobs routed
  /// to the PWL backend get one dense-streaming retry on failure, recorded
  /// in stats.degrade_events.
  BatchResult run(std::span<const SolveJob> jobs) const;
  BatchResult run(const std::vector<SolveJob>& jobs) const {
    return run(std::span<const SolveJob>(jobs));
  }

  /// Generic batched harness: runs fn(0..n-1) with the engine's scheduling
  /// and records the same batch stats (jobs = n).  Monte-Carlo trials and
  /// SweepRunner grids run through here so their throughput is measured
  /// the same way as typed solver batches.
  void for_each(std::size_t n, const std::function<void(std::size_t)>& fn,
                BatchStats* stats = nullptr) const;

  /// for_each with per-item wall times: fn(i)'s duration on its executing
  /// worker lands in seconds[i] (seconds.size() >= n).  The fleet
  /// controller's tick dispatch runs through here, so per-tenant step
  /// times and the batch-level stats come from the same measurement
  /// bracketing as every other engine entry point.
  void for_each_timed(std::size_t n,
                      const std::function<void(std::size_t)>& fn,
                      std::span<double> seconds,
                      BatchStats* stats = nullptr) const;

  /// Worker count the batch runs on: the pool's workers plus the calling
  /// thread, which drains work beside them (1 for inline mode).
  std::size_t threads() const noexcept;

  const Options& options() const noexcept { return options_; }

 private:
  void dispatch(std::size_t n,
                const std::function<void(std::size_t)>& fn) const;

  Options options_;
  std::unique_ptr<rs::util::ThreadPool> pool_;  // only when threads > 1
};

}  // namespace rs::engine
