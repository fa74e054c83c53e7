// Discrete Lazy Capacity Provisioning (Section 3, Theorem 2).
//
//   x^LCP_0 = 0,   x^LCP_τ = [ x^LCP_{τ-1} ]^{x^U_τ}_{x^L_τ}   (eq. 13)
//
// where x^L_τ / x^U_τ are the smallest/largest minimizers of the work
// functions Ĉ^L_τ / Ĉ^U_τ (Section 3.1).  The algorithm changes its state
// only when forced out of the [x^L, x^U] corridor — it is 3-competitive and,
// by Theorem 4, optimally so among deterministic online algorithms for the
// discrete problem.
//
// The work-function tracker behind decide() auto-selects its backend: on
// instances whose slot costs admit compact convex-PWL forms every step is
// O(B log K) in breakpoint counts — independent of m, the configuration
// that scales LCP to 10⁵-10⁶ servers (see bench_scaling, E13) — and
// otherwise it runs the dense O(m) three-pass update.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "offline/work_function.hpp"
#include "online/online_algorithm.hpp"

namespace rs::online {

class Lcp final : public OnlineAlgorithm {
 public:
  /// `backend` pins the tracker backend; kAuto (default) selects per
  /// instance as described above.  kDense is the reference path (and the
  /// baseline the scaling benchmarks compare against); kPwl throws on
  /// costs without a compact convex-PWL form.
  explicit Lcp(rs::offline::WorkFunctionTracker::Backend backend =
                   rs::offline::WorkFunctionTracker::Backend::kAuto)
      : backend_(backend) {}

  std::string name() const override { return "lcp"; }
  void reset(const OnlineContext& context) override;
  int decide(const rs::core::CostPtr& f,
             std::span<const rs::core::CostPtr> lookahead) override;

  /// Bounds of the most recent step (for diagnostics and the Lemma-12/13
  /// structure tests).
  int last_lower() const { return last_lower_; }
  int last_upper() const { return last_upper_; }

  /// Decides `count` consecutive slots sharing one cost function — the
  /// streaming-serving primitive behind RLE tenant ingest.  The tracker
  /// advances once through advance_repeated (closed-form on the PWL
  /// backend), and the eq. 13 projection runs per slot, so decisions and
  /// corridor bounds are bit-identical to `count` individual decide(f)
  /// calls.  decisions/lower/upper receive one entry per slot and must
  /// each hold at least `count`; requires reset() (or restore()) first.
  void decide_run(const rs::core::CostFunction& f, int count,
                  std::span<int> decisions, std::span<int> lower,
                  std::span<int> upper);

  /// Same, with f already in exact convex-PWL form — the entry point for
  /// the fleet's shared cross-tenant conversion cache (fleet/form_cache.hpp):
  /// tenants sharing a slot cost convert it once and every session consumes
  /// the cached form.  Decisions are bit-identical to the CostFunction
  /// overload (the tracker consumes the identical form either way).
  void decide_run(const rs::core::ConvexPwl& f, int count,
                  std::span<int> decisions, std::span<int> lower,
                  std::span<int> upper);

  /// Keeps a rewind buffer of the last `capacity` decide/decide_run inputs
  /// on the underlying tracker (offline/work_function.hpp §rewind), the
  /// state behind TenantSession::what_if probes.  Survives reset()/
  /// restore() (re-enabled on the fresh tracker; rewind state itself is
  /// never checkpointed).  Pass 0 to disable.
  void enable_what_if(int capacity);

  /// The live tracker (nullptr before the first reset()/restore()) — read
  /// only; what-if consumers clone() it rather than mutate it.
  const rs::offline::WorkFunctionTracker* tracker() const noexcept {
    return tracker_.has_value() ? &*tracker_ : nullptr;
  }

  /// The eq. 13 projection state x^LCP of the most recent slot.
  int current_state() const noexcept { return current_; }

  /// Permanently switches the underlying tracker to the dense streaming
  /// backend, materializing the current work function — the fleet
  /// controller's PWL → dense degradation rung.  Returns false when this
  /// session cannot degrade (constructed with the forced-kPwl backend, or
  /// not reset yet); subsequent decisions agree with the PWL path up to FP
  /// association order (bitwise on integer-valued instances, DESIGN.md §8).
  bool degrade_to_dense();

  /// Serialized session state (core/checkpoint.hpp container, kind
  /// kLcpCheckpointKind): the eq. 13 projection state plus the embedded
  /// work-function tracker snapshot.  A session restored at slot t decides
  /// the remaining slots bitwise-identically to the uninterrupted run.
  std::vector<std::uint8_t> snapshot() const;

  /// Replaces this session's state from snapshot() bytes, the crash-recovery
  /// counterpart of reset().  `context` must match the snapshotted session
  /// — same m, beta, and constructed backend — else
  /// core::CheckpointMismatchError; malformed or corrupted bytes raise the
  /// reader's typed errors and leave no partially-restored state observable
  /// (the session is only mutated after full validation).
  void restore(const OnlineContext& context,
               std::span<const std::uint8_t> bytes);

 private:
  // Both decide_run overloads: validate, advance, project (eq. 13).
  template <typename Slot>
  void decide_run_impl(const Slot& f, int count, std::span<int> decisions,
                       std::span<int> lower, std::span<int> upper);

  rs::offline::WorkFunctionTracker::Backend backend_;
  // In-place tracker (workspace-backed): reset() re-emplaces without a heap
  // allocation, so replay harnesses can reset per run for free.
  std::optional<rs::offline::WorkFunctionTracker> tracker_;
  int current_ = 0;
  int last_lower_ = 0;
  int last_upper_ = 0;
  int what_if_capacity_ = 0;  // > 0: keep a rewind buffer on the tracker
};

/// Eq. 13 over a corridor sequence: starting from `state` (x^LCP_{τ-1}),
/// projects into [lower[i], upper[i]] for each slot i in order, writes each
/// x^LCP into decisions[i] when `decisions` is non-empty, and returns the
/// final state.  The one implementation of the LCP projection: Lcp,
/// run_lcp, WindowedLcp and the fleet's what-if probes all call it.
/// Requires lower.size() == upper.size() (and decisions, when given, at
/// least as long).
int project_corridor(int state, std::span<const int> lower,
                     std::span<const int> upper, std::span<int> decisions = {});

/// Replays LCP over any input form: the corridor of compute_bounds(source,
/// backend) projected through eq. 13.  The form decides the backend of
/// materialized inputs (rows run dense, forms run PWL); `backend` applies
/// to Problem and RleProblem sources, and an RleProblem advances the
/// tracker once per run.  Produces the same schedule as run_online(
/// Lcp(backend), p) on the instance — bit-identical across the forms.
rs::core::Schedule run_lcp(
    const rs::core::SlotSource& source,
    rs::offline::WorkFunctionTracker::Backend backend =
        rs::offline::WorkFunctionTracker::Backend::kAuto);

/// run_lcp over pre-materialized rows.
rs::core::Schedule run_lcp_dense(const rs::core::DenseProblem& dense);

/// run_lcp over cached convex-PWL forms.
rs::core::Schedule run_lcp_pwl(const rs::core::PwlProblem& pwl);

}  // namespace rs::online
