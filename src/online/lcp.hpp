// Discrete Lazy Capacity Provisioning (Section 3, Theorem 2), with an
// optional finite prediction window (Sections 3 and 5.4).
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
// O(K + B) in breakpoint counts — independent of m, the configuration
// that scales LCP to 10⁵-10⁶ servers (see bench_scaling, E13) — and
// otherwise it runs the dense O(m) three-pass update.
//
// A prediction window is simply the lookahead decide() is handed.  When at
// time τ the session also knows f_{τ+1}..f_{τ+w}, the bounds become, after
// Lin et al., the τ-th components of optimal solutions of the
// horizon-(τ+w) truncated problems:
//
//   x^{L,w}_τ = smallest x_τ over minimizers of C^L_{τ+w}
//   x^{U,w}_τ = largest  x_τ over minimizers of C^U_{τ+w}
//
// computed as argmin_x [ Ĉ^B_τ(x) + D^B_τ(x) ], where D^B_τ(x) is the
// optimal completion cost of serving the window starting from state x under
// accounting B (up-charging for L, down-charging for U), with Ĉ^U = Ĉ^L − βx
// and ties decided by core/tie_rule.hpp.  The completion pass costs O(w·m)
// per step on the dense backend and O(w·(K + B)) on the PWL one; an empty
// lookahead is plain LCP.  Theorem 10 shows no constant window improves the
// competitive ratio on stretched instances; the E9 experiment reproduces
// this, while the E10 trace study shows the practical benefit on
// real-shaped workloads.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "offline/work_function.hpp"
#include "online/online_algorithm.hpp"

namespace rs::online {

class Lcp final : public OnlineAlgorithm {
 public:
  /// `backend` pins the tracker backend; kAuto (default) selects per
  /// instance as described above.  kDense is the reference path (and the
  /// baseline the scaling benchmarks compare against); kPwl throws on
  /// costs without a compact convex-PWL form.  With a lookahead, kAuto
  /// runs the m-independent convex-PWL window pass while the revealed cost
  /// and the whole lookahead convert compactly, and the dense pass
  /// (permanently) from the first step where they do not.  Both passes
  /// decide corridor ties by the one rule of core/tie_rule.hpp, so the
  /// backend is a performance choice only.
  explicit Lcp(rs::offline::WorkFunctionTracker::Backend backend =
                   rs::offline::WorkFunctionTracker::Backend::kAuto)
      : backend_(backend) {}

  std::string name() const override { return "lcp"; }
  void reset(const OnlineContext& context) override;
  /// Decides slot τ given f_τ and the prediction window f_{τ+1}..  An
  /// empty lookahead is plain LCP on the tracker's corridor.  A non-empty
  /// one adds the window's completion costs before the tie rule; with
  /// predictions the corridor may invert on pathological ties, and the
  /// state is then projected into [min, max] of the two bounds.
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
  /// only; what-if consumers call its const probe_from.
  const rs::offline::WorkFunctionTracker* tracker() const noexcept {
    return tracker_.has_value() ? &*tracker_ : nullptr;
  }

  /// The eq. 13 projection state x^LCP of the most recent slot.
  int current_state() const noexcept { return current_; }

  /// Permanently switches the underlying tracker (and the window pass) to
  /// the dense streaming backend, materializing the current work function
  /// — the fleet controller's PWL → dense degradation rung.  Returns false
  /// when this session cannot degrade (constructed with the forced-kPwl
  /// backend, or not reset yet); subsequent decisions agree with the PWL
  /// path up to FP association order (bitwise on integer-valued instances,
  /// DESIGN.md §8).
  bool degrade_to_dense();

  /// Serialized session state (core/checkpoint.hpp container, kind
  /// kLcpCheckpointKind): the eq. 13 projection state plus the embedded
  /// work-function tracker snapshot.  A session restored at slot t decides
  /// the remaining slots bitwise-identically to the uninterrupted run.  The
  /// window's sliding form cache is *not* serialized — it is a pure
  /// conversion memo, so a restored session re-converts its first window
  /// and then re-warms; decisions are unaffected, including snapshots
  /// taken mid-window.
  std::vector<std::uint8_t> snapshot() const;

  /// Replaces this session's state from snapshot() bytes, the crash-recovery
  /// counterpart of reset().  `context` must match the snapshotted session
  /// — same m, beta, and constructed backend — else
  /// core::CheckpointMismatchError; malformed or corrupted bytes raise the
  /// reader's typed errors and leave no partially-restored state observable
  /// (the session is only mutated after full validation).  Also accepts
  /// the read-only legacy kind kWindowedLcpCheckpointKind written by the
  /// former windowed session class, whose payload additionally records
  /// (m, beta); those are checked against `context`.
  void restore(const OnlineContext& context,
               std::span<const std::uint8_t> bytes);

 private:
  // Both decide_run overloads: validate, advance, project (eq. 13).
  template <typename Slot>
  void decide_run_impl(const Slot& f, int count, std::span<int> decisions,
                       std::span<int> lower, std::span<int> upper);

  // The prediction-window corridor of decide(): tracker advance plus the
  // completion passes, on the PWL path while everything converts.
  rs::core::Corridor window_corridor(
      const rs::core::CostPtr& f, std::span<const rs::core::CostPtr> lookahead);
  // Records the corridor and projects the current state into it.
  int project_onto(rs::core::Corridor corridor);

  rs::offline::WorkFunctionTracker::Backend backend_;
  // In-place tracker (workspace-backed): reset() re-emplaces without a heap
  // allocation, so replay harnesses can reset per run for free.
  std::optional<rs::offline::WorkFunctionTracker> tracker_;
  int current_ = 0;
  int last_lower_ = 0;
  int last_upper_ = 0;
  int what_if_capacity_ = 0;  // > 0: keep a rewind buffer on the tracker
  // Sliding conversion cache for the window pass: the forms of the previous
  // step's [revealed, lookahead...] sequence, keyed by cost identity.  As
  // the window slides by one slot, this step's revealed cost and all but
  // the last lookahead slot are cache hits, so each slot of a streaming
  // replay is converted exactly once instead of up to w+1 times (the
  // regression test counts as_convex_pwl calls).  Entries hold the CostPtr
  // so a key address can never be recycled while cached.
  std::deque<std::pair<rs::core::CostPtr, rs::core::ConvexPwl>> form_cache_;
};

/// Eq. 13 over a corridor sequence: starting from `state` (x^LCP_{τ-1}),
/// projects into [lower[i], upper[i]] for each slot i in order, writes each
/// x^LCP into decisions[i] when `decisions` is non-empty, and returns the
/// final state.  The one implementation of the LCP projection: Lcp,
/// run_lcp and the fleet's what-if probes all call it.
/// Requires lower.size() == upper.size() (and decisions, when given, at
/// least as long).
int project_corridor(int state, std::span<const int> lower,
                     std::span<const int> upper, std::span<int> decisions = {});

/// The LCP schedule of a whole corridor: eq. 13 from x_0 = 0 through every
/// slot of `bounds`.
rs::core::Schedule lcp_schedule(const rs::offline::BoundTrajectory& bounds);

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

/// Optimal completion cost D^B(x) over the window under the two accounting
/// schemes (exposed for tests).  `window` holds f_{τ+1}.. in order; the
/// horizon end after the window is free.  Returned vector has m+1 entries.
std::vector<double> completion_costs(
    std::span<const rs::core::CostPtr> window, int m, double beta,
    bool charge_up);

/// In-place variant writing into `d` (m+1 entries); scratch comes from the
/// thread workspace, so the per-step window pass is allocation-free.
void completion_costs(std::span<const rs::core::CostPtr> window, double beta,
                      bool charge_up, std::span<double> d);

/// Convex-PWL form of the same backward recursion: the window rows are
/// exact convex PWL functions, each backward step is an add plus a slope
/// clip into [−β, 0] (L-accounting) or [0, β] (U-accounting), so the whole
/// window pass is O(w·(K + B)) — independent of m.  Lcp::decide takes this
/// path automatically whenever the revealed cost and the entire lookahead
/// convert compactly (and falls back to the dense pass, permanently, on
/// the first step where they do not).
rs::core::ConvexPwl completion_costs_pwl(
    std::span<const rs::core::ConvexPwl> window, int m, double beta,
    bool charge_up);

}  // namespace rs::online
