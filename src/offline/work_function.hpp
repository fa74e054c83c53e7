// Incremental maintenance of the bound work functions of Section 3.1.
//
//   Ĉ^L_τ(x) = min cost of serving f_1..f_τ ending in state x, switching
//              cost charged on power-UP (eq. 11 minimized over prefixes);
//   Ĉ^U_τ(x) = same with switching cost charged on power-DOWN (eq. 12).
//
// From them the online bounds are
//   x^L_τ = smallest minimizer of Ĉ^L_τ   (lower bound, Lemma 6)
//   x^U_τ = largest  minimizer of Ĉ^U_τ   (upper bound, Lemma 6)
// Only Ĉ^L is stored: Lemma 7 gives Ĉ^U_τ(x) = Ĉ^L_τ(x) − βx, and both
// bounds come from Ĉ^L under the tie rule of core/tie_rule.hpp.
//
// Two interchangeable backends maintain Ĉ^L:
//
//   * kDense — a flat label row; one advance() costs O(m): the table DP's
//     step (offline/dense_step.hpp: a forward power-up relax, then a
//     backward free-power-down suffix minimum plus the f_τ addition), so
//     the labels are bitwise the DP's, and the tie-rule scan.
//   * kPwl — Ĉ^L is convex whenever every f_τ is convex, so it is kept as
//     an exact convex piecewise-linear function (core/convex_pwl.hpp): the
//     relax clips the slope sequence into [0, β] (amortized O(1) per
//     breakpoint) and the f_τ addition merges its breakpoints, making one
//     advance O(K + B) in breakpoint counts and fully independent of m —
//     the backend for m ~ 10⁵..10⁶ instances where even streaming O(m)
//     rows is the bottleneck (arXiv:1807.05112 §LCP, arXiv:2108.09489).
//
// Backend::kAuto (the default) resolves at runtime: advances fed a
// CostFunction use kPwl while every slot converts compactly
// (CostFunction::as_convex_pwl within compact_pwl_budget_for(m)
// breakpoints) and switch to kDense permanently — materializing Ĉ^L into a
// label row — on the first slot that does not.  That per-slot rule serves
// the online Lcp; offline passes (track_slots) resolve kAuto per instance,
// running dense from slot 1 when any slot does not convert.  Advances fed
// raw value rows always use kDense.  Chat values agree across backends up
// to floating-point association order (bit-identical on integer-valued
// instances), and the tie rule absorbs that noise, so the bounds agree
// exactly: the backend is a performance choice, never a semantic one
// (DESIGN.md §8).
//
// This tracker powers the discrete LCP algorithm (Section 3) with and
// without a prediction window, the Lemma-11 offline construction, and the
// DpSolver convex fast path.
#pragma once

#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "core/convex_pwl.hpp"
#include "core/problem.hpp"
#include "core/slot_source.hpp"
#include "core/tie_rule.hpp"
#include "util/workspace.hpp"

namespace rs::offline {

class WorkFunctionTracker {
 public:
  enum class Backend {
    kAuto,   // kPwl while every advanced cost converts compactly, else kDense
    kDense,  // always the O(m) label rows
    kPwl,    // force the PWL backend; non-convertible advances throw
  };

  /// Tracker for a data center with m servers and power-up cost beta.
  /// Dense label storage is borrowed lazily from the constructing thread's
  /// workspace arena (util/workspace.hpp) the first time the dense backend
  /// is engaged, so a PWL-backed tracker never allocates O(m) state; the
  /// buffer handles keep the arena state alive, so the tracker may safely
  /// outlive the thread.
  WorkFunctionTracker(int m, double beta, Backend backend = Backend::kAuto);

  /// Feeds f_τ (the next operating-cost function).  O(K + B) on the PWL
  /// backend (one clip pass and one linear breakpoint merge), O(m) (one
  /// eval_row, no per-state dispatch) on the dense one.
  void advance(const rs::core::CostFunction& f);

  /// Feeds f_τ in exact convex-PWL form (skips the conversion; a dense
  /// tracker materializes the row instead).
  void advance(const rs::core::ConvexPwl& f);

  /// Feeds f_τ given as explicit values f(0..m) (e.g. DenseProblem::row);
  /// dense backend only (a forced-kPwl tracker throws std::logic_error).
  void advance(std::span<const double> values);

  /// Feeds the SAME cost function for `count` consecutive slots and writes
  /// the per-slot bounds x^L / x^U into xl[0..count) / xu[0..count) —
  /// the run-length-encoded replay primitive (core/rle_problem.hpp).
  ///
  /// Bounds are bit-identical to `count` individual advance() calls on
  /// both backends:
  ///
  ///   * kPwl — Ĉ^L's *shape* (domain + slope sequence) evolves
  ///     autonomously under a repeated relax+add (values never feed the
  ///     control flow; see ConvexPwl::same_shape), so the first advance
  ///     whose shape reproduces the previous step's is a permanent
  ///     fixpoint: the remaining slots of the run reuse the pinned bounds
  ///     and fast-forward τ and the chat values in O(1).  In practice the
  ///     fixpoint lands within a handful of steps (the relax clips the
  ///     slopes into [0,β] and f's breakpoints stop moving), making a
  ///     length-k run cost O(min(k, fixpoint) · (K + B)) instead of
  ///     O(k · (K + B)).  Chat *values* after a jump are fast-forwarded by
  ///     the shape-determined per-step increment, which matches stepping
  ///     up to FP association order (exactly on integer-valued runs) —
  ///     same tolerance class as the dense-vs-PWL contract of DESIGN.md §8.
  ///     The tie rule's tolerance grows with min Ĉ^L, so a jump is taken
  ///     only when the corridor holds for every tolerance the skipped
  ///     slots could see; otherwise the run keeps stepping.
  ///   * kDense — no steps can be skipped (the minimizer scans compare
  ///     accumulated values), but the run's cost row is evaluated ONCE and
  ///     re-fed per slot, eliminating the per-slot eval_row — the dominant
  ///     cost for dispatch-heavy families (RestrictedSlotCost decorator
  ///     chains).
  ///
  /// Requires xl.size() >= count and xu.size() >= count; count >= 0.
  void advance_repeated(const rs::core::CostFunction& f, int count,
                        std::span<int> xl, std::span<int> xu);

  /// Same, with f in exact convex-PWL form.
  void advance_repeated(const rs::core::ConvexPwl& f, int count,
                        std::span<int> xl, std::span<int> xu);

  /// Same, with f as explicit values f(0..m); dense backend only.
  void advance_repeated(std::span<const double> values, int count,
                        std::span<int> xl, std::span<int> xu);

  int tau() const noexcept { return tau_; }
  int max_servers() const noexcept { return m_; }
  double beta() const noexcept { return beta_; }
  Backend backend() const noexcept { return backend_; }

  /// Serialized tracker state in the versioned, checksummed checkpoint
  /// container (core/checkpoint.hpp, kind kTrackerCheckpointKind):
  /// (m, beta, backend, mode, τ) plus the live Ĉ^L — the PWL form
  /// bit-exactly, or the dense label row bit-exactly.  The corridor is
  /// derived state and is recomputed on restore, so a restored tracker
  /// continues bitwise-identically to the uninterrupted run on either
  /// backend (the kill-and-resume suite pins schedules, corridor bounds,
  /// and costs).
  std::vector<std::uint8_t> snapshot() const;

  /// Reconstructs a tracker from snapshot() bytes.  Also accepts the
  /// two-label layout (kLegacyTrackerCheckpointKind) written before Ĉ^U
  /// was derived: its Ĉ^U and stored corridor are dropped and the corridor
  /// is recomputed under the tie rule.  Rejects malformed, truncated,
  /// mislabeled, or bit-flipped input with the typed core::CheckpointError
  /// hierarchy (format / corruption), and re-validates every decoded
  /// invariant (enum ranges, PWL-form invariants, NaN-free labels) so no
  /// checkpoint can construct a broken tracker.  Callers restoring into a
  /// known instance should additionally check max_servers()/beta() against
  /// it (the session-level restores in online/lcp*.hpp do, throwing
  /// CheckpointMismatchError).
  static WorkFunctionTracker restore(std::span<const std::uint8_t> bytes);

  /// True while the PWL backend is live (false before the first advance
  /// and after any fallback to dense).
  bool using_pwl() const noexcept { return mode_ == Mode::kPwl; }

  /// True while the next advance may still run on the PWL backend: PWL is
  /// live, or nothing was advanced yet and neither the constructed backend
  /// nor ensure_dense_backend() pinned the tracker dense.
  bool takes_pwl() const noexcept {
    return mode_ != Mode::kDense && backend_ != Backend::kDense;
  }

  /// Live breakpoints of Ĉ^L (0 on the dense backend); diagnostics for the
  /// K-vs-m scaling story.
  int breakpoint_count() const noexcept;

  /// Ĉ^L_τ(x), and Ĉ^U_τ(x) = Ĉ^L_τ(x) − βx (Lemma 7); require
  /// 0 <= x <= m and τ >= 1.  O(K) on the PWL backend, O(1) dense.
  double chat_lower(int x) const;
  double chat_upper(int x) const;

  /// min_x Ĉ^L_τ(x) — the optimal cost of the first τ slots.  Exact (not
  /// Ĉ^L at the tie-ruled x^L, which may sit up to one tolerance above);
  /// require τ >= 1.  O(K) on the PWL backend, O(m) dense.
  double chat_min() const;

  /// Dense label row of Ĉ^L; switches a PWL tracker to the dense backend
  /// first (the row view must stay valid across later advances).
  const std::vector<double>& chat_lower_vector();

  /// The live PWL form of Ĉ^L; requires using_pwl().
  const rs::core::ConvexPwl& chat_lower_pwl() const;

  /// Permanently switches to the dense backend (no-op if already dense),
  /// materializing the current Ĉ^L.  Mixed consumers (e.g. an LCP window
  /// pass whose lookahead does not convert) use this to keep every per-x
  /// query O(1).
  void ensure_dense_backend();

  /// The online bounds x^L_τ and x^U_τ (Section 3.1 under the tie rule of
  /// core/tie_rule.hpp); O(1) — maintained during advance().
  int x_lower() const;
  int x_upper() const;

  // -------------------------------------------------------------------------
  // What-if repair (rewind buffer, repair_from, probe_from) — DESIGN.md §12.
  //
  // When enabled, every advance records (a) the cost it consumed, in the
  // *resolved* replayable kind — the exact convex-PWL form on the PWL path,
  // the evaluated value row on the dense path — and (b) the post-advance
  // tracker state.  RLE runs (advance_repeated) record ONE entry for the
  // whole run, so the buffer costs O(K) per run on the PWL path, not O(k·K).
  //
  // An edit of slot t replays on a separate tracker seeded from the stored
  // state before t's entry: the prefix of a split run, the edited slot, the
  // run's suffix, then later entries until the recomputed state compares
  // bitwise equal to a stored post-state.  Replay is deterministic, so from
  // that boundary on the entire stored suffix — including the final labels —
  // is already correct.  probe_from returns that replay's answer;
  // repair_from also splices it into the history.  The replay never writes
  // this tracker, so a throwing edit leaves it bitwise unchanged.
  //
  // The repaired tracker is bit-identical to a tracker fed the recorded
  // input sequence from scratch with the edit substituted.  Edits that
  // would change the backend *trajectory* (a PWL-mode slot edited to a
  // non-convertible cost, or the fallback-triggering slot edited to a
  // convertible one) throw std::invalid_argument — callers fall back to a
  // full re-solve, which handles the mode flip naturally
  // (offline/delta_session.hpp does exactly this).
  //
  // Rewind state is deliberately excluded from snapshot()/restore();
  // re-enable after a restore.
  // -------------------------------------------------------------------------

  /// Outcome of a repair: the repaired per-slot bounds starting at the
  /// edited slot, whether replay stopped at a reconvergence boundary before
  /// the end of the recorded history, how many slots were re-advanced
  /// (including the unchanged prefix of a split RLE run), and the corridor
  /// and min Ĉ^L at the newest slot under the edit.
  struct Repair {
    bool early_exit = false;
    int first_slot = 0;       // == the edited slot
    int slots_replayed = 0;   // advances re-executed during the repair
    std::vector<int> lower;   // repaired x^L for slots first_slot, ...
    std::vector<int> upper;   // repaired x^U, same indexing
    int x_lower = 0;          // x^L at the newest slot under the edit
    int x_upper = 0;          // x^U at the newest slot under the edit
    double chat_min = 0.0;    // min Ĉ^L at the newest slot under the edit
  };

  /// Starts recording with room for `capacity` entries (one per advance /
  /// advance_repeated call; capacity >= 1).  The rewind base is the current
  /// state; prior history is not reconstructible.  Appending past capacity
  /// evicts the oldest entry (the base moves forward).
  void enable_rewind(int capacity);
  void disable_rewind();
  bool rewind_enabled() const noexcept { return rewind_enabled_; }

  /// First slot a repair can target (rewind_base_tau + 1); tau() + 1 when
  /// nothing is recorded.
  int rewind_begin() const noexcept { return rewind_base_tau_ + 1; }
  bool rewind_covers(int slot) const noexcept {
    return rewind_enabled_ && slot >= rewind_begin() && slot <= tau_;
  }

  /// Replaces the cost consumed at `slot` and repairs the labels forward.
  /// Requires rewind_covers(slot) (std::logic_error without a rewind
  /// buffer, std::out_of_range outside its window).  Strong exception
  /// guarantee: on throw the tracker (and its rewind history) is bitwise
  /// unchanged.
  Repair repair_from(int slot, const rs::core::CostFunction& f);

  /// The Repair repair_from(slot, f) would return, leaving the tracker
  /// untouched — the what-if probe behind DpDeltaSession::probe_delta and
  /// TenantSession::what_if.  Same preconditions and exceptions.  Dense
  /// replay storage is borrowed from the *calling* thread's workspace, so
  /// concurrent probes of one tracker need no lock.
  Repair probe_from(int slot, const rs::core::CostFunction& f) const;

  /// Deep copy, including the rewind history; dense labels are borrowed
  /// from the *calling* thread's workspace.  Probes do not need one
  /// (probe_from never writes the tracker); perfbench's layer pass times it.
  WorkFunctionTracker clone() const;

  /// Deep corridor-invariant audit (util/audit.hpp; DESIGN.md §13): corridor
  /// ordered and in range (0 <= x^L <= x^U <= m), labels NaN-free and
  /// non-negative (extended reals in [0, +inf]), corridor bounds equal to
  /// the tie rule re-applied to the live Ĉ^L, and min Ĉ^L monotone
  /// non-decreasing across advances (work functions only grow).
  /// Raises rs::util::audit::AuditError naming the violated invariant.
  /// Always compiled; the RS_AUDIT hooks after every advance / restore /
  /// repair engage only under RIGHTSIZER_AUDIT.
  void audit_invariants(const char* site) const;

 private:
  friend struct WorkFunctionTrackerTestAccess;
  enum class Mode { kUndecided, kPwl, kDense };

  // An advance input resolved against the current mode, borrowing its
  // storage: a convex-PWL form (PWL backend) or a value row (dense).
  struct InputRef {
    const rs::core::ConvexPwl* form = nullptr;
    std::span<const double> row;
  };

  // A recorded advance input in replayable form.
  struct StoredInput {
    bool is_row = false;
    rs::core::ConvexPwl form;  // valid when !is_row
    std::vector<double> row;   // valid when is_row
  };

  void require_started() const;
  void init_dense();
  std::span<double> scratch_row();
  // The one backend-resolution step of every advance and repair entry
  // point: conversion (within the compact budget) or row evaluation into
  // the scratch row.  `converted` owns a fresh conversion for the view.
  InputRef resolve(const rs::core::CostFunction& f,
                   std::optional<rs::core::ConvexPwl>& converted);
  InputRef resolve(const rs::core::ConvexPwl& f);
  InputRef resolve(std::span<const double> values);
  static StoredInput stored(InputRef input);
  // The one advance core: runs `count` slots of a resolved input on its
  // backend, writes the per-slot bounds, and records the rewind entry.
  void advance_core(InputRef input, int count, std::span<int> xl,
                    std::span<int> xu);
  void advance_one(InputRef input);
  void advance_dense(std::span<const double> values);
  void advance_pwl(const rs::core::ConvexPwl& f);
  void advance_repeated_pwl(const rs::core::ConvexPwl& f, int count,
                            std::span<int> xl, std::span<int> xu);
  // The tie rule's corridor of the live Ĉ^L; refresh stores it.
  rs::core::Corridor corridor() const;
  void refresh_corridor();
  // Whether the PWL corridor holds while min Ĉ^L grows by `delta`.
  bool corridor_survives_shift(double delta) const;

  // Full tracker state at a run boundary — what a rewind entry stores and
  // what reconvergence compares.  Dense labels are value copies (the live
  // row is a workspace buffer).
  struct TrackerState {
    Mode mode = Mode::kUndecided;
    int tau = 0;
    int x_lower = 0;
    int x_upper = 0;
    rs::core::ConvexPwl pwl_l;
    std::vector<double> chat_l;  // mode == kDense only
  };
  struct RewindEntry {
    int start = 0;  // first slot of the run (1-based)
    int count = 0;  // run length (>= 1)
    StoredInput input;
    TrackerState post;  // state after the run
  };

  TrackerState capture_state() const;
  void restore_state(const TrackerState& s);
  // Whether the live state equals `s` bitwise — the reconvergence test,
  // made without capturing the live state first.
  bool live_equals(const TrackerState& s) const;
  void rewind_record(StoredInput input, int count);
  void rewind_reset_base();
  // Evicts the oldest entries past capacity (the base moves forward).
  void rewind_trim();
  // Replays a recorded input (count >= 1 slots) through the normal typed
  // advance paths, appending the per-slot bounds to lo and up.
  void replay_input(const StoredInput& input, int count, std::vector<int>& lo,
                    std::vector<int>& up);
  // The one what-if replay behind repair_from and probe_from: the edit run
  // on a fresh tracker seeded from the stored pre-edit state, up to the
  // reconvergence boundary.  With `rebuild` (repair_from), `rebuilt` holds
  // the entries that replace [first, stop); a probe leaves it empty.
  struct Replay {
    Repair repair;
    std::size_t first = 0;
    std::size_t stop = 0;
    std::vector<RewindEntry> rebuilt;
  };
  Replay replay_edit(int slot, const rs::core::CostFunction& f,
                     bool rebuild) const;

  int m_;
  double beta_;
  Backend backend_;
  Mode mode_ = Mode::kUndecided;
  int tau_ = 0;
  int x_lower_ = 0;  // x^L under the tie rule, updated per advance
  int x_upper_ = 0;  // x^U under the tie rule
  // PWL backend state (the τ = 0 point function until first use).
  rs::core::ConvexPwl pwl_l_;
  // Dense backend state.  The label row and the eval_row scratch are
  // workspace-borrowed so repeated tracker construction (one per LCP
  // replay / trial) is allocation-free after warm-up; the tracker is
  // move-only as a consequence.
  rs::util::Workspace::Buffer<double> chat_l_;
  rs::util::Workspace::Buffer<double> scratch_;
  // Rewind buffer (excluded from snapshot()/restore(); see above).
  bool rewind_enabled_ = false;
  std::size_t rewind_capacity_ = 0;
  int rewind_base_tau_ = 0;
  TrackerState rewind_base_;
  std::deque<RewindEntry> rewind_entries_;
  // Auditor watermark for the min-Ĉ^L-monotone check (audit_invariants);
  // touched only inside audits, reseeded whenever τ did not grow (a repair
  // replaced the labels in place).
  mutable int audit_last_tau_ = 0;
  mutable double audit_min_watermark_ = 0.0;
};

/// Test-only corruption hooks for the auditor's negative tests
/// (tests/test_audit.cpp): direct references to the private corridor and
/// label state so a test can break exactly one invariant and assert
/// audit_invariants names it.  Never use outside tests.
struct WorkFunctionTrackerTestAccess {
  static int& x_lower(WorkFunctionTracker& t) noexcept { return t.x_lower_; }
  static int& x_upper(WorkFunctionTracker& t) noexcept { return t.x_upper_; }
  static rs::core::ConvexPwl& pwl_lower(WorkFunctionTracker& t) noexcept {
    return t.pwl_l_;
  }
  static std::vector<double>& dense_lower(WorkFunctionTracker& t) noexcept {
    return t.chat_l_.vec();
  }
};

/// Per-slot LCP corridor (x^L_τ, x^U_τ) for τ in [1, T].
struct BoundTrajectory {
  std::vector<int> lower;  // x^L_1..x^L_T
  std::vector<int> upper;  // x^U_1..x^U_T
};

/// Runs a fresh tracker over every slot of `source` in order — one advance
/// per slot, one advance_repeated per RLE run — and returns it.  The form
/// decides the backend of materialized inputs (rows run kDense, forms run
/// kPwl); `backend` applies to Problem and RleProblem sources, where kAuto
/// is resolved over the whole instance: PWL labels when every slot has a
/// compact form, else dense labels from slot 1 (no slot converts twice).
/// With `rewind_capacity` > 0 the tracker records its rewind buffer from
/// the start (one entry per advance).  The per-slot corridor lands in
/// `bounds` (resized to T) when non-null.  The one feed-and-collect loop
/// behind compute_bounds, corridor_solve (offline/backward_solver.hpp) and
/// DpDeltaSession's base solve.
WorkFunctionTracker track_slots(const rs::core::SlotSource& source,
                                WorkFunctionTracker::Backend backend,
                                BoundTrajectory* bounds,
                                int rewind_capacity = 0);

/// The corridor of every slot of `source` (backend chosen as in
/// track_slots).  Bit-identical across the four input forms of one
/// instance and across backends (DESIGN.md §8).
BoundTrajectory compute_bounds(
    const rs::core::SlotSource& source,
    WorkFunctionTracker::Backend backend = WorkFunctionTracker::Backend::kAuto);

}  // namespace rs::offline
