// LCP with a finite prediction window (Sections 3 and 5.4).
//
// At time τ the algorithm additionally knows f_{τ+1}..f_{τ+w}.  Following
// Lin et al., the bounds become the τ-th components of optimal solutions of
// the horizon-(τ+w) truncated problems:
//
//   x^{L,w}_τ = smallest x_τ over minimizers of C^L_{τ+w}
//   x^{U,w}_τ = largest  x_τ over minimizers of C^U_{τ+w}
//
// computed as argmin_x [ Ĉ^B_τ(x) + D^B_τ(x) ], where D^B_τ(x) is the
// optimal completion cost of serving the window starting from state x under
// accounting B (up-charging for L, down-charging for U), with Ĉ^U = Ĉ^L − βx
// and ties decided by core/tie_rule.hpp.  The completion pass costs O(w·m)
// per step; w = 0 reduces exactly to LCP.
//
// Theorem 10 shows no constant window improves the competitive ratio on
// stretched instances; the E9 experiment reproduces this, while the E10
// trace study shows the practical benefit on real-shaped workloads.
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

class WindowedLcp final : public OnlineAlgorithm {
 public:
  /// `backend` pins the tracker/completion backend; kAuto (default) uses
  /// the m-independent convex-PWL pass whenever the revealed cost and the
  /// whole lookahead convert compactly, falling back to the dense O(w·m)
  /// pass otherwise.  Both passes decide corridor ties by the one rule of
  /// core/tie_rule.hpp, so the backend is a performance choice only.
  explicit WindowedLcp(rs::offline::WorkFunctionTracker::Backend backend =
                           rs::offline::WorkFunctionTracker::Backend::kAuto)
      : backend_(backend) {}

  std::string name() const override { return "lcp_window"; }
  void reset(const OnlineContext& context) override;
  int decide(const rs::core::CostPtr& f,
             std::span<const rs::core::CostPtr> lookahead) override;

  int last_lower() const { return last_lower_; }
  int last_upper() const { return last_upper_; }

  /// Serialized session state (core/checkpoint.hpp container, kind
  /// kWindowedLcpCheckpointKind): the snapshotted context, projection state,
  /// and the embedded tracker snapshot.  The sliding form cache is *not*
  /// serialized — it is a pure conversion memo ("correctness never depends
  /// on the cache"), so a restored session re-converts its first window and
  /// then re-warms; decisions are unaffected, including snapshots taken
  /// mid-window.
  std::vector<std::uint8_t> snapshot() const;

  /// Replaces this session's state from snapshot() bytes; the crash-recovery
  /// counterpart of reset().  `context` must match the snapshotted session
  /// (m, beta, constructed backend) else core::CheckpointMismatchError;
  /// malformed/corrupted bytes raise the reader's typed errors before any
  /// state is mutated.
  void restore(const OnlineContext& context,
               std::span<const std::uint8_t> bytes);

 private:
  // Records the corridor and projects the current state into it.
  int project_onto(rs::core::Corridor corridor);

  OnlineContext context_;
  rs::offline::WorkFunctionTracker::Backend backend_ =
      rs::offline::WorkFunctionTracker::Backend::kAuto;
  std::optional<rs::offline::WorkFunctionTracker> tracker_;
  // Sliding conversion cache for the PWL fast path: the forms of the
  // previous step's [revealed, lookahead...] sequence, keyed by cost
  // identity.  As the window slides by one slot, this step's revealed cost
  // and all but the last lookahead slot are cache hits, so each slot of a
  // streaming replay is converted exactly once instead of up to w+1 times
  // (the regression test counts as_convex_pwl calls).  Entries hold the
  // CostPtr so a key address can never be recycled while cached.
  std::deque<std::pair<rs::core::CostPtr, rs::core::ConvexPwl>> form_cache_;
  int current_ = 0;
  int last_lower_ = 0;
  int last_upper_ = 0;
};

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
/// window pass is O(w·B log K) — independent of m.  WindowedLcp takes this
/// path automatically whenever the revealed cost and the entire lookahead
/// convert compactly (and falls back to the dense pass, permanently, on
/// the first step where they do not).
rs::core::ConvexPwl completion_costs_pwl(
    std::span<const rs::core::ConvexPwl> window, int m, double beta,
    bool charge_up);

}  // namespace rs::online
