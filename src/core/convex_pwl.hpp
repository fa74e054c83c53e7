// Exact convex piecewise-linear functions over integer server counts.
//
// The m-independent backend of the work-function tracker (Section 3.1) and
// the convex offline fast path.  A convex extended-real function on
// {0,..,m} that is finite exactly on a contiguous range [lo, hi] is stored
// as the value at lo plus its slope sequence s(x) = W(x+1) − W(x), which is
// non-decreasing by convexity.  The sequence is kept as a first slope and
// one contiguous array of positive slope *increments* ("breakpoints"),
// sorted by strictly ascending position, so the three operations the
// work-function recurrences need cost
//
//   * pointwise add of a B-breakpoint function:  one O(K + B) linear merge,
//     in place (no allocation once the array's capacity is warm) —
//     adding a *linear* function is O(1) because slope increments are
//     invariant under a uniform slope shift;
//   * epigraph min-convolution with the switching kernel β·(x−x′)⁺ (and its
//     mirror): clipping the slope sequence into [0, β] (resp. [−β, 0]).
//     Each clip removes breakpoints from one end of the sequence with one
//     range erase; a breakpoint is created once and destroyed at most
//     once, so the clipping work is O(1) amortized per breakpoint ever
//     inserted (a relax pass additionally walks the live sequence once and
//     the left extension shifts it by one slot, O(K) each, which the
//     compact-budget backend selection keeps small);
//   * argmin interval + minimum: a walk over the (few) leading slopes.
//
// K — the live breakpoint count — is bounded by the domain width but is in
// practice a small constant for compact cost families (hinges, affine-abs,
// restricted linear tariffs): the clip step continuously retires slopes
// that drift out of [0, β].  Nothing here depends on m except the clamp
// positions, which is what makes million-server instances tractable
// (arXiv:1807.05112 derives the algorithms from these projections;
// arXiv:2108.09489 demonstrates the convex-PWL maintenance strategy).
//
// Numerical contract: operations mirror the dense kernels' extended-real
// arithmetic but accumulate values in a different association order, so
// chat values agree with the dense backend to within a few ULPs (exactly,
// when all inputs are integers); see DESIGN.md §8 for the tolerance
// discussion.  +inf is represented by the domain bounds, never stored as a
// value; NaN is outside the contract (conversions reject it).
#pragma once

#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "util/math_util.hpp"

namespace rs::core {

class ConvexPwl {
 public:
  /// Slope increments as (position, increment) pairs, positions strictly
  /// ascending: increment d at p means s(p) − s(p−1) = d.
  using Increments = std::vector<std::pair<int, double>>;

  /// +inf everywhere (the empty work function of an infeasible prefix).
  ConvexPwl() = default;

  static ConvexPwl infinite() { return ConvexPwl(); }

  /// Finite only at x (value `value`); the τ = 0 work function is
  /// point(0, 0).
  static ConvexPwl point(int x, double value);

  /// Constant `value` on [lo, hi].
  static ConvexPwl constant(int lo, int hi, double value);

  /// True iff the function is +inf everywhere.
  bool is_infinite() const noexcept { return infinite_; }

  /// Finite domain [lo, hi]; require !is_infinite().
  int lo() const noexcept { return lo_; }
  int hi() const noexcept { return hi_; }

  /// Number of stored slope increments (excludes the two domain ends).
  int breakpoints() const noexcept { return static_cast<int>(dslope_.size()); }

  /// Domain ends plus every slope-increment position, ascending; empty for
  /// the infinite function.  Decorator conversions use these as the kink
  /// candidates of the transformed function.
  std::vector<int> kink_positions() const;

  /// W(x) for any integer x: +inf outside [lo, hi], else the accumulated
  /// value.  O(K).
  double value_at(int x) const;

  /// Batch evaluation at ascending positions: out[i] = W(xs[i]) (+inf
  /// outside the domain).  One forward walk over the slope sequence,
  /// O(K + n) total instead of value_at's O(K) per point — the evaluation
  /// path for bounded_dp's sorted candidate columns.  Requires xs sorted
  /// ascending and out.size() >= xs.size().
  void eval_at_sorted(std::span<const int> xs, std::span<double> out) const;

  /// The restriction x -> W(x·stride) as a ConvexPwl over the grid index
  /// (domain [ceil(lo/stride), floor(hi/stride)]; infinite when no grid
  /// point lands in [lo, hi]).  Convexity is preserved by restriction to an
  /// arithmetic progression; grid values are reproduced by exact slope
  /// accumulation (no divisions), so integer-valued forms resample
  /// exactly.  Backs the Φ_k grid-column fast path of solve_bounded.
  /// Requires stride >= 1.
  ConvexPwl resample_stride(int stride) const;

  struct ArgminInterval {
    int lo = 0;      // smallest minimizer
    int hi = 0;      // largest minimizer
    double value = rs::util::kInf;
  };
  /// Minimizer interval and minimum of g(x) = W(x) + tilt·x (the tilt is
  /// an exact first-slope shift: slope increments are invariant under it);
  /// require !is_infinite().  O(K).
  ArgminInterval argmin(double tilt = 0.0) const;

  /// Near-minimizer interval of g(x) = W(x) + tilt·x: the smallest and
  /// largest x with g(x) <= min g + tol_scale·max(1, |min g|), plus min g.
  /// Convexity makes the set an interval; each end is found in closed form
  /// per segment, so the cost stays O(K) however long a shallow run is.
  /// The set only grows with tol_scale.  With tol_scale =
  /// kConvexPwlMergeEps this is the corridor tie rule (core/tie_rule.hpp).
  /// Require !is_infinite().
  ArgminInterval near_argmin(double tilt, double tol_scale) const;

  /// Writes W(0..m) into out (out.size() >= m+1), +inf outside the domain.
  /// Used when a hybrid consumer falls back to the dense backend mid-run.
  void materialize(int m, std::span<double> out) const;

  /// Pointwise add (domains intersect; the sum of convex functions is
  /// convex).  Either operand infinite, or disjoint domains, make the
  /// result infinite — matching inf-absorbing dense label arithmetic.
  void add(const ConvexPwl& g);

  /// The Ĉ^L relax of eq. (11): W ← min( min_{x′≤x} W(x′) + β(x−x′),
  /// min_{x′≥x} W(x′) ), then extend the domain to [lo, hi].  Slopes are
  /// clipped into [0, β]; the left extension is flat at the minimum (free
  /// power-down), the right extension has slope β (power-up charge).
  void relax_charge_up(double beta, int lo, int hi);

  /// The Ĉ^U relax of eq. (12): W ← min( min_{x′≥x} W(x′) + β(x′−x),
  /// min_{x′≤x} W(x′) ), then extend to [lo, hi].  Slopes are clipped into
  /// [−β, 0]; the left extension has slope −β, the right one is flat.
  void relax_charge_down(double beta, int lo, int hi);

  /// True iff `other` has the bitwise-identical *shape*: domain, first
  /// slope, and slope increments (two infinite functions compare equal).
  /// The anchor value v_lo is deliberately excluded — every mutating
  /// operation above drives its control flow (clip cuts, extension steps,
  /// breakpoint merges, argmin walks) from the shape alone and only ever
  /// *reads* values to produce new values, so shape evolution under a
  /// repeated operation sequence is autonomous: one observed shape fixpoint
  /// is a permanent fixpoint, with argmin positions pinned exactly.  The
  /// work-function tracker's repeated-slot fast path keys on this.
  bool same_shape(const ConvexPwl& other) const noexcept;

  /// Adds `delta` to the function everywhere (v_lo += delta); no-op on the
  /// infinite function.  Used to fast-forward values across a detected
  /// shape fixpoint (the per-step value increment is shape-determined).
  void shift_value(double delta) noexcept;

  /// same_shape plus a bit-pattern comparison of the anchor value (so 0.0
  /// and −0.0 compare unequal).  Two functions that compare bitwise_equal
  /// are interchangeable as replay states: every operation reads the same
  /// bits and therefore produces the same bits — the reconvergence test of
  /// the work-function rewind buffer (offline/work_function.hpp) keys on
  /// this.
  bool bitwise_equal(const ConvexPwl& other) const noexcept;

  /// Serialization accessors (core/checkpoint.hpp): the anchor value W(lo),
  /// the first slope, and the slope increments.  Meaningful only when
  /// !is_infinite(); the checkpoint encodes the infinite function as a flag.
  double value_lo() const noexcept { return v_lo_; }
  double first_slope() const noexcept { return slope0_; }
  const Increments& slope_increments() const noexcept { return dslope_; }

  /// Rebuilds a function from serialized parts, re-validating every
  /// representation invariant (lo <= hi, finite anchor value and slopes,
  /// increment positions strictly ascending and strictly inside (lo, hi),
  /// increments > 0, a point domain carries no slopes) so corrupt checkpoint
  /// payloads are rejected with std::invalid_argument instead of
  /// constructing a broken function.
  static ConvexPwl from_parts(int lo, int hi, double v_lo, double slope0,
                              Increments dslope);

 private:
  friend class ConvexPwlBuilder;
  friend struct ConvexPwlTestAccess;

  ConvexPwl(int lo, int hi, double v_lo)
      : infinite_(false), lo_(lo), hi_(hi), v_lo_(v_lo) {}

  // Slope of the last segment [hi-1, hi]; require a non-point domain. O(K).
  double last_slope() const;
  // Clip slopes > s_max down to s_max (values right of the cut drop onto
  // the s_max tangent; the left anchor is unchanged).
  void clip_back(double s_max);
  // Clip slopes < s_min up to s_min; re-anchors v_lo_ on the tangent
  // W(xc) − s_min·(xc − lo) through the first surviving slope.
  void clip_front(double s_min);
  void extend_left(int new_lo, double slope);
  void extend_right(int new_hi, double slope);
  // Shrink the domain to [new_lo, new_hi] ⊆ [lo_, hi_].
  void restrict_domain(int new_lo, int new_hi);

  bool infinite_ = true;
  int lo_ = 0;
  int hi_ = 0;
  double v_lo_ = 0.0;    // value at lo_
  double slope0_ = 0.0;  // slope of [lo_, lo_+1]; 0 when lo_ == hi_
  // (x, s(x) − s(x−1)) for lo_ < x < hi_, x strictly ascending; entries are
  // > 0.
  Increments dslope_;
};

/// Deep representation-invariant audit (util/audit.hpp; DESIGN.md §13):
/// domain ordered (lo <= hi), anchor value and slopes finite, slope
/// increments strictly positive, strictly inside (lo, hi) and at strictly
/// ascending positions, a point domain carrying no slopes.  Raises
/// rs::util::audit::AuditError naming the violated invariant and `site`.
/// Always compiled (the auditor's negative tests call it directly); the
/// RS_AUDIT hooks after every mutating operation engage only under
/// RIGHTSIZER_AUDIT.
void audit_convex_pwl(const ConvexPwl& f, const char* site);

/// Test-only corruption hooks for the auditor's negative tests
/// (tests/test_audit.cpp): direct references to the private representation
/// so a test can break exactly one invariant and assert the audit names
/// it.  Never use outside tests — every member bypasses validation.
struct ConvexPwlTestAccess {
  static int& lo(ConvexPwl& f) noexcept { return f.lo_; }
  static int& hi(ConvexPwl& f) noexcept { return f.hi_; }
  static double& v_lo(ConvexPwl& f) noexcept { return f.v_lo_; }
  static double& slope0(ConvexPwl& f) noexcept { return f.slope0_; }
  static ConvexPwl::Increments& dslope(ConvexPwl& f) noexcept {
    return f.dslope_;
  }
};

// ---------------------------------------------------------------------------
// Construction helpers for CostFunction::as_convex_pwl implementations
// ---------------------------------------------------------------------------

/// Assembles a ConvexPwl from left-to-right slope runs; validates convexity
/// (slope increments >= 0 up to a relative merge epsilon — tiny negative
/// increments from independently rounded slopes are merged into the
/// previous run, genuine dips reject the build) and merges duplicate
/// slopes, so e.g. a table whose segments repeat a slope yields one run.
class ConvexPwlBuilder {
 public:
  /// Starts the domain at lo with W(lo) = value (finite, else the build is
  /// rejected — infinite states are expressed via the domain bounds).
  void start(int lo, double value);

  /// Appends a segment of constant `slope` ending at `x_end` (> current
  /// end).  NaN or infinite slopes reject the build.
  void run(double slope, int x_end);

  /// The function built so far, or nullopt if a run violated convexity
  /// beyond the merge epsilon, a NaN was seen, or more than
  /// `max_breakpoints` slope increments survived merging.
  std::optional<ConvexPwl> finish(int max_breakpoints);

 private:
  bool started_ = false;
  bool rejected_ = false;
  int lo_ = 0;
  int end_ = 0;
  double v_lo_ = 0.0;
  std::vector<std::pair<int, double>> runs_;  // (start position, slope)
};

/// Tolerance under which a slope decrease across consecutive runs is
/// treated as rounding noise and merged instead of rejected.  The applied
/// tolerance is *mixed*: eps · max(|prev|, |slope|, 1).  The 1.0 floor is
/// load-bearing — for adjacent slopes straddling zero (e.g. +1e-13
/// followed by −1e-13, the shape hinge conversions produce at exactly-flat
/// plateaus) a purely relative tolerance degenerates to ~0 and would
/// reject genuinely convex inputs; the floor turns it into an absolute
/// 1e-12 near zero while staying relative for large slopes.  Pinned by the
/// NearZeroSlopePairs regression tests.
inline constexpr double kConvexPwlMergeEps = 1e-12;

}  // namespace rs::core
