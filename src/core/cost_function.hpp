// Convex operating-cost functions f_t.
//
// The data-center optimization problem (paper eq. 1) charges f_t(x_t) for
// running x_t servers in slot t, where every f_t : {0,..,m} -> R>=0 is
// convex.  This header defines the cost-function interface, the concrete
// families used throughout the paper and experiments, the continuous
// extension f̄_t of eq. (3), and convexity/feasibility validators.
//
// Infeasible states (e.g. x_t < λ_t in the restricted model of eq. 2) are
// modelled as +infinity; a convex function may be +inf on a prefix and/or a
// suffix of its domain but must be finite on a contiguous non-empty range.
#pragma once

#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/convex_pwl.hpp"
#include "util/math_util.hpp"

namespace rs::core {

/// `max_breakpoints` value meaning "no budget" for as_convex_pwl.
inline constexpr int kUnboundedBreakpoints = (1 << 30);

/// Cap on the per-slot breakpoint budget under which the solvers'
/// automatic backend selection considers a cost function "compact" enough
/// for the convex-PWL backend.  Families whose exact PWL form needs more
/// breakpoints (dense tables, quadratics at large m) stay on the dense-row
/// backend, whose per-step cost is O(m) with a much smaller constant.
inline constexpr int kCompactPwlBudget = 64;

/// The effective auto-selection budget at a given m.  A PWL breakpoint
/// costs a (position, increment) pair plus per-step walks where the dense
/// backend pays one contiguous double, so the m-independent backend only
/// wins when K << m; the budget therefore scales with m (up to the cap)
/// instead of letting e.g. an m-breakpoint table crawl through its
/// breakpoints at small m (a measured ~2x batch-throughput loss, taken while
/// breakpoints were tree nodes, before this rule).  Forced-kPwl consumers
/// bypass the budget entirely.
inline constexpr int compact_pwl_budget_for(int m) noexcept {
  const int relative = m / 8;
  const int capped = relative < kCompactPwlBudget ? relative : kCompactPwlBudget;
  return capped > 8 ? capped : 8;
}

/// Canonical value identity of a cost function (CostFunction::value_key):
/// a family tag followed by the bit patterns of the family's parameters.
using ValueKey = std::vector<std::uint64_t>;

/// The family tag opening a value key: the family name, up to eight ASCII
/// characters, packed into one word.  Distinct names give distinct tags
/// with no registry; the empty name (tag 0) is reserved for identity keys
/// (SlotFormCache files opaque costs under it).
consteval std::uint64_t value_key_tag(std::string_view family) {
  if (family.empty() || family.size() > 8) {
    throw std::invalid_argument("value_key_tag: family name needs 1-8 chars");
  }
  std::uint64_t tag = 0;
  for (const char c : family) {
    tag = (tag << 8) | static_cast<unsigned char>(c);
  }
  return tag;
}

/// Abstract convex operating-cost function on server counts.
///
/// Implementations must be convex and non-negative on {0,..,m} for every m
/// they are used with; validate_cost_function() checks this for tests and
/// API-boundary validation.  Values must lie in [0, +inf] (+inf marks
/// infeasible states; -inf and NaN are outside the contract) — the solver
/// kernels rely on extended-real arithmetic over exactly this domain.
class CostFunction {
 public:
  virtual ~CostFunction() = default;

  /// Operating cost of running `x` servers; +inf marks infeasible states.
  /// `x` may be any non-negative integer (functions are defined on all of
  /// N_0 so that instance transforms can extend domains).
  virtual double at(int x) const = 0;

  /// Continuous extension f̄ (paper eq. 3): linear interpolation between
  /// adjacent integer states.  Overridden by families that have an exact
  /// closed form on the reals (the interpolation then coincides with it).
  virtual double at_real(double x) const;

  /// Batched evaluation: writes f(0), .., f(m) into out[0..m] (requires
  /// out.size() >= m+1 and m >= 0).  One virtual call fills a whole row, so
  /// dense consumers (DenseProblem, the DP/work-function kernels) avoid
  /// per-point dispatch through decorator chains.  Overrides MUST produce
  /// bit-identical values to at() — the dense/per-point equivalence property
  /// tests depend on it.
  virtual void eval_row(int m, std::span<double> out) const;

  /// Capability query: true when the family guarantees convexity on all of
  /// N_0 by construction (possibly relying on a documented caller contract,
  /// as RestrictedSlotCost does for its load curve).  False means "not
  /// structurally guaranteed" — the function may still happen to be convex
  /// (validate_cost_function checks values).  The convex-PWL backend
  /// selection keys on as_convex_pwl() instead, which validates exactly.
  virtual bool is_convex() const { return false; }

  /// Exact convex piecewise-linear form of f on {0,..,m}, or nullopt when
  /// the family has no such form, the values are not convex, or the form
  /// needs more than `max_breakpoints` slope increments (the m-independent
  /// backend only pays off for compact representations).  Implementations
  /// must agree with at() on every integer up to rounding: bit-identical
  /// at every breakpoint sample, and within a few ULPs in between (exactly,
  /// when the family's parameters and values are integers) — see
  /// DESIGN.md §8.  Non-virtual entry so the default budget applies on
  /// concrete types too; families override as_convex_pwl_impl.
  std::optional<ConvexPwl> as_convex_pwl(
      int m, int max_breakpoints = kUnboundedBreakpoints) const {
    return as_convex_pwl_impl(m, max_breakpoints);
  }

  /// Value identity.  Appends f's value key to `key` and returns true, or
  /// returns false when f is opaque (the appended words are then
  /// unspecified).  The key is the family tag (value_key_tag) plus the bit
  /// pattern of every parameter that affects at(), at_real(), eval_row(),
  /// is_convex() or as_convex_pwl(); decorators append their parameters
  /// and then their children's keys, and are opaque when any child is.
  /// Contract: equal FULL keys (never a hash of one) mean bitwise-equal
  /// results from all five at every argument, so either function may stand
  /// in for the other (the fleet form cache and rle_compress rely on it).
  /// Bits, not values: +0.0 and −0.0 key apart; name() is not covered.
  /// Opaque families (a callable the key cannot see into, fault wrappers)
  /// keep pointer identity.  Non-virtual entry over value_key_impl.
  bool append_value_key(ValueKey& key) const { return value_key_impl(key); }

  /// The whole value key, or nullopt when f is opaque.
  std::optional<ValueKey> value_key() const {
    ValueKey key;
    if (!value_key_impl(key)) return std::nullopt;
    return key;
  }

  /// Human-readable family name for diagnostics.
  virtual std::string name() const { return "cost"; }

 protected:
  virtual std::optional<ConvexPwl> as_convex_pwl_impl(int m,
                                                      int max_breakpoints) const;
  /// Keyed families append their tag and parameters (see append_value_key)
  /// and return true.  The default declares the family opaque.
  virtual bool value_key_impl(ValueKey& /*key*/) const { return false; }
};

/// Appends the bit pattern of `value` to a value key.
inline void append_key_bits(ValueKey& key, double value) {
  key.push_back(std::bit_cast<std::uint64_t>(value));
}

using CostPtr = std::shared_ptr<const CostFunction>;

// ---------------------------------------------------------------------------
// Concrete families
// ---------------------------------------------------------------------------

/// Explicit value table on {0,..,m}; evaluation beyond the table extends
/// linearly with the last slope so that transformed instances stay convex.
class TableCost final : public CostFunction {
 public:
  explicit TableCost(std::vector<double> values, std::string label = "table");
  double at(int x) const override;
  void eval_row(int m, std::span<double> out) const override;
  /// Scans the table: true iff the values are convex with a contiguous
  /// finite range.  Slope comparisons use the builder's relative merge
  /// epsilon (kConvexPwlMergeEps): dips below ~1e-12 relative count as
  /// rounding noise, not concavity.  O(table_size).
  bool is_convex() const override;
  /// Exact conversion; one breakpoint per slope change in the table, so
  /// only compact under the budget for tables with few distinct slopes.
  std::optional<ConvexPwl> as_convex_pwl_impl(int m,
                                              int max_breakpoints) const override;
  bool value_key_impl(ValueKey& key) const override;
  std::string name() const override { return label_; }
  int table_size() const noexcept { return static_cast<int>(values_.size()); }

 private:
  std::vector<double> values_;
  std::string label_;
};

/// a·|x − center| + offset, the ϕ family of the lower-bound constructions
/// (ϕ0(x) = ε|x|, ϕ1(x) = ε|x−1|).  Requires a >= 0.
class AffineAbsCost final : public CostFunction {
 public:
  AffineAbsCost(double slope, double center, double offset = 0.0);
  double at(int x) const override;
  double at_real(double x) const override;
  void eval_row(int m, std::span<double> out) const override;
  bool is_convex() const override { return true; }
  /// At most two breakpoints (around the center), independent of m.
  std::optional<ConvexPwl> as_convex_pwl_impl(int m,
                                              int max_breakpoints) const override;
  bool value_key_impl(ValueKey& key) const override;
  std::string name() const override { return "affine_abs"; }
  double slope() const noexcept { return slope_; }
  double center() const noexcept { return center_; }

 private:
  double slope_;
  double center_;
  double offset_;
};

/// a·(x − center)^2 + offset with a >= 0.
class QuadraticCost final : public CostFunction {
 public:
  QuadraticCost(double curvature, double center, double offset = 0.0);
  double at(int x) const override;
  double at_real(double x) const override;
  void eval_row(int m, std::span<double> out) const override;
  bool is_convex() const override { return true; }
  /// Exact on integers but with one breakpoint per state (the slope grows
  /// by 2·curvature every step), so it only converts when m fits the
  /// budget; curvature 0 collapses to a constant.
  std::optional<ConvexPwl> as_convex_pwl_impl(int m,
                                              int max_breakpoints) const override;
  bool value_key_impl(ValueKey& key) const override;
  std::string name() const override { return "quadratic"; }

 private:
  double curvature_;
  double center_;
  double offset_;
};

/// Wraps an arbitrary callable; the caller asserts convexity (checked by
/// validate_cost_function in tests).
// rs-lint: opaque-cost (the callable is invisible to a value key)
class FunctionCost final : public CostFunction {
 public:
  explicit FunctionCost(std::function<double(int)> fn,
                        std::string label = "function");
  double at(int x) const override;
  void eval_row(int m, std::span<double> out) const override;
  // is_convex() stays false and as_convex_pwl() nullopt: the callable is
  // opaque, so these functions always take the dense-row backend.
  std::string name() const override { return label_; }

 private:
  std::function<double(int)> fn_;
  std::string label_;
};

/// Restricted-model slot cost (paper eq. 2): x·f(λ/x) subject to x >= λ,
/// where f : [0,1] -> R>=0 is convex (cost of one server at load z) and λ is
/// the incoming workload of the slot.  States x < λ are +inf; the perspective
/// x·f(λ/x) of a convex f is convex in x, and a +inf prefix keeps convexity.
// rs-lint: opaque-cost (the load curve is an opaque std::function)
class RestrictedSlotCost final : public CostFunction {
 public:
  RestrictedSlotCost(std::shared_ptr<const std::function<double(double)>> f,
                     double lambda);
  double at(int x) const override;
  double at_real(double x) const override;
  void eval_row(int m, std::span<double> out) const override;
  /// Convex by the perspective-function argument (given the documented
  /// caller contract that f is convex); the load curve is an opaque
  /// std::function though, so there is no exact PWL form and
  /// as_convex_pwl() stays nullopt — the restricted model keeps the
  /// dense-row backend.
  bool is_convex() const override { return true; }
  std::string name() const override { return "restricted_slot"; }
  double lambda() const noexcept { return lambda_; }

 private:
  std::shared_ptr<const std::function<double(double)>> f_;
  double lambda_;
};

/// Restricted-model slot cost (paper eq. 2) with a *linear* per-server
/// tariff f(z) = base + rate·z: the perspective x·f(λ/x) collapses to
/// base·x + rate·λ on the feasible range x >= λ (and 0 at x = 0 when
/// λ = 0), i.e. an affine function with an infeasibility prefix.  Unlike
/// RestrictedSlotCost's opaque load curve, the closed form admits an exact
/// convex-PWL representation with zero breakpoints, so the restricted
/// model with linear tariffs rides the m-independent backend (the variant
/// Hübotter's implementation study, arXiv:2108.09489, benchmarks).
/// Requires base >= 0, rate >= 0, lambda >= 0 (NaN rejected).
class LinearLoadSlotCost final : public CostFunction {
 public:
  LinearLoadSlotCost(double base, double rate, double lambda);
  double at(int x) const override;
  double at_real(double x) const override;
  void eval_row(int m, std::span<double> out) const override;
  bool is_convex() const override { return true; }
  /// Exact: one affine segment on [⌈λ⌉, m] (all-infinite when λ > m).
  std::optional<ConvexPwl> as_convex_pwl_impl(int m,
                                              int max_breakpoints) const override;
  bool value_key_impl(ValueKey& key) const override;
  std::string name() const override { return "linear_load"; }
  double base() const noexcept { return base_; }
  double rate() const noexcept { return rate_; }
  double lambda() const noexcept { return lambda_; }

 private:
  double base_;    // per-server cost at zero load
  double rate_;    // per-server cost increase per unit load
  double lambda_;  // slot workload; states x < λ are infeasible
};

/// base(x) * factor, factor >= 0.  Used by the Theorem-10 sequence
/// stretching (each replica charges f_t / (n·w)).
class ScaledCost final : public CostFunction {
 public:
  ScaledCost(CostPtr base, double factor);
  double at(int x) const override;
  double at_real(double x) const override;
  void eval_row(int m, std::span<double> out) const override;
  bool is_convex() const override { return base_->is_convex(); }
  /// Scales the base form in place (factor 0 with an infeasible base state
  /// declines: at() yields NaN there, which the PWL form cannot express).
  std::optional<ConvexPwl> as_convex_pwl_impl(int m,
                                              int max_breakpoints) const override;
  bool value_key_impl(ValueKey& key) const override;
  std::string name() const override;

 private:
  CostPtr base_;
  double factor_;
};

/// base(x * stride), the Ψ_l rescaling of Section 2.3 (state x of the scaled
/// instance corresponds to x·2^l of the original one).
class StrideCost final : public CostFunction {
 public:
  StrideCost(CostPtr base, int stride);
  double at(int x) const override;
  void eval_row(int m, std::span<double> out) const override;
  bool is_convex() const override { return base_->is_convex(); }
  /// Resamples the base form on the stride grid (breakpoint positions
  /// contract by the stride; the count never grows).
  std::optional<ConvexPwl> as_convex_pwl_impl(int m,
                                              int max_breakpoints) const override;
  bool value_key_impl(ValueKey& key) const override;
  std::string name() const override;

 private:
  CostPtr base_;
  int stride_;
};

/// The Section 2.2 padding above m: f(m + d) = f(m) + slope·d with slope
/// max(f(m) − f(m−1), 0) + 1, steeper than any slope of a convex f, so
/// padded states are strictly dominated (DESIGN.md §2).  An infinite f(m)
/// stays infinite; a non-finite f(m−1) (pass +inf at m = 0) gives slope 1.
/// Shared by PaddedCost and BinarySearchSolver.
struct PaddingTail {
  PaddingTail() = default;
  PaddingTail(double f_below_m, double f_m);

  /// f(m + d) for d >= 1.
  double at(int d) const {
    return std::isinf(f_m) ? f_m : f_m + slope * static_cast<double>(d);
  }

  double f_m = 0.0;
  double slope = 1.0;
};

/// Extension used by the power-of-two padding of Section 2.2: equals `base`
/// on {0,..,m} and continues above m as its PaddingTail.
class PaddedCost final : public CostFunction {
 public:
  PaddedCost(CostPtr base, int original_m);
  double at(int x) const override;
  void eval_row(int m, std::span<double> out) const override;
  bool is_convex() const override { return base_->is_convex(); }
  /// Base form up to original_m plus one extension segment.
  std::optional<ConvexPwl> as_convex_pwl_impl(int m,
                                              int max_breakpoints) const override;
  bool value_key_impl(ValueKey& key) const override;
  std::string name() const override;

 private:
  CostPtr base_;
  int original_m_;
  PaddingTail tail_;
};

// ---------------------------------------------------------------------------
// Validation and helpers
// ---------------------------------------------------------------------------

struct CostFunctionReport {
  bool convex = true;
  bool non_negative = true;
  bool finite_somewhere = true;
  bool contiguous_finite_range = true;
  int first_finite = -1;  // smallest feasible state, -1 if none
  int last_finite = -1;   // largest feasible state
  bool ok() const noexcept {
    return convex && non_negative && finite_somewhere &&
           contiguous_finite_range;
  }
};

/// Scans f on {0,..,m} and reports convexity (slopes non-decreasing on the
/// finite range, +inf allowed only as prefix/suffix), non-negativity, and
/// the feasible range.
CostFunctionReport validate_cost_function(const CostFunction& f, int m);

/// Builds the exact convex-PWL form of f on {0,..,m} from a candidate kink
/// list (positions are clamped into [0, m]; 0 and m are always included):
/// f must be linear between consecutive candidates, and infinite exactly
/// outside the finite candidate range.  Both contracts are verified by
/// probes (a midpoint sample per multi-step segment, one sample past each
/// domain boundary), so a wrong kink list degrades to nullopt instead of a
/// silently wrong function.  The workhorse behind the decorator
/// as_convex_pwl implementations; exposed for custom families and tests.
std::optional<ConvexPwl> convex_pwl_from_kinks(
    const CostFunction& f, int m, std::vector<long long> kinks,
    int max_breakpoints = kUnboundedBreakpoints);

/// Smallest state in {0,..,m} minimizing f (paper's x_t^{min-}).  Linear
/// scan; correct for arbitrary functions.
int smallest_minimizer_scan(const CostFunction& f, int m);

/// Largest state in {0,..,m} minimizing f (paper's x_t^{min+}).
int largest_minimizer_scan(const CostFunction& f, int m);

/// O(log m) minimizer search for *convex* f via binary search on slopes.
/// Returns the smallest minimizer.
int smallest_minimizer_convex(const CostFunction& f, int m);

/// Continuous extension f̄ of eq. (3) for any cost function: interpolates the
/// integer values (identical to f.at_real for the default implementation).
double interpolate(const CostFunction& f, double x);

}  // namespace rs::core
