// Piecewise-linear convex cost functions from explicit breakpoints.
//
// The natural user-facing family: operating costs in practice are assembled
// from linear tariffs, hinge penalties, and capacity kinks.  Construction
// validates convexity (slopes must be non-decreasing across breakpoints).
#pragma once

#include <vector>

#include "core/cost_function.hpp"

namespace rs::core {

struct Breakpoint {
  double x = 0.0;
  double value = 0.0;
};

class PiecewiseLinearCost final : public CostFunction {
 public:
  /// Breakpoints must be sorted by strictly increasing x and describe a
  /// convex function; evaluation extends the first/last segment beyond the
  /// breakpoint range.  Needs at least one breakpoint (a constant).
  explicit PiecewiseLinearCost(std::vector<Breakpoint> breakpoints);

  double at(int x) const override;
  double at_real(double x) const override;
  /// Segment-hoisted row fill (the per-x segment search of at() is monotone
  /// in x, so one forward walk suffices); bit-identical to at().
  void eval_row(int m, std::span<double> out) const override;
  bool is_convex() const override { return true; }  // validated at construction
  /// Integer restriction of the continuous PWL: at most two integer kinks
  /// per (possibly fractional) breakpoint, independent of m.
  std::optional<ConvexPwl> as_convex_pwl_impl(int m,
                                              int max_breakpoints) const override;
  bool value_key_impl(ValueKey& key) const override;
  std::string name() const override { return "piecewise_linear"; }

  const std::vector<Breakpoint>& breakpoints() const { return breakpoints_; }

 private:
  std::vector<Breakpoint> breakpoints_;
};

/// max(0, slope·(x − knee)) — a convex hinge penalizing excess capacity.
CostPtr make_hinge(double slope, double knee);

/// max(0, slope·(knee − x)) — a convex hinge penalizing shortfall, the
/// building block of SLA penalties (as in dcsim's soft model).
CostPtr make_shortfall_hinge(double slope, double knee);

/// Sum of convex cost functions (convexity is closed under addition).
class SumCost final : public CostFunction {
 public:
  explicit SumCost(std::vector<CostPtr> parts);
  double at(int x) const override;
  double at_real(double x) const override;
  /// One eval_row per part, accumulated in part order — same additions as
  /// at() (its early-out on +inf is absorbed by inf-propagating addition),
  /// hence bit-identical.
  void eval_row(int m, std::span<double> out) const override;
  bool is_convex() const override;  // all parts structurally convex
  /// Every part must convert; the sum is then rebuilt by sampling at()
  /// over the union of the parts' kink positions (keeping kink values
  /// bit-identical to the dense path), and must fit the budget.
  std::optional<ConvexPwl> as_convex_pwl_impl(int m,
                                              int max_breakpoints) const override;
  bool value_key_impl(ValueKey& key) const override;
  std::string name() const override { return "sum"; }

 private:
  std::vector<CostPtr> parts_;
};

}  // namespace rs::core
