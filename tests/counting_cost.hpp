// A forwarding CostFunction that counts its as_convex_pwl calls; the
// conversion-count regression tests pin the one-conversion-per-slot
// invariants with it.
#pragma once

#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>

#include "core/convex_pwl.hpp"
#include "core/cost_function.hpp"

namespace rs::test_support {

class CountingCost final : public rs::core::CostFunction {
 public:
  CountingCost(rs::core::CostPtr base,
               std::shared_ptr<std::atomic<int>> conversions)
      : base_(std::move(base)), conversions_(std::move(conversions)) {}
  double at(int x) const override { return base_->at(x); }
  void eval_row(int m, std::span<double> out) const override {
    base_->eval_row(m, out);
  }
  bool is_convex() const override { return base_->is_convex(); }
  std::string name() const override {
    return "counting(" + base_->name() + ")";
  }

 protected:
  std::optional<rs::core::ConvexPwl> as_convex_pwl_impl(
      int m, int max_breakpoints) const override {
    conversions_->fetch_add(1, std::memory_order_relaxed);
    return base_->as_convex_pwl(m, max_breakpoints);
  }

 private:
  rs::core::CostPtr base_;
  std::shared_ptr<std::atomic<int>> conversions_;
};

}  // namespace rs::test_support
