#include "online/receding_horizon.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "offline/dp_solver.hpp"

namespace rs::online {

std::vector<int> plan_fixed_horizon(
    int start_state, const rs::core::CostPtr& f,
    std::span<const rs::core::CostPtr> lookahead, int m, double beta) {
  std::vector<rs::core::CostPtr> window;
  window.reserve(1 + lookahead.size());
  window.push_back(f);
  window.insert(window.end(), lookahead.begin(), lookahead.end());
  const rs::core::Problem problem(m, beta, std::move(window));
  rs::offline::OfflineResult plan =
      rs::offline::solve_dense(problem, start_state);
  if (std::isnan(plan.cost)) {
    throw std::invalid_argument("plan_fixed_horizon: NaN slot cost");
  }
  if (!plan.feasible()) {
    throw std::logic_error("plan_fixed_horizon: infeasible window");
  }
  return std::move(plan.schedule);
}

void RecedingHorizon::reset(const OnlineContext& context) {
  context_ = context;
  current_ = 0;
  memo_start_ = -1;
  memo_window_.clear();
}

int RecedingHorizon::decide(const rs::core::CostPtr& f,
                            std::span<const rs::core::CostPtr> lookahead) {
  // The memo holds its window's costs, so equal pointers are equal costs.
  const bool memo_hit =
      memo_start_ == current_ &&
      memo_window_.size() == 1 + lookahead.size() && memo_window_[0] == f &&
      std::equal(lookahead.begin(), lookahead.end(), memo_window_.begin() + 1);
  if (!memo_hit) {
    memo_action_ =
        plan_fixed_horizon(current_, f, lookahead, context_.m, context_.beta)
            .front();
    memo_start_ = current_;
    memo_window_.assign({f});
    memo_window_.insert(memo_window_.end(), lookahead.begin(), lookahead.end());
  }
  current_ = memo_action_;
  return current_;
}

AveragingFixedHorizon::AveragingFixedHorizon(int window) : window_(window) {
  if (window < 0) throw std::invalid_argument("AveragingFixedHorizon: w < 0");
}

void AveragingFixedHorizon::reset(const OnlineContext& context) {
  context_ = context;
  tau_ = 0;
  variants_.assign(static_cast<std::size_t>(window_) + 1, Variant{});
}

double AveragingFixedHorizon::decide(
    const rs::core::CostPtr& f, std::span<const rs::core::CostPtr> lookahead) {
  const int variants = window_ + 1;
  double sum = 0.0;
  for (int k = 0; k < variants; ++k) {
    Variant& variant = variants_[static_cast<std::size_t>(k)];
    const bool replan = (tau_ % variants) == k ||
                        variant.next_action >= variant.plan.size();
    if (replan) {
      variant.plan = plan_fixed_horizon(variant.state, f, lookahead,
                                        context_.m, context_.beta);
      variant.next_action = 0;
    }
    variant.state = variant.plan[variant.next_action];
    ++variant.next_action;
    sum += static_cast<double>(variant.state);
  }
  ++tau_;
  return sum / static_cast<double>(variants);
}

}  // namespace rs::online
