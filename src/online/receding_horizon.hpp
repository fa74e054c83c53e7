// Model-predictive baselines for the prediction-window experiments:
//
//   RecedingHorizon (RHC): at every slot, solve the visible fixed-horizon
//   problem [t, t+w] optimally starting from the committed state and play
//   its first action.  A standard MPC baseline; no constant competitive
//   ratio in the worst case (Theorem 10's stretched instances defeat it),
//   but strong on predictable traces.
//
//   AveragingFixedHorizon (AFHC): w+1 staggered fixed-horizon variants,
//   variant k re-planning at slots t ≡ k (mod w+1) and then following its
//   committed plan; the played fractional state is the average.  The
//   averaging smooths the re-planning boundaries that hurt RHC on
//   adversarial inputs (Lin et al. discuss this comparison).
//
// Both plan a window with plan_fixed_horizon, which runs the offline
// table DP (offline::solve_dense) from the committed state.  RHC also keeps
// a one-entry memo of its last plan: the start state, the window's
// CostPtrs and the first action.  A step whose start and window equal the
// memo's plays that action again without a solve.  That is the common
// case inside the runs of a run-length-encoded trace.  The memo owns the
// costs it compares, so a caller may stream fresh costs and drop served
// slots: an address cannot be reused while the memo still holds it.
#pragma once

#include <vector>

#include "online/online_algorithm.hpp"

namespace rs::online {

class RecedingHorizon final : public OnlineAlgorithm {
 public:
  std::string name() const override { return "receding_horizon"; }
  void reset(const OnlineContext& context) override;
  int decide(const rs::core::CostPtr& f,
             std::span<const rs::core::CostPtr> lookahead) override;

 private:
  OnlineContext context_;
  int current_ = 0;
  // The last solve: its start state (-1: none), window and first action.
  int memo_start_ = -1;
  std::vector<rs::core::CostPtr> memo_window_;
  int memo_action_ = 0;
};

class AveragingFixedHorizon final : public FractionalOnlineAlgorithm {
 public:
  /// `window` must match the prediction window the replayer is run with.
  explicit AveragingFixedHorizon(int window);

  std::string name() const override { return "afhc"; }
  void reset(const OnlineContext& context) override;
  double decide(const rs::core::CostPtr& f,
                std::span<const rs::core::CostPtr> lookahead) override;

 private:
  struct Variant {
    int state = 0;                 // committed state after the last slot
    std::vector<int> plan;         // remaining committed actions
    std::size_t next_action = 0;
  };

  int window_ = 0;
  OnlineContext context_;
  int tau_ = 0;
  std::vector<Variant> variants_;
};

/// Optimal plan for the fixed-horizon problem: starting from
/// `start_state`, serve f (the current slot) followed by the lookahead
/// functions, charging β on power-up; the horizon end is free.  Returns the
/// optimal states for the current slot and every lookahead slot, with the
/// table DP's tie-breaking.  Throws std::invalid_argument for a start state
/// outside [0, m], a null cost, m < 0, β <= 0 or a NaN cost value, and
/// std::logic_error when no plan has finite cost.
std::vector<int> plan_fixed_horizon(int start_state,
                                    const rs::core::CostPtr& f,
                                    std::span<const rs::core::CostPtr> lookahead,
                                    int m, double beta);

}  // namespace rs::online
