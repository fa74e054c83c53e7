// Shared helpers for the experiment binaries (see DESIGN.md §4 for the
// experiment index).  Each bench prints the paper-style rows for one
// experiment and exits 0; failures of the documented qualitative claims
// exit non-zero so the bench suite doubles as a regression harness.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "rightsizer/rightsizer.hpp"

namespace rs::bench {

inline int g_check_failures = 0;

/// Records a qualitative expectation of the experiment; prints loudly on
/// violation and makes the binary exit non-zero at the end.
inline void check(bool condition, const std::string& message) {
  if (!condition) {
    ++g_check_failures;
    std::cerr << "[CHECK FAILED] " << message << "\n";
  }
}

inline int finish(const std::string& experiment) {
  if (g_check_failures > 0) {
    std::cerr << experiment << ": " << g_check_failures
              << " qualitative check(s) failed\n";
    return 1;
  }
  std::cout << "\n" << experiment << ": all qualitative checks passed\n";
  return 0;
}

/// Standard experiment workloads as general-model instances.
inline rs::core::Problem hotmail_restricted(rs::util::Rng& rng, int servers,
                                            int days, double beta_scale) {
  rs::dcsim::DataCenterModel model;
  model.servers = servers;
  model.power.transition_joules *= beta_scale;
  const rs::workload::Trace trace =
      rs::workload::hotmail_like(rng, days, 96, 0.6 * servers);
  return rs::dcsim::restricted_datacenter_problem(model, trace);
}

inline rs::core::Problem msr_restricted(rs::util::Rng& rng, int servers,
                                        int days, double beta_scale) {
  rs::dcsim::DataCenterModel model;
  model.servers = servers;
  model.power.transition_joules *= beta_scale;
  const rs::workload::Trace trace =
      rs::workload::msr_like(rng, days, 96, 0.6 * servers);
  return rs::dcsim::restricted_datacenter_problem(model, trace);
}

inline rs::core::Problem mmpp_soft(rs::util::Rng& rng, int servers, int T,
                                   double beta_scale) {
  rs::dcsim::SoftSlaModel model;
  model.servers = servers;
  model.beta *= beta_scale;
  rs::workload::Mmpp2Params params;
  params.horizon = T;
  params.rate_low = 0.15 * servers;
  params.rate_high = 0.7 * servers;
  const rs::workload::Trace trace = rs::workload::mmpp2(rng, params);
  return rs::dcsim::soft_sla_problem(model, trace);
}

// ---------------------------------------------------------------------------
// Dense-evaluation-layer perf fixtures, shared by bench_thm1_offline and the
// bench_thm2_lcp timing section.  The two instance classes below are the
// dispatch-heavy ones the layer was built for: decorator chains and
// std::function-backed restricted slot costs.
// ---------------------------------------------------------------------------

/// Random convex tables wrapped in Padded → Stride(2) → Scaled, the stack
/// produced by the Section-2.2/2.3 instance transforms; every per-point
/// evaluation pays four virtual hops.
inline rs::core::Problem decorated_instance(int T, int m) {
  rs::util::Rng rng(static_cast<std::uint64_t>(T) * 2000003u +
                    static_cast<std::uint64_t>(m) + 1u);
  const int stride = 2;
  std::vector<rs::core::CostPtr> fs;
  fs.reserve(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    auto table = std::make_shared<rs::core::TableCost>(
        rs::workload::random_convex_table(rng, m * stride));
    auto padded = std::make_shared<rs::core::PaddedCost>(table, m * stride);
    auto strided = std::make_shared<rs::core::StrideCost>(padded, stride);
    fs.push_back(std::make_shared<rs::core::ScaledCost>(strided, 1.0 / 3.0));
  }
  return rs::core::Problem(m, 2.0, std::move(fs));
}

/// Restricted-model instance (paper eq. 2): every evaluation routes through
/// the shared std::function load-cost curve.
inline rs::core::Problem restricted_slot_instance(int T, int m) {
  rs::util::Rng rng(static_cast<std::uint64_t>(T) * 3000017u +
                    static_cast<std::uint64_t>(m) + 2u);
  auto load_cost = std::make_shared<const std::function<double(double)>>(
      [](double z) { return 1.0 + z * z; });
  std::vector<rs::core::CostPtr> fs;
  fs.reserve(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    const double lambda = rng.uniform(0.0, 0.6 * m);
    fs.push_back(
        std::make_shared<rs::core::RestrictedSlotCost>(load_cost, lambda));
  }
  return rs::core::Problem(m, 2.0, std::move(fs));
}

/// The seed's O(T·m) DP cost loop, replicated verbatim from the pre-dense
/// offline/dp_solver.cpp (per-point Problem::cost_at, per-step suffix
/// workspace allocations, argmin bookkeeping) so the PerPoint benchmarks
/// measure exactly the path the dense layer replaced.
inline double per_point_dp_cost_reference(const rs::core::Problem& p) {
  const int T = p.horizon();
  const int m = p.max_servers();
  const double beta = p.beta();
  const double inf = rs::util::kInf;
  if (T == 0) return 0.0;
  std::vector<double> current(static_cast<std::size_t>(m) + 1, inf);
  current[0] = 0.0;
  std::vector<double> next(static_cast<std::size_t>(m) + 1);
  for (int t = 1; t <= T; ++t) {
    std::vector<double> suffix_min(static_cast<std::size_t>(m) + 1);
    std::vector<std::int32_t> suffix_arg(static_cast<std::size_t>(m) + 1);
    suffix_min[static_cast<std::size_t>(m)] = current[static_cast<std::size_t>(m)];
    suffix_arg[static_cast<std::size_t>(m)] = m;
    for (int x = m - 1; x >= 0; --x) {
      const double here = current[static_cast<std::size_t>(x)];
      if (here <= suffix_min[static_cast<std::size_t>(x + 1)]) {
        suffix_min[static_cast<std::size_t>(x)] = here;
        suffix_arg[static_cast<std::size_t>(x)] = x;
      } else {
        suffix_min[static_cast<std::size_t>(x)] = suffix_min[static_cast<std::size_t>(x + 1)];
        suffix_arg[static_cast<std::size_t>(x)] = suffix_arg[static_cast<std::size_t>(x + 1)];
      }
    }
    double prefix_min = inf;
    std::int32_t prefix_arg = -1;
    for (int x = 0; x <= m; ++x) {
      const double shifted =
          current[static_cast<std::size_t>(x)] - beta * static_cast<double>(x);
      if (shifted < prefix_min) {
        prefix_min = shifted;
        prefix_arg = static_cast<std::int32_t>(x);
      }
      const double up_candidate = prefix_min + beta * static_cast<double>(x);
      const double stay_candidate = suffix_min[static_cast<std::size_t>(x)];
      const double transition =
          up_candidate < stay_candidate ? up_candidate : stay_candidate;
      (void)prefix_arg;
      const double f = p.cost_at(t, x);  // bounds check + virtual chain
      next[static_cast<std::size_t>(x)] =
          std::isinf(f) || std::isinf(transition) ? inf : transition + f;
    }
    std::swap(current, next);
  }
  double best = inf;
  for (double label : current) best = std::min(best, label);
  return best;
}

/// The seed's work-function tracker, replicated from the pre-dense
/// offline/work_function.cpp: separate relax sweeps per accounting, a
/// per-point cost addition, and full O(m) minimizer scans in x_lower /
/// x_upper.  The dense layer fused these into three passes with cached
/// minimizers; this copy preserves the old cost profile for the PerPoint
/// benchmarks.
class SeedWorkFunctionTracker {
 public:
  SeedWorkFunctionTracker(int m, double beta) : m_(m), beta_(beta) {
    chat_l_.assign(static_cast<std::size_t>(m_) + 1, rs::util::kInf);
    chat_u_.assign(static_cast<std::size_t>(m_) + 1, rs::util::kInf);
    chat_l_[0] = 0.0;
    chat_u_[0] = 0.0;
  }

  void advance(const std::vector<double>& values) {
    relax(chat_l_, beta_, /*charge_up=*/true);
    relax(chat_u_, beta_, /*charge_up=*/false);
    for (int x = 0; x <= m_; ++x) {
      const double f = values[static_cast<std::size_t>(x)];
      chat_l_[static_cast<std::size_t>(x)] += f;
      chat_u_[static_cast<std::size_t>(x)] += f;
    }
  }

  // Full O(m) minimizer scans per query, under the library's corridor tie
  // rule (core/tie_rule.hpp) so the schedules stay comparable.  The seed's
  // own Ĉ^U already is Ĉ^L − βx, so it enters untilted (β = 0).
  int x_lower() const {
    return rs::core::tie_corridor(chat_l_, chat_u_, 0.0).lower;
  }

  int x_upper() const {
    return rs::core::tie_corridor(chat_l_, chat_u_, 0.0).upper;
  }

 private:
  static void relax(std::vector<double>& chat, double beta, bool charge_up) {
    const int m = static_cast<int>(chat.size()) - 1;
    if (charge_up) {
      double best_shifted = rs::util::kInf;
      for (int x = 0; x <= m; ++x) {
        best_shifted = std::min(
            best_shifted, chat[static_cast<std::size_t>(x)] - beta * x);
        chat[static_cast<std::size_t>(x)] = std::min(
            chat[static_cast<std::size_t>(x)], best_shifted + beta * x);
      }
      double suffix = rs::util::kInf;
      for (int x = m; x >= 0; --x) {
        suffix = std::min(suffix, chat[static_cast<std::size_t>(x)]);
        chat[static_cast<std::size_t>(x)] = suffix;
      }
    } else {
      double best_shifted = rs::util::kInf;
      for (int x = m; x >= 0; --x) {
        best_shifted = std::min(
            best_shifted, chat[static_cast<std::size_t>(x)] + beta * x);
        chat[static_cast<std::size_t>(x)] = std::min(
            chat[static_cast<std::size_t>(x)], best_shifted - beta * x);
      }
      double prefix = rs::util::kInf;
      for (int x = 0; x <= m; ++x) {
        prefix = std::min(prefix, chat[static_cast<std::size_t>(x)]);
        chat[static_cast<std::size_t>(x)] = prefix;
      }
    }
  }

  int m_;
  double beta_;
  std::vector<double> chat_l_;
  std::vector<double> chat_u_;
};

/// The seed's LCP loop: per-point row fill into the seed tracker.
inline rs::core::Schedule per_point_lcp_reference(const rs::core::Problem& p) {
  const int m = p.max_servers();
  SeedWorkFunctionTracker tracker(m, p.beta());
  std::vector<double> values(static_cast<std::size_t>(m) + 1);
  rs::core::Schedule schedule;
  schedule.reserve(static_cast<std::size_t>(p.horizon()));
  int current = 0;
  for (int t = 1; t <= p.horizon(); ++t) {
    const rs::core::CostFunction& f = p.f(t);
    for (int x = 0; x <= m; ++x) {
      values[static_cast<std::size_t>(x)] = f.at(x);  // seed per-point fill
    }
    tracker.advance(values);
    current = rs::util::project(current, tracker.x_lower(), tracker.x_upper());
    schedule.push_back(current);
  }
  return schedule;
}

}  // namespace rs::bench
