// rs-lint: minmax-audited — the windowed work-function folds are approved
// branch-free kernels: a NaN slot cost is rejected upstream (tenant ingest
// probes, engine NaN classification) before it can reach these labels, and
// the RIGHTSIZER_AUDIT tracker checks pin the labels NaN-free
// (DESIGN.md §13).
#include "online/lcp.hpp"

#include <algorithm>
#include <string>

#include "core/checkpoint.hpp"
#include "util/audit.hpp"
#include "util/math_util.hpp"
#include "util/workspace.hpp"

namespace rs::online {

using rs::offline::WorkFunctionTracker;
using rs::util::kInf;

namespace {

void check_session_bounds(int value, int m, const char* what) {
  if (value < 0 || value > m) {
    throw rs::core::CheckpointFormatError(
        std::string("session checkpoint: ") + what + " outside [0, m]");
  }
}

}  // namespace

void completion_costs(std::span<const rs::core::CostPtr> window, double beta,
                      bool charge_up, std::span<double> d) {
  // Backward DP: D_j(x) = min_{x'} [ switch(x -> x') + f_j(x') + D_{j+1}(x') ]
  // with D_{end}(x) = 0.  switch(x -> x') = β(x'−x)⁺ under L-accounting and
  // β(x−x')⁺ under U-accounting.  Labels are extended reals in [0, +inf],
  // so the f_j addition needs no infinity guard.
  const int m = static_cast<int>(d.size()) - 1;
  std::fill(d.begin(), d.end(), 0.0);
  rs::util::Workspace& workspace = rs::util::this_thread_workspace();
  auto g = workspace.borrow<double>(d.size());
  auto frow = workspace.borrow<double>(d.size());
  for (std::size_t j = window.size(); j-- > 0;) {
    window[j]->eval_row(m, frow.span());  // one virtual call per window row
    for (int x = 0; x <= m; ++x) {
      g[static_cast<std::size_t>(x)] =
          frow[static_cast<std::size_t>(x)] + d[static_cast<std::size_t>(x)];
    }
    if (charge_up) {
      // D(x) = min( min_{x'>=x} g(x') + β(x'−x), min_{x'<=x} g(x') ).
      double best_shifted = kInf;  // min g(x') + βx'
      for (int x = m; x >= 0; --x) {
        best_shifted =
            std::min(best_shifted, g[static_cast<std::size_t>(x)] + beta * x);
        d[static_cast<std::size_t>(x)] = best_shifted - beta * x;
      }
      double prefix = kInf;
      for (int x = 0; x <= m; ++x) {
        prefix = std::min(prefix, g[static_cast<std::size_t>(x)]);
        d[static_cast<std::size_t>(x)] =
            std::min(d[static_cast<std::size_t>(x)], prefix);
      }
    } else {
      // D(x) = min( min_{x'<=x} g(x') + β(x−x'), min_{x'>=x} g(x') ).
      double best_shifted = kInf;  // min g(x') − βx'
      for (int x = 0; x <= m; ++x) {
        best_shifted =
            std::min(best_shifted, g[static_cast<std::size_t>(x)] - beta * x);
        d[static_cast<std::size_t>(x)] = best_shifted + beta * x;
      }
      double suffix = kInf;
      for (int x = m; x >= 0; --x) {
        suffix = std::min(suffix, g[static_cast<std::size_t>(x)]);
        d[static_cast<std::size_t>(x)] =
            std::min(d[static_cast<std::size_t>(x)], suffix);
      }
    }
  }
}

std::vector<double> completion_costs(
    std::span<const rs::core::CostPtr> window, int m, double beta,
    bool charge_up) {
  std::vector<double> d(static_cast<std::size_t>(m) + 1);
  completion_costs(window, beta, charge_up, d);
  return d;
}

rs::core::ConvexPwl completion_costs_pwl(
    std::span<const rs::core::ConvexPwl> window, int m, double beta,
    bool charge_up) {
  // Same recursion as the dense pass (add f_j, then relax), with the relax
  // realized as a slope clip: under L-accounting (charge_up) future
  // up-moves cost β, i.e. slopes below −β are raised onto the −β tangent
  // and the increasing part is flattened — the charge-down clip; the
  // U-accounting window mirrors it.
  rs::core::ConvexPwl d = rs::core::ConvexPwl::constant(0, m, 0.0);
  for (std::size_t j = window.size(); j-- > 0;) {
    d.add(window[j]);
    if (charge_up) {
      d.relax_charge_down(beta, 0, m);
    } else {
      d.relax_charge_up(beta, 0, m);
    }
  }
  return d;
}

void Lcp::reset(const OnlineContext& context) {
  tracker_.emplace(context.m, context.beta, backend_);
  if (what_if_capacity_ > 0) tracker_->enable_rewind(what_if_capacity_);
  form_cache_.clear();
  current_ = 0;
  last_lower_ = 0;
  last_upper_ = 0;
}

void Lcp::enable_what_if(int capacity) {
  if (capacity < 0) {
    throw std::invalid_argument("Lcp::enable_what_if: negative capacity");
  }
  what_if_capacity_ = capacity;
  if (!tracker_.has_value()) return;
  if (capacity > 0) {
    tracker_->enable_rewind(capacity);
  } else {
    tracker_->disable_rewind();
  }
}

int Lcp::decide(const rs::core::CostPtr& f,
                std::span<const rs::core::CostPtr> lookahead) {
  // A window's tail slot (empty lookahead, its form cached by the previous
  // step) still takes the window pass, so it is not converted twice.
  if (!lookahead.empty() || !form_cache_.empty()) {
    return project_onto(window_corridor(f, lookahead));
  }
  tracker_->advance(*f);
  last_lower_ = tracker_->x_lower();
  last_upper_ = tracker_->x_upper();
  current_ = project_corridor(current_, std::span<const int>(&last_lower_, 1),
                              std::span<const int>(&last_upper_, 1));
  RS_AUDIT(rs::util::audit::require(
      last_lower_ <= current_ && current_ <= last_upper_,
      "lcp-projection-in-corridor", "Lcp::decide"));
  return current_;
}

rs::core::Corridor Lcp::window_corridor(
    const rs::core::CostPtr& f, std::span<const rs::core::CostPtr> lookahead) {
  const int m = tracker_->max_servers();
  const double beta = tracker_->beta();

  // PWL fast path: usable while the tracker can still take PWL input and
  // the revealed cost plus the whole lookahead convert compactly.  The
  // per-step cost is then independent of m.
  if (tracker_->takes_pwl()) {
    const int budget = backend_ == WorkFunctionTracker::Backend::kPwl
                           ? rs::core::kUnboundedBreakpoints
                           : rs::core::compact_pwl_budget_for(m);
    // Form lookup through the sliding cache: the previous step cached the
    // forms of [f_prev, lookahead_prev...]; this step's f is the previous
    // lookahead's head and its lookahead overlaps the previous one shifted
    // by one, so consuming matching cache entries front to back leaves
    // exactly the newly revealed window tail to convert.  Non-sliding
    // callers simply miss and convert — correctness never depends on the
    // cache.
    const auto take_form =
        [this, m, budget](
            const rs::core::CostPtr& g) -> std::optional<rs::core::ConvexPwl> {
      while (!form_cache_.empty() && form_cache_.front().first != g) {
        form_cache_.pop_front();
      }
      if (!form_cache_.empty()) {
        rs::core::ConvexPwl form = std::move(form_cache_.front().second);
        form_cache_.pop_front();
        return form;
      }
      return g->as_convex_pwl(m, budget);
    };
    std::optional<rs::core::ConvexPwl> fp = take_form(f);
    if (fp) {
      std::vector<rs::core::ConvexPwl> window;
      window.reserve(lookahead.size());
      std::deque<std::pair<rs::core::CostPtr, rs::core::ConvexPwl>> next_cache;
      bool convertible = true;
      for (const rs::core::CostPtr& g : lookahead) {
        std::optional<rs::core::ConvexPwl> gp = take_form(g);
        if (!gp) {
          convertible = false;
          break;
        }
        // The form is needed twice: in this step's window pass and as the
        // next step's cache entry.  An O(K) copy replaces a re-conversion.
        next_cache.emplace_back(g, *gp);
        window.push_back(std::move(*gp));
      }
      form_cache_ = std::move(next_cache);
      if (convertible) {
        tracker_->advance(*fp);
        rs::core::ConvexPwl sum_lower = tracker_->chat_lower_pwl();
        rs::core::ConvexPwl sum_upper = sum_lower;
        sum_lower.add(
            completion_costs_pwl(window, m, beta, /*charge_up=*/true));
        sum_upper.add(
            completion_costs_pwl(window, m, beta, /*charge_up=*/false));
        return rs::core::tie_corridor(sum_lower, sum_upper, beta, m);
      }
    }
    // Not compactly convertible.  A forced-PWL run cannot proceed — name
    // the cause (matching the tracker contract) rather than tripping the
    // tracker's internal forced-PWL invariant below.
    if (backend_ == WorkFunctionTracker::Backend::kPwl) {
      throw std::invalid_argument(
          "Lcp: revealed cost or lookahead has no convex-PWL form "
          "(forced-PWL backend)");
    }
    // Latch the dense backend so every later per-x query below stays O(1);
    // the PWL path (and with it the form cache) is never revisited.
    form_cache_.clear();
    tracker_->ensure_dense_backend();
  }

  tracker_->advance(*f);

  const std::size_t width = static_cast<std::size_t>(m) + 1;
  rs::util::Workspace& workspace = rs::util::this_thread_workspace();
  auto sum_lower = workspace.borrow<double>(width);
  auto sum_upper = workspace.borrow<double>(width);
  completion_costs(lookahead, beta, /*charge_up=*/true, sum_lower.span());
  completion_costs(lookahead, beta, /*charge_up=*/false, sum_upper.span());
  const std::vector<double>& chat = tracker_->chat_lower_vector();
  for (std::size_t x = 0; x < width; ++x) {
    sum_lower[x] += chat[x];
    sum_upper[x] += chat[x];
  }
  return rs::core::tie_corridor(sum_lower.span(), sum_upper.span(), beta);
}

int Lcp::project_onto(rs::core::Corridor corridor) {
  last_lower_ = corridor.lower;
  last_upper_ = corridor.upper;
  // With predictions the corridor may invert on pathological ties;
  // projecting into [min, max] keeps the decision well-defined.
  const int lo = std::min(corridor.lower, corridor.upper);
  const int hi = std::max(corridor.lower, corridor.upper);
  current_ = project_corridor(current_, std::span<const int>(&lo, 1),
                              std::span<const int>(&hi, 1));
  return current_;
}

template <typename Slot>
void Lcp::decide_run_impl(const Slot& f, int count, std::span<int> decisions,
                          std::span<int> lower, std::span<int> upper) {
  if (count < 0) {
    throw std::invalid_argument("Lcp::decide_run: negative count");
  }
  const std::size_t n = static_cast<std::size_t>(count);
  if (decisions.size() < n || lower.size() < n || upper.size() < n) {
    throw std::invalid_argument("Lcp::decide_run: output spans too small");
  }
  if (!tracker_.has_value()) {
    throw std::logic_error("Lcp::decide_run: reset() the session first");
  }
  if (count == 0) return;
  tracker_->advance_repeated(f, count, lower, upper);
  current_ = project_corridor(current_, lower.first(n), upper.first(n),
                              decisions.first(n));
  last_lower_ = lower[n - 1];
  last_upper_ = upper[n - 1];
  RS_AUDIT(rs::util::audit::require(
      last_lower_ <= current_ && current_ <= last_upper_,
      "lcp-projection-in-corridor", "Lcp::decide_run"));
}

void Lcp::decide_run(const rs::core::CostFunction& f, int count,
                     std::span<int> decisions, std::span<int> lower,
                     std::span<int> upper) {
  decide_run_impl(f, count, decisions, lower, upper);
}

void Lcp::decide_run(const rs::core::ConvexPwl& f, int count,
                     std::span<int> decisions, std::span<int> lower,
                     std::span<int> upper) {
  decide_run_impl(f, count, decisions, lower, upper);
}

bool Lcp::degrade_to_dense() {
  if (!tracker_.has_value() ||
      backend_ == WorkFunctionTracker::Backend::kPwl) {
    return false;
  }
  tracker_->ensure_dense_backend();
  form_cache_.clear();  // the window pass never takes PWL again
  return true;
}

std::vector<std::uint8_t> Lcp::snapshot() const {
  rs::core::CheckpointWriter w;
  w.u8(static_cast<std::uint8_t>(backend_));
  w.i32(current_);
  w.i32(last_lower_);
  w.i32(last_upper_);
  w.u8(tracker_.has_value() ? 1 : 0);
  if (tracker_.has_value()) {
    const std::vector<std::uint8_t> nested = tracker_->snapshot();
    w.u64(nested.size());
    w.bytes(nested);
  }
  return w.seal(rs::core::kLcpCheckpointKind);
}

void Lcp::restore(const OnlineContext& context,
                  std::span<const std::uint8_t> bytes) {
  using rs::core::CheckpointFormatError;
  using rs::core::CheckpointMismatchError;
  // The legacy windowed-session layout adds the snapshotted (m, beta)
  // after the backend tag; everything else reads as today.
  const bool legacy_windowed = rs::core::checkpoint_kind(bytes) ==
                               rs::core::kWindowedLcpCheckpointKind;
  rs::core::CheckpointReader r(bytes,
                               legacy_windowed
                                   ? rs::core::kWindowedLcpCheckpointKind
                                   : rs::core::kLcpCheckpointKind);
  const std::uint8_t backend_tag = r.u8();
  const std::int32_t m = legacy_windowed ? r.i32() : context.m;
  const double beta = legacy_windowed ? r.f64() : context.beta;
  const std::int32_t current = r.i32();
  const std::int32_t last_lower = r.i32();
  const std::int32_t last_upper = r.i32();
  const std::uint8_t has_tracker = r.u8();
  if (backend_tag >
      static_cast<std::uint8_t>(WorkFunctionTracker::Backend::kPwl)) {
    throw CheckpointFormatError("session checkpoint: invalid backend tag");
  }
  if (has_tracker > 1) {
    throw CheckpointFormatError("session checkpoint: invalid tracker flag");
  }
  if (static_cast<WorkFunctionTracker::Backend>(backend_tag) != backend_) {
    throw CheckpointMismatchError(
        "session checkpoint: snapshot backend does not match this session");
  }
  if (legacy_windowed && (m != context.m || beta != context.beta)) {
    throw CheckpointMismatchError(
        "session checkpoint: snapshot (m, beta) does not match context");
  }
  check_session_bounds(current, context.m, "current state");
  check_session_bounds(last_lower, context.m, "last lower bound");
  check_session_bounds(last_upper, context.m, "last upper bound");

  // Fully decode (and validate) the nested tracker before mutating the
  // session, so a bad checkpoint leaves this object untouched.
  std::optional<WorkFunctionTracker> tracker;
  if (has_tracker == 1) {
    const std::uint64_t nested_size = r.u64();
    const std::vector<std::uint8_t> nested =
        r.bytes(static_cast<std::size_t>(nested_size));
    tracker.emplace(WorkFunctionTracker::restore(nested));
    if (tracker->max_servers() != context.m ||
        tracker->beta() != context.beta) {
      throw CheckpointMismatchError(
          "session checkpoint: tracker (m, beta) does not match context");
    }
  }
  r.finish();

  if (tracker.has_value()) {
    tracker_ = std::move(tracker);
  } else {
    tracker_.emplace(context.m, context.beta, backend_);
  }
  // Rewind state is never checkpointed (the wire format is unchanged);
  // restart the what-if window at the restored state.
  if (what_if_capacity_ > 0) tracker_->enable_rewind(what_if_capacity_);
  form_cache_.clear();
  current_ = current;
  last_lower_ = last_lower;
  last_upper_ = last_upper;
}

int project_corridor(int state, std::span<const int> lower,
                     std::span<const int> upper, std::span<int> decisions) {
  for (std::size_t i = 0; i < lower.size(); ++i) {
    state = rs::util::project(state, lower[i], upper[i]);
    if (!decisions.empty()) decisions[i] = state;
  }
  return state;
}

rs::core::Schedule lcp_schedule(const rs::offline::BoundTrajectory& bounds) {
  rs::core::Schedule schedule(bounds.lower.size());
  project_corridor(0, bounds.lower, bounds.upper, schedule);
  return schedule;
}

rs::core::Schedule run_lcp(const rs::core::SlotSource& source,
                           rs::offline::WorkFunctionTracker::Backend backend) {
  return lcp_schedule(rs::offline::compute_bounds(source, backend));
}

rs::core::Schedule run_lcp_dense(const rs::core::DenseProblem& dense) {
  return run_lcp(dense);
}

rs::core::Schedule run_lcp_pwl(const rs::core::PwlProblem& pwl) {
  return run_lcp(pwl);
}

}  // namespace rs::online
