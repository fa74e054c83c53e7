#include "online/lcp.hpp"

#include "core/checkpoint.hpp"
#include "util/audit.hpp"
#include "util/math_util.hpp"

namespace rs::online {

namespace {

void check_session_bounds(int value, int m, const char* what) {
  if (value < 0 || value > m) {
    throw rs::core::CheckpointFormatError(
        std::string("session checkpoint: ") + what + " outside [0, m]");
  }
}

}  // namespace

void Lcp::reset(const OnlineContext& context) {
  tracker_.emplace(context.m, context.beta, backend_);
  if (what_if_capacity_ > 0) tracker_->enable_rewind(what_if_capacity_);
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
  (void)lookahead;  // LCP uses no predictions (see WindowedLcp for w > 0)
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
      backend_ == rs::offline::WorkFunctionTracker::Backend::kPwl) {
    return false;
  }
  tracker_->ensure_dense_backend();
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
  rs::core::CheckpointReader r(bytes, rs::core::kLcpCheckpointKind);
  const std::uint8_t backend_tag = r.u8();
  const std::int32_t current = r.i32();
  const std::int32_t last_lower = r.i32();
  const std::int32_t last_upper = r.i32();
  const std::uint8_t has_tracker = r.u8();
  if (backend_tag >
      static_cast<std::uint8_t>(
          rs::offline::WorkFunctionTracker::Backend::kPwl)) {
    throw CheckpointFormatError("session checkpoint: invalid backend tag");
  }
  if (has_tracker > 1) {
    throw CheckpointFormatError("session checkpoint: invalid tracker flag");
  }
  if (static_cast<rs::offline::WorkFunctionTracker::Backend>(backend_tag) !=
      backend_) {
    throw CheckpointMismatchError(
        "session checkpoint: snapshot backend does not match this session");
  }
  check_session_bounds(current, context.m, "current state");
  check_session_bounds(last_lower, context.m, "last lower bound");
  check_session_bounds(last_upper, context.m, "last upper bound");

  // Fully decode (and validate) the nested tracker before mutating the
  // session, so a bad checkpoint leaves this object untouched.
  std::optional<rs::offline::WorkFunctionTracker> tracker;
  if (has_tracker == 1) {
    const std::uint64_t nested_size = r.u64();
    const std::vector<std::uint8_t> nested =
        r.bytes(static_cast<std::size_t>(nested_size));
    tracker.emplace(rs::offline::WorkFunctionTracker::restore(nested));
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

rs::core::Schedule run_lcp(const rs::core::SlotSource& source,
                           rs::offline::WorkFunctionTracker::Backend backend) {
  const rs::offline::BoundTrajectory bounds =
      rs::offline::compute_bounds(source, backend);
  rs::core::Schedule schedule(bounds.lower.size());
  project_corridor(0, bounds.lower, bounds.upper, schedule);
  return schedule;
}

rs::core::Schedule run_lcp_dense(const rs::core::DenseProblem& dense) {
  return run_lcp(dense);
}

rs::core::Schedule run_lcp_pwl(const rs::core::PwlProblem& pwl) {
  return run_lcp(pwl);
}

}  // namespace rs::online
