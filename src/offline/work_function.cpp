#include "offline/work_function.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.hpp"
#include "offline/dense_step.hpp"
#include "util/audit.hpp"
#include "util/math_util.hpp"

namespace rs::offline {

using rs::core::ConvexPwl;
using rs::util::kInf;

WorkFunctionTracker::WorkFunctionTracker(int m, double beta, Backend backend)
    : m_(m), beta_(beta), backend_(backend) {
  if (m < 0) throw std::invalid_argument("WorkFunctionTracker: m < 0");
  if (!(beta > 0.0)) {
    throw std::invalid_argument("WorkFunctionTracker: beta must be > 0");
  }
  // τ = 0 state encodes x_0 = 0: reaching x already "costs" the pending
  // power-up βx under L-accounting; that charge materializes on the first
  // advance through the relax step, so the initial work function is 0 at
  // state 0 and +inf elsewhere.  Backend storage is created lazily: the PWL
  // label is an empty point function, the dense row is borrowed from the
  // thread workspace only if the dense backend is ever engaged.
  pwl_l_ = ConvexPwl::point(0, 0.0);
}

void WorkFunctionTracker::init_dense() {
  const std::size_t width = static_cast<std::size_t>(m_) + 1;
  chat_l_ = rs::util::this_thread_workspace().borrow<double>(width);
  // Materialize the PWL label: the τ = 0 point function, or a mid-run
  // fallback whose values agree with an all-dense run up to FP association
  // order (exactly on integer instances); see DESIGN.md §8.
  pwl_l_.materialize(m_, chat_l_.span());
  pwl_l_ = ConvexPwl::infinite();
  mode_ = Mode::kDense;
}

std::span<double> WorkFunctionTracker::scratch_row() {
  const std::size_t width = static_cast<std::size_t>(m_) + 1;
  if (scratch_.size() != width) {
    scratch_ = rs::util::this_thread_workspace().borrow<double>(width);
  }
  return scratch_.span();
}

void WorkFunctionTracker::ensure_dense_backend() {
  if (mode_ == Mode::kDense) return;
  if (backend_ == Backend::kPwl) {
    throw std::logic_error(
        "WorkFunctionTracker: dense backend requested on a forced-PWL "
        "tracker");
  }
  init_dense();
  // An external mode switch is not an advance and cannot be replayed, so
  // the history before it is no longer reconstructible: restart the rewind
  // window from the freshly materialized state.
  if (rewind_enabled_) rewind_reset_base();
}

// ---------------------------------------------------------------------------
// Backend resolution and the advance core
// ---------------------------------------------------------------------------

WorkFunctionTracker::InputRef WorkFunctionTracker::resolve(
    const rs::core::CostFunction& f, std::optional<ConvexPwl>& converted) {
  if (takes_pwl()) {
    converted = f.as_convex_pwl(
        m_, backend_ == Backend::kPwl ? rs::core::kUnboundedBreakpoints
                                      : rs::core::compact_pwl_budget_for(m_));
    if (converted) return InputRef{&*converted, {}};
    if (backend_ == Backend::kPwl) {
      throw std::invalid_argument(
          "WorkFunctionTracker: cost function has no compact convex-PWL "
          "form (forced-PWL backend)");
    }
  }
  const std::span<double> row = scratch_row();
  f.eval_row(m_, row);
  return InputRef{nullptr, row};
}

WorkFunctionTracker::InputRef WorkFunctionTracker::resolve(
    const ConvexPwl& f) {
  if (takes_pwl()) return InputRef{&f, {}};
  // The dense path consumes (and records) the materialized row, not the
  // form: the recorded kind mirrors the executed backend path, which is
  // what makes the edit-kind check in replay_edit equivalent to
  // backend-trajectory preservation.
  const std::span<double> row = scratch_row();
  f.materialize(m_, row);
  return InputRef{nullptr, row};
}

WorkFunctionTracker::InputRef WorkFunctionTracker::resolve(
    std::span<const double> values) {
  if (static_cast<int>(values.size()) != m_ + 1) {
    throw std::invalid_argument("WorkFunctionTracker: need m+1 values");
  }
  if (backend_ == Backend::kPwl) {
    throw std::logic_error(
        "WorkFunctionTracker: raw value rows require the dense backend");
  }
  return InputRef{nullptr, values};
}

WorkFunctionTracker::StoredInput WorkFunctionTracker::stored(InputRef input) {
  if (input.form != nullptr) return StoredInput{false, *input.form, {}};
  return StoredInput{
      true, {}, std::vector<double>(input.row.begin(), input.row.end())};
}

void WorkFunctionTracker::advance_core(InputRef input, int count,
                                       std::span<int> xl, std::span<int> xu) {
  if (input.form != nullptr) {
    advance_repeated_pwl(*input.form, count, xl, xu);
  } else {
    if (mode_ != Mode::kDense) init_dense();
    // No dense step can be skipped (the tie-rule scans compare accumulated
    // label values), but a run's row is evaluated once — the eval_row
    // elimination is the dense RLE win.
    for (int i = 0; i < count; ++i) {
      advance_dense(input.row);
      xl[static_cast<std::size_t>(i)] = x_lower_;
      xu[static_cast<std::size_t>(i)] = x_upper_;
    }
  }
  // RLE runs record ONE entry for the whole run.
  if (rewind_enabled_) rewind_record(stored(input), count);
}

void WorkFunctionTracker::advance_one(InputRef input) {
  int lower = 0;
  int upper = 0;
  advance_core(input, 1, std::span<int>(&lower, 1), std::span<int>(&upper, 1));
}

void WorkFunctionTracker::advance(const rs::core::CostFunction& f) {
  std::optional<ConvexPwl> converted;
  advance_one(resolve(f, converted));
}

void WorkFunctionTracker::advance(const rs::core::ConvexPwl& f) {
  advance_one(resolve(f));
}

void WorkFunctionTracker::advance(std::span<const double> values) {
  advance_one(resolve(values));
}

namespace {

void check_repeat_args(int count, std::span<const int> xl,
                       std::span<const int> xu) {
  if (count < 0) {
    throw std::invalid_argument("advance_repeated: count < 0");
  }
  if (xl.size() < static_cast<std::size_t>(count) ||
      xu.size() < static_cast<std::size_t>(count)) {
    throw std::invalid_argument("advance_repeated: bound spans too short");
  }
}

}  // namespace

void WorkFunctionTracker::advance_repeated(const rs::core::CostFunction& f,
                                           int count, std::span<int> xl,
                                           std::span<int> xu) {
  check_repeat_args(count, xl, xu);
  if (count == 0) return;
  // One conversion (or row evaluation) for the whole run — the RLE
  // replay's analog of the PwlProblem one-conversion-per-slot contract.
  std::optional<ConvexPwl> converted;
  advance_core(resolve(f, converted), count, xl, xu);
}

void WorkFunctionTracker::advance_repeated(const rs::core::ConvexPwl& f,
                                           int count, std::span<int> xl,
                                           std::span<int> xu) {
  check_repeat_args(count, xl, xu);
  if (count == 0) return;
  advance_core(resolve(f), count, xl, xu);
}

void WorkFunctionTracker::advance_repeated(std::span<const double> values,
                                           int count, std::span<int> xl,
                                           std::span<int> xu) {
  check_repeat_args(count, xl, xu);
  if (count == 0) return;
  advance_core(resolve(values), count, xl, xu);
}

void WorkFunctionTracker::advance_repeated_pwl(const ConvexPwl& f, int count,
                                               std::span<int> xl,
                                               std::span<int> xu) {
  ConvexPwl previous;
  for (int done = 0; done < count; ++done) {
    // Snapshot the shape (an O(K) array copy, allocation-free once
    // `previous` has capacity) only while a jump can still pay.
    const bool may_jump = done + 1 < count;
    double value_before = 0.0;
    if (may_jump) {
      previous = pwl_l_;
      value_before = pwl_l_.is_infinite() ? 0.0 : pwl_l_.value_at(pwl_l_.lo());
    }
    advance_pwl(f);
    xl[static_cast<std::size_t>(done)] = x_lower_;
    xu[static_cast<std::size_t>(done)] = x_upper_;
    if (!may_jump || !pwl_l_.same_shape(previous)) continue;
    // Shape fixpoint: every mutating ConvexPwl operation drives its control
    // flow from the shape alone (see same_shape), so all remaining advances
    // of this run reproduce this exact shape.  Values grow by a
    // shape-determined per-step increment; fast-forward them in one shift —
    // provided the tie rule, whose tolerance follows the growing minimum,
    // keeps these exact bounds for every skipped slot.
    const int remaining = count - done - 1;
    const double shift =
        pwl_l_.is_infinite()
            ? 0.0
            : static_cast<double>(remaining) *
                  (pwl_l_.value_at(pwl_l_.lo()) - value_before);
    if (!corridor_survives_shift(shift)) continue;
    pwl_l_.shift_value(shift);
    for (int i = done + 1; i < count; ++i) {
      xl[static_cast<std::size_t>(i)] = x_lower_;
      xu[static_cast<std::size_t>(i)] = x_upper_;
    }
    tau_ += remaining;
    RS_AUDIT(audit_invariants("WorkFunctionTracker::advance_repeated_pwl"));
    return;
  }
}

bool WorkFunctionTracker::corridor_survives_shift(double delta) const {
  if (pwl_l_.is_infinite()) return true;
  // A skipped slot's tolerance is kConvexPwlMergeEps·max(1, |min|) with its
  // minimum between today's and today's + delta, and its label differs from
  // today's by that uniform shift plus rounding far below the tolerance.
  // The near-minimizer set only grows with the tolerance, so when a band
  // twice as wide on both sides leaves an end in place, every skipped slot
  // sees it there too.
  for (const bool upper_end : {false, true}) {
    const double tilt = upper_end ? -beta_ : 0.0;
    const double min_now = pwl_l_.argmin(tilt).value;
    const double now = std::max(1.0, std::fabs(min_now));
    const double later = std::max(1.0, std::fabs(min_now + delta));
    const ConvexPwl::ArgminInterval narrow = pwl_l_.near_argmin(
        tilt, rs::core::kConvexPwlMergeEps * std::min(now, later) / now / 2.0);
    const ConvexPwl::ArgminInterval wide = pwl_l_.near_argmin(
        tilt, rs::core::kConvexPwlMergeEps * std::max(now, later) / now * 2.0);
    if (upper_end ? narrow.hi != wide.hi : narrow.lo != wide.lo) return false;
  }
  return true;
}

rs::core::Corridor WorkFunctionTracker::corridor() const {
  if (mode_ == Mode::kPwl) {
    return rs::core::tie_corridor(pwl_l_, pwl_l_, beta_, m_);
  }
  return rs::core::tie_corridor(chat_l_.span(), chat_l_.span(), beta_);
}

void WorkFunctionTracker::refresh_corridor() {
  const rs::core::Corridor c = corridor();
  x_lower_ = c.lower;
  x_upper_ = c.upper;
}

void WorkFunctionTracker::advance_pwl(const ConvexPwl& f) {
  mode_ = Mode::kPwl;
  // The PWL mirror of the dense passes: the relax clips the slope sequence
  // into [0, β] and extends the domain to [0, m] (flat where power-down is
  // free, slope β where power-up is charged), then the f_τ addition merges
  // breakpoint sets and intersects domains.
  pwl_l_.relax_charge_up(beta_, 0, m_);
  pwl_l_.add(f);
  refresh_corridor();
  ++tau_;
  RS_AUDIT(audit_invariants("WorkFunctionTracker::advance_pwl"));
}

void WorkFunctionTracker::advance_dense(std::span<const double> values) {
  const DenseStepMinima minima =
      dense_step<DenseStep::kMinima>(chat_l_.span(), values, beta_);
  const std::span<const double> row = chat_l_.span();
  const rs::core::Corridor c =
      rs::core::tie_corridor(row, row, beta_, minima.lower, minima.upper);
  x_lower_ = c.lower;
  x_upper_ = c.upper;
  ++tau_;
  RS_AUDIT(audit_invariants("WorkFunctionTracker::advance_dense"));
}

namespace {

// PWL form wire layout: u8 infinite-flag, then (finite only) i32 lo, i32 hi,
// f64 v_lo, f64 slope0, u32 increment count, count × (i32 pos, f64 dv).
void write_pwl(rs::core::CheckpointWriter& w, const ConvexPwl& f) {
  w.u8(f.is_infinite() ? 1 : 0);
  if (f.is_infinite()) return;
  w.i32(f.lo());
  w.i32(f.hi());
  w.f64(f.value_lo());
  w.f64(f.first_slope());
  const ConvexPwl::Increments& increments = f.slope_increments();
  w.u32(static_cast<std::uint32_t>(increments.size()));
  for (const auto& [pos, dv] : increments) {
    w.i32(pos);
    w.f64(dv);
  }
}

ConvexPwl read_pwl(rs::core::CheckpointReader& r, int m) {
  const std::uint8_t infinite_flag = r.u8();
  if (infinite_flag > 1) {
    throw rs::core::CheckpointFormatError(
        "tracker checkpoint: invalid PWL infinite flag");
  }
  if (infinite_flag == 1) return ConvexPwl::infinite();
  const std::int32_t lo = r.i32();
  const std::int32_t hi = r.i32();
  const double v_lo = r.f64();
  const double slope0 = r.f64();
  const std::uint32_t count = r.u32();
  // Each increment occupies 12 payload bytes; an inflated count must be a
  // format error before it becomes an allocation.
  if (count > r.remaining() / 12) {
    throw rs::core::CheckpointFormatError(
        "tracker checkpoint: PWL increment count exceeds payload");
  }
  if (lo < 0 || hi > m) {
    throw rs::core::CheckpointFormatError(
        "tracker checkpoint: PWL domain outside [0, m]");
  }
  ConvexPwl::Increments increments(count);
  for (auto& [pos, dv] : increments) {
    pos = r.i32();
    dv = r.f64();
  }
  // snapshot() writes ascending positions, but any order decodes; a
  // repeated position survives the sort and from_parts rejects it.
  std::sort(increments.begin(), increments.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  try {
    return ConvexPwl::from_parts(lo, hi, v_lo, slope0, std::move(increments));
  } catch (const std::invalid_argument& e) {
    throw rs::core::CheckpointFormatError(
        std::string("tracker checkpoint: invalid PWL form: ") + e.what());
  }
}

// Dense label row wire layout: m+1 × f64.  `out` may be empty to validate
// and drop a row (the legacy layout's Ĉ^U).
void read_row(rs::core::CheckpointReader& r, int m, std::span<double> out) {
  for (int x = 0; x <= m; ++x) {
    const double v = r.f64();
    if (std::isnan(v)) {
      throw rs::core::CheckpointFormatError(
          "tracker checkpoint: NaN dense label");
    }
    if (!out.empty()) out[static_cast<std::size_t>(x)] = v;
  }
}

}  // namespace

std::vector<std::uint8_t> WorkFunctionTracker::snapshot() const {
  rs::core::CheckpointWriter w;
  w.i32(m_);
  w.f64(beta_);
  w.u8(static_cast<std::uint8_t>(backend_));
  w.u8(static_cast<std::uint8_t>(mode_));
  w.i64(tau_);
  if (mode_ == Mode::kPwl) {
    write_pwl(w, pwl_l_);
  } else if (mode_ == Mode::kDense) {
    for (int x = 0; x <= m_; ++x) w.f64(chat_l_[static_cast<std::size_t>(x)]);
  }
  return w.seal(rs::core::kTrackerCheckpointKind);
}

WorkFunctionTracker WorkFunctionTracker::restore(
    std::span<const std::uint8_t> bytes) {
  using rs::core::CheckpointFormatError;
  // The legacy layout (written while Ĉ^U was still maintained) adds the
  // stored corridor after τ and Ĉ^U after Ĉ^L.  Both are dropped: the
  // corridor is recomputed from Ĉ^L under the tie rule below.
  const bool legacy = rs::core::checkpoint_kind(bytes) ==
                      rs::core::kLegacyTrackerCheckpointKind;
  rs::core::CheckpointReader r(bytes,
                               legacy ? rs::core::kLegacyTrackerCheckpointKind
                                      : rs::core::kTrackerCheckpointKind);
  const std::int32_t m = r.i32();
  const double beta = r.f64();
  const std::uint8_t backend_tag = r.u8();
  const std::uint8_t mode_tag = r.u8();
  const std::int64_t tau = r.i64();
  if (legacy) (void)r.u64();  // the stored corridor (x^L, x^U)

  if (m < 0) throw CheckpointFormatError("tracker checkpoint: m < 0");
  if (!std::isfinite(beta) || !(beta > 0.0)) {
    throw CheckpointFormatError("tracker checkpoint: invalid beta");
  }
  if (backend_tag > static_cast<std::uint8_t>(Backend::kPwl)) {
    throw CheckpointFormatError("tracker checkpoint: invalid backend tag");
  }
  if (mode_tag > static_cast<std::uint8_t>(Mode::kDense)) {
    throw CheckpointFormatError("tracker checkpoint: invalid mode tag");
  }
  if (tau < 0 || tau > std::numeric_limits<std::int32_t>::max()) {
    throw CheckpointFormatError("tracker checkpoint: invalid tau");
  }
  const Backend backend = static_cast<Backend>(backend_tag);
  const Mode mode = static_cast<Mode>(mode_tag);
  if (mode == Mode::kPwl && backend == Backend::kDense) {
    throw CheckpointFormatError(
        "tracker checkpoint: PWL mode on a forced-dense backend");
  }
  if (mode == Mode::kDense && backend == Backend::kPwl) {
    throw CheckpointFormatError(
        "tracker checkpoint: dense mode on a forced-PWL backend");
  }
  if (mode == Mode::kUndecided && tau != 0) {
    throw CheckpointFormatError(
        "tracker checkpoint: advanced tracker with undecided backend");
  }
  if (mode == Mode::kPwl && tau == 0) {
    throw CheckpointFormatError("tracker checkpoint: PWL mode with tau = 0");
  }

  WorkFunctionTracker t(m, beta, backend);
  if (mode == Mode::kPwl) {
    t.pwl_l_ = read_pwl(r, m);
    if (legacy) (void)read_pwl(r, m);
    t.mode_ = Mode::kPwl;
  } else if (mode == Mode::kDense) {
    // Borrow the workspace row exactly as a live fallback would, then
    // overwrite the label with the snapshotted bit patterns.
    t.init_dense();
    read_row(r, m, t.chat_l_.span());
    if (legacy) read_row(r, m, {});
  }
  r.finish();
  t.tau_ = static_cast<int>(tau);
  if (t.tau_ > 0) t.refresh_corridor();
  RS_AUDIT(t.audit_invariants("WorkFunctionTracker::restore"));
  return t;
}

void WorkFunctionTracker::require_started() const {
  if (tau_ == 0) {
    throw std::logic_error("WorkFunctionTracker: no function fed yet");
  }
}

int WorkFunctionTracker::breakpoint_count() const noexcept {
  return mode_ == Mode::kPwl ? pwl_l_.breakpoints() : 0;
}

double WorkFunctionTracker::chat_lower(int x) const {
  require_started();
  if (x < 0 || x > m_) throw std::out_of_range("chat_lower: x out of range");
  if (mode_ == Mode::kPwl) return pwl_l_.value_at(x);
  return chat_l_[static_cast<std::size_t>(x)];
}

double WorkFunctionTracker::chat_upper(int x) const {
  return chat_lower(x) - beta_ * x;  // Lemma 7
}

double WorkFunctionTracker::chat_min() const {
  require_started();
  if (mode_ == Mode::kPwl) {
    return pwl_l_.is_infinite() ? kInf : pwl_l_.argmin().value;
  }
  return *std::min_element(chat_l_.begin(), chat_l_.end());
}

const std::vector<double>& WorkFunctionTracker::chat_lower_vector() {
  require_started();
  ensure_dense_backend();
  return chat_l_.vec();
}

const ConvexPwl& WorkFunctionTracker::chat_lower_pwl() const {
  require_started();
  if (mode_ != Mode::kPwl) {
    throw std::logic_error("chat_lower_pwl: PWL backend is not live");
  }
  return pwl_l_;
}

int WorkFunctionTracker::x_lower() const {
  require_started();
  return x_lower_;
}

int WorkFunctionTracker::x_upper() const {
  require_started();
  return x_upper_;
}

// ---------------------------------------------------------------------------
// Incremental repair (rewind buffer) — DESIGN.md §12
// ---------------------------------------------------------------------------

WorkFunctionTracker::TrackerState WorkFunctionTracker::capture_state() const {
  TrackerState s;
  s.mode = mode_;
  s.tau = tau_;
  s.x_lower = x_lower_;
  s.x_upper = x_upper_;
  if (mode_ == Mode::kDense) {
    s.chat_l.assign(chat_l_.begin(), chat_l_.end());
  } else {
    s.pwl_l = pwl_l_;
  }
  return s;
}

void WorkFunctionTracker::restore_state(const TrackerState& s) {
  mode_ = s.mode;
  tau_ = s.tau;
  x_lower_ = s.x_lower;
  x_upper_ = s.x_upper;
  if (s.mode == Mode::kDense) {
    const std::size_t width = static_cast<std::size_t>(m_) + 1;
    if (chat_l_.size() != width) {
      chat_l_ = rs::util::this_thread_workspace().borrow<double>(width);
    }
    std::copy(s.chat_l.begin(), s.chat_l.end(), chat_l_.begin());
    pwl_l_ = ConvexPwl::infinite();
  } else {
    pwl_l_ = s.pwl_l;
  }
}

bool WorkFunctionTracker::live_equals(const TrackerState& s) const {
  if (mode_ != s.mode || tau_ != s.tau || x_lower_ != s.x_lower ||
      x_upper_ != s.x_upper) {
    return false;
  }
  // Dense rows compare by bit pattern (stricter than ==: distinguishes
  // ±0.0); labels are NaN-free by the advance contract.
  if (mode_ == Mode::kDense) {
    return chat_l_.size() == s.chat_l.size() &&
           std::memcmp(chat_l_.data(), s.chat_l.data(),
                       s.chat_l.size() * sizeof(double)) == 0;
  }
  return pwl_l_.bitwise_equal(s.pwl_l);
}

void WorkFunctionTracker::enable_rewind(int capacity) {
  if (capacity < 1) {
    throw std::invalid_argument(
        "WorkFunctionTracker::enable_rewind: capacity must be >= 1");
  }
  rewind_enabled_ = true;
  rewind_capacity_ = static_cast<std::size_t>(capacity);
  rewind_reset_base();
}

void WorkFunctionTracker::disable_rewind() {
  rewind_enabled_ = false;
  rewind_capacity_ = 0;
  rewind_entries_.clear();
  rewind_base_ = TrackerState{};
  rewind_base_tau_ = tau_;
}

void WorkFunctionTracker::rewind_reset_base() {
  rewind_entries_.clear();
  rewind_base_ = capture_state();
  rewind_base_tau_ = tau_;
}

void WorkFunctionTracker::rewind_record(StoredInput input, int count) {
  RewindEntry entry;
  entry.start = tau_ - count + 1;
  entry.count = count;
  entry.input = std::move(input);
  entry.post = capture_state();
  rewind_entries_.push_back(std::move(entry));
  rewind_trim();
}

void WorkFunctionTracker::rewind_trim() {
  while (rewind_entries_.size() > rewind_capacity_) {
    RewindEntry& front = rewind_entries_.front();
    rewind_base_tau_ = front.start + front.count - 1;
    rewind_base_ = std::move(front.post);
    rewind_entries_.pop_front();
  }
}

void WorkFunctionTracker::replay_input(const StoredInput& input, int count,
                                       std::vector<int>& lo,
                                       std::vector<int>& up) {
  const std::size_t at = lo.size();
  lo.resize(at + static_cast<std::size_t>(count));
  up.resize(at + static_cast<std::size_t>(count));
  advance_core(input.is_row ? resolve(std::span<const double>(input.row))
                            : resolve(input.form),
               count, std::span<int>(lo).subspan(at),
               std::span<int>(up).subspan(at));
}

WorkFunctionTracker::Replay WorkFunctionTracker::replay_edit(
    int slot, const rs::core::CostFunction& f, bool rebuild) const {
  if (!rewind_enabled_) {
    throw std::logic_error(
        "WorkFunctionTracker::repair_from: rewind buffer not enabled");
  }
  if (!rewind_covers(slot)) {
    throw std::out_of_range(
        "WorkFunctionTracker::repair_from: slot outside the rewind window");
  }
  auto it = std::upper_bound(
      rewind_entries_.begin(), rewind_entries_.end(), slot,
      [](int s, const RewindEntry& e) { return s < e.start; });
  Replay out;
  out.first = static_cast<std::size_t>(
      std::distance(rewind_entries_.begin(), std::prev(it)));
  const RewindEntry& edited_entry = rewind_entries_[out.first];
  const int prefix = slot - edited_entry.start;
  const int suffix = edited_entry.count - prefix - 1;
  Repair& repair = out.repair;
  repair.first_slot = slot;

  // The replay runs on its own tracker (rewind off, so nothing re-records)
  // seeded from the stored state before the edited entry.
  WorkFunctionTracker local(m_, beta_, backend_);
  local.restore_state(out.first == 0 ? rewind_base_
                                     : rewind_entries_[out.first - 1].post);
  std::vector<int> prefix_lower;  // a split run's unchanged prefix
  std::vector<int> prefix_upper;
  const auto replay = [&](const StoredInput& input, int start, int count,
                          bool collect) {
    local.replay_input(input, count, collect ? repair.lower : prefix_lower,
                       collect ? repair.upper : prefix_upper);
    repair.slots_replayed += count;
    if (rebuild) {
      out.rebuilt.push_back({start, count, input, local.capture_state()});
    }
  };
  // The containing run replays in up to three portions: the unchanged
  // prefix, the edited slot, the unchanged run suffix.  Splitting an RLE
  // run defines the reference semantics advance_repeated(f, prefix) ·
  // advance(f') · advance_repeated(f, suffix) — a legitimate from-scratch
  // sequence (bounds bit-identical to slot-by-slot on both backends).
  if (prefix > 0) replay(edited_entry.input, edited_entry.start, prefix, false);
  // The edit resolves exactly as an advance would, given the mode reached
  // by the replayed prefix — which is the mode a from-scratch run of the
  // edited instance has at this slot.
  std::optional<ConvexPwl> converted;
  const StoredInput edited = stored(local.resolve(f, converted));
  if (edited.is_row != edited_entry.input.is_row) {
    // The edit would flip the backend trajectory at this slot (a PWL-mode
    // slot edited to a non-convertible cost, or the dense-fallback slot
    // edited to a convertible one).  The stored suffix was recorded under
    // the other mode, so a bit-faithful repair is impossible — callers
    // re-solve from scratch instead.
    throw std::invalid_argument(
        "WorkFunctionTracker::repair_from: edit changes the backend "
        "trajectory; re-solve from scratch");
  }
  replay(edited, slot, 1, true);
  if (suffix > 0) replay(edited_entry.input, slot + 1, suffix, true);
  out.stop = out.first + 1;
  bool reconverged = local.live_equals(edited_entry.post);
  // Re-relax through the stored suffix until the recomputed state equals a
  // stored post-state bitwise: replay from identical bits is deterministic,
  // so the rest of the suffix — including the final labels — is then
  // already correct and need not be touched.
  while (!reconverged && out.stop < rewind_entries_.size()) {
    const RewindEntry& next = rewind_entries_[out.stop++];
    replay(next.input, next.start, next.count, true);
    reconverged = local.live_equals(next.post);
  }
  repair.early_exit = reconverged && out.stop < rewind_entries_.size();
  const WorkFunctionTracker& newest = reconverged ? *this : local;
  repair.x_lower = newest.x_lower_;
  repair.x_upper = newest.x_upper_;
  repair.chat_min = newest.chat_min();
  return out;
}

WorkFunctionTracker::Repair WorkFunctionTracker::repair_from(
    int slot, const rs::core::CostFunction& f) {
  Replay replay = replay_edit(slot, f, /*rebuild=*/true);
  // Without an early exit the replay ran through the newest entry, whose
  // rebuilt post-state is the new live state.
  if (!replay.repair.early_exit) restore_state(replay.rebuilt.back().post);
  const auto first =
      rewind_entries_.begin() + static_cast<std::ptrdiff_t>(replay.first);
  const auto last =
      rewind_entries_.begin() + static_cast<std::ptrdiff_t>(replay.stop);
  rewind_entries_.insert(rewind_entries_.erase(first, last),
                         std::make_move_iterator(replay.rebuilt.begin()),
                         std::make_move_iterator(replay.rebuilt.end()));
  rewind_trim();
  RS_AUDIT(audit_invariants("WorkFunctionTracker::repair_from"));
  return std::move(replay.repair);
}

WorkFunctionTracker::Repair WorkFunctionTracker::probe_from(
    int slot, const rs::core::CostFunction& f) const {
  return replay_edit(slot, f, /*rebuild=*/false).repair;
}

WorkFunctionTracker WorkFunctionTracker::clone() const {
  WorkFunctionTracker t(m_, beta_, backend_);
  t.restore_state(capture_state());
  t.rewind_enabled_ = rewind_enabled_;
  t.rewind_capacity_ = rewind_capacity_;
  t.rewind_base_tau_ = rewind_base_tau_;
  t.rewind_base_ = rewind_base_;
  t.rewind_entries_ = rewind_entries_;
  return t;
}

void WorkFunctionTracker::audit_invariants(const char* site) const {
  namespace audit = rs::util::audit;
  if (tau_ == 0) return;  // nothing advanced yet: no corridor to check
  if (mode_ == Mode::kUndecided) return;

  // Corridor invariants (Lemma 6): ordered, in range.
  audit::require(x_lower_ >= 0 && x_upper_ <= m_, "corridor-in-range", site);
  audit::require(x_lower_ <= x_upper_, "corridor-ordered", site);

  // A label is an extended real in [0, +inf]: NaN-free, and non-negative up
  // to FP association noise (the relax re-anchoring subtracts tangents).
  const auto check_label = [&](double v) {
    audit::require(!std::isnan(v), "labels-nan-free", site);
    audit::require(v >= -1e-6 * std::max(1.0, std::fabs(v)),
                   "labels-nonnegative", site);
  };
  double min_label = kInf;
  if (mode_ == Mode::kPwl) {
    rs::core::audit_convex_pwl(pwl_l_, site);
    if (!pwl_l_.is_infinite()) min_label = pwl_l_.argmin().value;
    check_label(min_label);
  } else {
    audit::require(chat_l_.size() == static_cast<std::size_t>(m_) + 1,
                   "labels-shape", site);
    for (const double v : chat_l_) {
      check_label(v);
      min_label = std::min(min_label, v);
    }
  }

  // The stored corridor is the tie rule applied to the live label.
  const rs::core::Corridor c = corridor();
  audit::require_with(
      c.lower == x_lower_ && c.upper == x_upper_, "corridor-argmin", site,
      [&] {
        return "rescan (" + std::to_string(c.lower) + ", " +
               std::to_string(c.upper) + ") vs tracked (" +
               std::to_string(x_lower_) + ", " + std::to_string(x_upper_) +
               ")";
      });
  // min Ĉ^L monotone non-decreasing under relax+add (costs are >= 0, so
  // work functions only grow).  The watermark reseeds whenever τ did not
  // grow since the last audit — a repair replaced the labels in place.
  if (tau_ > audit_last_tau_ && audit_last_tau_ > 0) {
    // An infinite watermark (infeasible instance) admits no slack: the
    // relative term would be inf - inf = NaN and poison the comparison.
    const double slack =
        std::isinf(audit_min_watermark_)
            ? 0.0
            : 1e-6 * std::max(1.0, std::fabs(audit_min_watermark_));
    audit::require(min_label >= audit_min_watermark_ - slack,
                   "workfn-min-monotone", site);
  }
  audit_last_tau_ = tau_;
  audit_min_watermark_ = min_label;
}

WorkFunctionTracker track_slots(const rs::core::SlotSource& source,
                                WorkFunctionTracker::Backend backend,
                                BoundTrajectory* bounds, int rewind_capacity) {
  if (source.dense() != nullptr) backend = WorkFunctionTracker::Backend::kDense;
  if (source.pwl() != nullptr) backend = WorkFunctionTracker::Backend::kPwl;
  WorkFunctionTracker tracker(source.max_servers(), source.beta(), backend);
  if (rewind_capacity > 0) tracker.enable_rewind(rewind_capacity);
  const std::size_t horizon = static_cast<std::size_t>(source.horizon());
  if (bounds != nullptr) {
    bounds->lower.assign(horizon, 0);
    bounds->upper.assign(horizon, 0);
  }
  std::vector<int> scratch;  // one run's bounds when the caller keeps none
  std::size_t offset = 0;
  bool turned_dense = false;
  source.for_each_run([&](const auto& slot, int length) {
    if (turned_dense) return;
    const std::size_t n = static_cast<std::size_t>(length);
    if (bounds == nullptr && scratch.size() < 2 * n) scratch.resize(2 * n);
    const std::span<int> lower =
        bounds != nullptr ? std::span<int>(bounds->lower).subspan(offset, n)
                          : std::span<int>(scratch).first(n);
    const std::span<int> upper =
        bounds != nullptr ? std::span<int>(bounds->upper).subspan(offset, n)
                          : std::span<int>(scratch).subspan(n, n);
    const bool was_pwl = tracker.using_pwl();
    tracker.advance_repeated(slot, length, lower, upper);
    turned_dense = was_pwl && !tracker.using_pwl();
    offset += n;
  });
  // kAuto is resolved per instance: a tracker that turned dense past slot 1
  // is dropped and the instance reruns on dense labels (rows, no
  // conversions), so they do not depend on where the opaque slot sits.
  if (turned_dense) {
    return track_slots(source, WorkFunctionTracker::Backend::kDense, bounds,
                       rewind_capacity);
  }
  return tracker;
}

BoundTrajectory compute_bounds(const rs::core::SlotSource& source,
                               WorkFunctionTracker::Backend backend) {
  BoundTrajectory bounds;
  track_slots(source, backend, &bounds);
  return bounds;
}

}  // namespace rs::offline
