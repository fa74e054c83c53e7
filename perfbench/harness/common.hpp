// Shared measurement plumbing for the benchmark harness: sample statistics,
// the in-memory span tracer (Chrome trace-event export), named metrics, an
// input digest, peak-RSS sampling, and the per-run result record.  Spans and
// samples are recorded from the harness's own calling thread, around calls
// into the library's public entry points.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/stopwatch.hpp"

namespace perfbench {

/// A bag of measurements with nearest-rank percentiles.
class Samples {
 public:
  void add(double value) {
    values_.push_back(value);
    sorted_ = false;
  }
  void append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
    sorted_ = false;
  }
  std::size_t size() const noexcept { return values_.size(); }
  /// Nearest-rank percentile for p in (0, 100]; 0 when empty.
  double percentile(double p) const;
  double median() const { return percentile(50.0); }

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = true;
};

/// In-memory span recorder.  Spans nest by call order (a span's parent is
/// the innermost span open when it began); every span under one top-level
/// span shares that span's index as its request id.  All spans are kept
/// until the run ends.
class Tracer {
 public:
  static constexpr std::uint32_t kNone = 0xffffffffu;

  bool on() const noexcept { return on_; }
  void set_on(bool on) noexcept { on_ = on; }

  std::uint32_t begin(const char* name);
  void end(std::uint32_t index);

  std::size_t recorded() const noexcept { return spans_.size(); }

  /// Writes {"traceEvents": [...]} with one complete ("ph": "X") event per
  /// span; throws std::runtime_error when the file cannot be written.
  void write_chrome_json(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    double start_us;
    double dur_us;
    std::uint32_t parent;
    std::uint32_t request;
  };

  rs::util::Stopwatch origin_;
  bool on_ = false;
  std::vector<Record> spans_;
  std::vector<std::uint32_t> open_;
};

/// RAII span: records only when the tracer is non-null and switched on.
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer != nullptr && tracer->on() ? tracer : nullptr),
        index_(tracer_ != nullptr ? tracer_->begin(name) : Tracer::kNone) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::uint32_t index_;
};

/// Ordered name -> (value, unit) map, serialized as the benchmark's
/// {"name": {"value": v, "unit": "u"}} metric object.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  std::string to_json() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

/// FNV-1a over the bit patterns of generated inputs.
class Digest {
 public:
  void add(double value);
  void add(std::int64_t value);
  std::string hex() const;

 private:
  void add_bytes(const void* data, std::size_t size);
  std::uint64_t hash_ = 1469598103934665603ull;
};

/// What one workload run produced.  `end_to_end` holds the gated metrics,
/// `named` the same measurements under their per-workload names, `layer`
/// the per-layer ledger (traced runs only), and `counters` the values that
/// must repeat exactly for a given seed.
struct RunResult {
  std::vector<std::string> failures;  // failed output checks
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string input_digest;
  MetricSet end_to_end;
  MetricSet named;
  MetricSet layer;
  MetricSet counters;

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_path;  // Chrome trace-event output of traced runs
};

/// Peak resident set size of this process so far (VmHWM), in MiB.
double peak_rss_mb();

std::string json_escape(const std::string& text);

/// Seed for item `salt` of a workload seeded with `seed`.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// The best value of `metric` over measurement segments: lowest when
/// `lower_is_better`, else highest.  Contention from other processes only
/// ever slows a segment, so the best segment is the steadiest estimate.
template <typename Segment, typename Metric>
double best_segment(const std::vector<Segment>& segments, Metric&& metric,
                    bool lower_is_better) {
  double best = metric(segments.front());
  for (const Segment& segment : segments) {
    const double value = metric(segment);
    if (lower_is_better ? value < best : value > best) best = value;
  }
  return best;
}

/// Builds a workload's state `repeats` times with `build` and returns the
/// last build; `median_seconds` receives the median build time.  Each
/// earlier state is destroyed before the next build starts its clock, so
/// teardown is not timed as set-up.
template <typename Build>
auto build_repeatedly(int repeats, Build&& build, double& median_seconds) {
  Samples seconds;
  decltype(build()) state;
  for (int i = 0; i < repeats; ++i) {
    state = nullptr;
    const rs::util::Stopwatch watch;
    state = build();
    seconds.add(watch.seconds());
  }
  median_seconds = seconds.median();
  return state;
}

RunResult run_fleet_stream(const RunOptions& options);
RunResult run_fleet_whatif(const RunOptions& options);
RunResult run_offline_batch(const RunOptions& options);

}  // namespace perfbench
