// offline_batch: the planner's path.
//
// One closed-loop client submits the same SolverEngine batch again and
// again: {kDpCost, kDpSchedule, kLcp, kLowMemory} on 64 restricted-model
// data-center instances (paper eq. 2) built from Hotmail- and MSR-like
// traces.  Their M/M/1 load costs are std::functions with no convex-PWL
// form, so every batch pays the engine probe, dense materialization, row
// evaluation, the dense DP and the dense tracker.
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/dense_problem.hpp"
#include "core/pwl_problem.hpp"
#include "core/schedule.hpp"
#include "dcsim/cost_model.hpp"
#include "engine/solver_engine.hpp"
#include "offline/dp_solver.hpp"
#include "offline/low_memory_solver.hpp"
#include "offline/work_function.hpp"
#include "online/lcp.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace perfbench {
namespace {

using rs::engine::SolveJob;
using rs::engine::SolveOutcome;
using rs::engine::SolverKind;
using rs::util::Stopwatch;

constexpr int kInstances = 64;
constexpr int kDays = 2;
constexpr int kSlotsPerDay = 96;
constexpr std::size_t kEngineThreads = 3;
constexpr int kSetupRepeats = 7;
// End-to-end values come from the best of the run's segments of this
// length (see best_segment); one segment holds 60 to 90 batches.
constexpr double kSegmentSeconds = 5.0;
constexpr SolverKind kKinds[] = {SolverKind::kDpCost, SolverKind::kDpSchedule,
                                 SolverKind::kLcp, SolverKind::kLowMemory};

struct BatchState {
  std::vector<rs::workload::Trace> traces;
  std::vector<rs::core::Problem> problems;
  std::vector<SolveJob> jobs;
  std::unique_ptr<rs::engine::SolverEngine> engine;
};

std::unique_ptr<BatchState> build_state(std::uint64_t seed) {
  auto state = std::make_unique<BatchState>();
  for (int i = 0; i < kInstances; ++i) {
    rs::dcsim::DataCenterModel model;
    model.servers = 32 * (1 + i % 8);  // 32 .. 256
    rs::util::Rng rng(mix_seed(seed, static_cast<std::uint64_t>(i)));
    const rs::workload::Trace raw =
        i % 2 == 0 ? rs::workload::hotmail_like(rng, kDays, kSlotsPerDay)
                   : rs::workload::msr_like(rng, kDays, kSlotsPerDay);
    state->traces.push_back(rs::workload::rescale_peak(
        raw, 0.8 * model.utilization_cap * model.servers));
    state->problems.push_back(
        rs::dcsim::restricted_datacenter_problem(model, state->traces.back()));
  }
  for (const rs::core::Problem& problem : state->problems) {
    for (SolverKind kind : kKinds) {
      SolveJob job;
      job.problem = &problem;
      job.kind = kind;
      state->jobs.push_back(job);
    }
  }
  rs::engine::SolverEngine::Options options;
  options.threads = kEngineThreads;
  state->engine = std::make_unique<rs::engine::SolverEngine>(options);
  return state;
}

// What one job must return: the solo call the engine promises to match.
SolveOutcome solo(const rs::core::Problem& problem, SolverKind kind,
                  const rs::core::PwlProblem* pwl,
                  const rs::core::DenseProblem* dense) {
  SolveOutcome out;
  switch (kind) {
    case SolverKind::kDpCost:
      out.cost = pwl ? rs::offline::DpSolver().solve_cost(*pwl)
                     : rs::offline::DpSolver().solve_cost(*dense);
      break;
    case SolverKind::kDpSchedule: {
      rs::offline::OfflineResult r = pwl ? rs::offline::DpSolver().solve(*pwl)
                                         : rs::offline::DpSolver().solve(*dense);
      out.cost = r.cost;
      out.schedule = std::move(r.schedule);
      break;
    }
    case SolverKind::kLcp:
      if (pwl) {
        out.schedule = rs::online::run_lcp_pwl(*pwl);
        out.cost = rs::core::total_cost(problem, out.schedule);
      } else {
        out.schedule = rs::online::run_lcp_dense(*dense);
        out.cost = rs::core::total_cost(*dense, out.schedule);
      }
      break;
    case SolverKind::kLowMemory: {
      rs::offline::OfflineResult r =
          pwl ? rs::offline::LowMemorySolver().solve(*pwl)
              : rs::offline::LowMemorySolver().solve(problem);
      out.cost = r.cost;
      out.schedule = std::move(r.schedule);
      break;
    }
    case SolverKind::kDeltaResolve:
      break;
  }
  return out;
}

struct Segment {
  Samples batch_ms;
  double busy_seconds = 0.0;
  std::uint64_t jobs = 0;

  double jobs_per_s() const {
    return busy_seconds > 0.0 ? static_cast<double>(jobs) / busy_seconds : 0.0;
  }
};

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

}  // namespace

RunResult run_offline_batch(const RunOptions& options) {
  RunResult result;
  Tracer tracer;
  Tracer* const spans = options.trace ? &tracer : nullptr;
  double setup_s = 0.0;
  const std::unique_ptr<BatchState> state = build_repeatedly(
      kSetupRepeats,
      [&]() {
        std::unique_ptr<BatchState> built = build_state(options.seed);
        built->engine->run(built->jobs);  // warm-up: pool threads, arenas
        return built;
      },
      setup_s);

  Digest digest;
  for (std::size_t i = 0; i < state->traces.size(); ++i) {
    digest.add(static_cast<std::int64_t>(state->problems[i].max_servers()));
    for (double lambda : state->traces[i].lambda) digest.add(lambda);
  }
  result.input_digest = digest.hex();

  // Reference outcomes from solo calls, mirroring the engine's backend
  // choice (PWL when the instance converts, else a dense table).
  std::vector<SolveOutcome> expected;
  for (const rs::core::Problem& problem : state->problems) {
    const std::optional<rs::core::PwlProblem> pwl =
        rs::core::PwlProblem::try_convert(problem);
    std::optional<rs::core::DenseProblem> dense;
    if (!pwl) {
      dense.emplace(problem, rs::core::DenseProblem::Mode::kEager,
                    rs::core::DenseProblem::MinimizerCache::kOnDemand);
    }
    for (SolverKind kind : kKinds) {
      expected.push_back(solo(problem, kind, pwl ? &*pwl : nullptr,
                              dense ? &*dense : nullptr));
    }
  }

  std::uint64_t mismatches = 0;
  rs::engine::BatchStats last_stats;
  // Closed loop: the next batch is submitted when the previous returns.
  auto run_window = [&](double seconds, bool traced) {
    tracer.set_on(traced);
    std::vector<Segment> segments(1);
    const Stopwatch watch;
    Stopwatch segment;
    do {
      const Stopwatch batch_watch;
      rs::engine::BatchResult batch;
      {
        const Span span(spans, "batch");
        batch = state->engine->run(state->jobs);
      }
      const double batch_seconds = batch_watch.seconds();
      segments.back().batch_ms.add(batch_seconds * 1e3);
      segments.back().busy_seconds += batch_seconds;
      segments.back().jobs += batch.outcomes.size();
      result.attempted += batch.outcomes.size();
      result.failed += batch.stats.failed_jobs;
      for (std::size_t j = 0; j < batch.outcomes.size(); ++j) {
        const SolveOutcome& got = batch.outcomes[j];
        if (!got.ok() || !same_bits(got.cost, expected[j].cost) ||
            got.schedule != expected[j].schedule) {
          ++mismatches;
        }
      }
      last_stats = batch.stats;
      if (segment.seconds() >= kSegmentSeconds) {
        segments.emplace_back();
        segment.reset();
      }
    } while (watch.seconds() < seconds);
    tracer.set_on(false);
    if (segments.size() > 1) segments.pop_back();  // the unfinished one
    return segments;
  };
  auto all_batches = [](const std::vector<Segment>& segments) {
    Samples all;
    for (const Segment& s : segments) all.append(s.batch_ms);
    return all;
  };
  const std::vector<Segment> plain_segments =
      run_window(options.trace ? options.seconds / 2 : options.seconds, false);
  const Samples plain_ms = all_batches(plain_segments);
  const Samples traced_ms =
      options.trace ? all_batches(run_window(options.seconds / 2, true))
                    : Samples{};

  result.check(mismatches == 0,
               std::to_string(mismatches) +
                   " batch outcomes differ from solo solves");
  double lcp_sum = 0.0;
  double opt_sum = 0.0;
  for (std::size_t i = 0; i < state->problems.size(); ++i) {
    const double opt = expected[4 * i].cost;      // kDpCost
    const double lcp = expected[4 * i + 2].cost;  // kLcp
    const double slack = 1e-9 * opt;
    result.check(opt <= lcp + slack && lcp <= 3.0 * opt + slack,
                 "instance " + std::to_string(i) +
                     ": OPT <= LCP <= 3 OPT violated");
    lcp_sum += lcp;
    opt_sum += opt;
  }
  const double cost_ratio = opt_sum > 0.0 ? lcp_sum / opt_sum : 0.0;
  const double jobs_per_s = best_segment(
      plain_segments, [](const Segment& s) { return s.jobs_per_s(); }, false);
  const double batch_p50_ms = best_segment(
      plain_segments, [](const Segment& s) { return s.batch_ms.median(); },
      true);
  const double batch_p90_ms = best_segment(
      plain_segments,
      [](const Segment& s) { return s.batch_ms.percentile(90.0); }, true);
  const double rss = peak_rss_mb();

  MetricSet& e2e = result.end_to_end;
  e2e.set("setup_s", setup_s, "s");
  e2e.set("latency_p50_us", batch_p50_ms * 1e3, "us");
  e2e.set("latency_tail_us", batch_p90_ms * 1e3, "us");
  e2e.set("throughput_per_s", jobs_per_s, "1/s");
  e2e.set("peak_rss_mb", rss, "MiB");
  e2e.set("cost_ratio", cost_ratio, "ratio");

  MetricSet& named = result.named;
  named.set("setup_s", setup_s, "s");
  named.set("jobs_per_s", jobs_per_s, "1/s");
  named.set("batch_p50_ms", batch_p50_ms, "ms");
  named.set("batch_p90_ms", batch_p90_ms, "ms");
  named.set("failed_ratio",
            static_cast<double>(result.failed) /
                static_cast<double>(result.attempted),
            "ratio");
  named.set("peak_rss_mb", rss, "MiB");
  named.set("cost_ratio", cost_ratio, "ratio");
  named.set("batches", static_cast<double>(plain_ms.size()), "count");
  named.set("segments", static_cast<double>(plain_segments.size()), "count");

  MetricSet& counters = result.counters;
  counters.set("engine.dense_tables_built",
               static_cast<double>(last_stats.dense_tables_built), "count");
  counters.set("engine.pwl_backed", static_cast<double>(last_stats.pwl_backed),
               "count");
  counters.set("cost_ratio", cost_ratio, "ratio");

  if (!options.trace) return result;

  // Solo calls into each layer on the same instances.
  tracer.set_on(true);
  Samples probe_us;
  Samples build_ms;
  Samples dp_cost_ms;
  Samples dp_ms;
  Samples lcp_ms;
  Samples lowmem_ms;
  double advance_ns = 0.0;
  double advances = 0.0;
  double solo_seconds = 0.0;
  for (const rs::core::Problem& problem : state->problems) {
    const Stopwatch total;
    const Span solo_span(spans, "solo");
    {
      const Span span(spans, "pwl_probe");
      const Stopwatch watch;
      const std::optional<rs::core::PwlProblem> pwl =
          rs::core::PwlProblem::try_convert(problem);
      probe_us.add(watch.microseconds());
    }
    std::optional<rs::core::DenseProblem> dense;
    {
      const Span span(spans, "dense_build");
      const Stopwatch watch;
      dense.emplace(problem, rs::core::DenseProblem::Mode::kEager,
                    rs::core::DenseProblem::MinimizerCache::kOnDemand);
      build_ms.add(watch.milliseconds());
    }
    {
      const Span span(spans, "dp_cost");
      const Stopwatch watch;
      (void)rs::offline::DpSolver().solve_cost(*dense);
      dp_cost_ms.add(watch.milliseconds());
    }
    {
      const Span span(spans, "dp_schedule");
      const Stopwatch watch;
      (void)rs::offline::DpSolver().solve(*dense);
      dp_ms.add(watch.milliseconds());
    }
    {
      const Span span(spans, "lcp_replay");
      const Stopwatch watch;
      (void)rs::online::run_lcp_dense(*dense);
      lcp_ms.add(watch.milliseconds());
    }
    {
      const Span span(spans, "lowmem");
      const Stopwatch watch;
      (void)rs::offline::LowMemorySolver().solve(problem);
      lowmem_ms.add(watch.milliseconds());
    }
    solo_seconds += total.seconds();
    {
      const Span span(spans, "tracker_advance");
      rs::offline::WorkFunctionTracker tracker(
          problem.max_servers(), problem.beta(),
          rs::offline::WorkFunctionTracker::Backend::kDense);
      const Stopwatch watch;
      for (int t = 1; t <= dense->horizon(); ++t) tracker.advance(dense->row(t));
      advance_ns += watch.microseconds() * 1e3;
      advances += dense->horizon();
    }
  }
  tracer.set_on(false);

  MetricSet& layer = result.layer;
  layer.set("pwl_problem.probe_us.p50", probe_us.median(), "us");
  layer.set("dense_problem.build_ms.p50", build_ms.median(), "ms");
  layer.set("dp.solve_cost_ms", dp_cost_ms.median(), "ms");
  layer.set("dp.solve_ms", dp_ms.median(), "ms");
  layer.set("lcp.replay_ms", lcp_ms.median(), "ms");
  layer.set("lowmem.solve_ms", lowmem_ms.median(), "ms");
  layer.set("tracker.advance_dense_ns", advances > 0 ? advance_ns / advances : 0.0,
            "ns");
  layer.set("engine.parallel_efficiency",
            solo_seconds /
                (batch_p50_ms * 1e-3 *
                 static_cast<double>(state->engine->threads())),
            "ratio");
  layer.set("engine.dense_tables_built",
            static_cast<double>(last_stats.dense_tables_built), "count");
  layer.set("engine.pwl_backed", static_cast<double>(last_stats.pwl_backed),
            "count");
  layer.set("engine.workspace_growths",
            static_cast<double>(last_stats.workspace_growths), "count");
  layer.set("engine.failed_jobs", static_cast<double>(last_stats.failed_jobs),
            "count");
  layer.set("trace.overhead.latency_p50_us",
            (traced_ms.median() - plain_ms.median()) * 1e3, "us");
  layer.set("trace.overhead.latency_tail_us",
            (traced_ms.percentile(90.0) - plain_ms.percentile(90.0)) * 1e3,
            "us");
  layer.set("trace.spans", static_cast<double>(tracer.recorded()), "count");
  tracer.write_chrome_json(options.trace_path);
  return result;
}

}  // namespace perfbench
