// fleet_stream and fleet_whatif: the operator's serving path.
//
// One closed-loop client drives a FleetController round by round: it offers
// one λ per tenant for the next slot, calls tick(), and (fleet_whatif) then
// issues a fixed number of seeded what_if probes before the next round.
// Tenants use the zoo's hinge-SLA cost through the documented default
// factory `cost_of = hinge_sla_cost(p, λ)`, so every offer builds a fresh
// CostPtr — the shape real producers have.
#include <algorithm>
#include <exception>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "core/checkpoint_store.hpp"
#include "core/cost_function.hpp"
#include "core/problem.hpp"
#include "core/schedule.hpp"
#include "fleet/fleet_controller.hpp"
#include "offline/dp_solver.hpp"
#include "online/lcp.hpp"
#include "scenario/trace_zoo.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using rs::fleet::FleetController;
using rs::fleet::TenantConfig;
using rs::fleet::TenantSession;
using rs::scenario::ScenarioKind;
using rs::util::Stopwatch;

// Each tenant's λ stream is two weeks at 96 slots/day, replayed cyclically
// when a run outlasts it.
constexpr int kHorizon = 1344;
constexpr int kWarmupRounds = 32;
// Counters and cost_ratio are read over this fixed prefix of rounds (one
// week), so they repeat exactly for a seed however long a run lasts.
constexpr std::size_t kPrefixRounds = 672;
// Slots per tenant of the traced run's standalone layer pass.
constexpr int kLayerSlots = 256;
constexpr int kSetupRepeats = 7;
constexpr int kCheckpointEvery = 16;
constexpr int kSizes[] = {48, 256, 1024, 4096};
constexpr ScenarioKind kKinds[] = {ScenarioKind::kDiurnalWeekly,
                                   ScenarioKind::kFlashCrowd,
                                   ScenarioKind::kCorrelatedMultiDc};
constexpr int kCheckThreads = 4;
constexpr std::size_t kSpanTenants = std::size(kSizes) * std::size(kKinds);

struct Shape {
  int tenants;
  std::size_t engine_threads;
  rs::fleet::Priority priority;
  int what_if_slots;     // 0: no rewind buffer, no probes
  int probes_per_round;
  // End-to-end values come from the best of the run's segments of this
  // length (see best_segment).  A segment holds about 1,000 of the requests
  // whose tail is reported, so its p99 has ten samples beyond it.
  double segment_seconds;
};

struct TenantInput {
  int m = 0;
  double peak = 0.0;
  std::vector<double> lambda;  // kHorizon samples
};

struct FleetState {
  std::vector<TenantInput> inputs;
  std::unique_ptr<FleetController> fleet;
  std::size_t rounds = 0;  // rounds issued since the fleet was built
  // Tick wall seconds of rounds [kLayerSlots, 2 kLayerSlots), the fleet
  // side of engine.parallel_efficiency.  By then the form cache is full, so
  // fleet steps convert their costs themselves, as standalone sessions do.
  std::vector<double> reference_tick_seconds;
};

// The documented default tenant cost family.
rs::core::CostPtr cost_of(double lambda) {
  static const rs::scenario::ZooParams params;
  return rs::scenario::hinge_sla_cost(params, lambda);
}

double tenant_beta() { return rs::scenario::ZooParams{}.beta; }

std::vector<TenantInput> make_inputs(const Shape& shape, std::uint64_t seed) {
  std::vector<TenantInput> inputs;
  for (int i = 0; i < shape.tenants; ++i) {
    const auto index = static_cast<std::size_t>(i);
    rs::scenario::ZooParams params;
    params.servers = kSizes[index % std::size(kSizes)];
    params.peak = 0.8 * params.servers;
    params.horizon = kHorizon;
    const rs::scenario::Scenario scenario = rs::scenario::make_scenario(
        kKinds[index % std::size(kKinds)], params, mix_seed(seed, index));
    inputs.push_back(
        TenantInput{params.servers, params.peak, scenario.trace.lambda});
  }
  return inputs;
}

TenantConfig make_config(const Shape& shape, const TenantInput& input,
                         int index) {
  TenantConfig config;
  config.name = "tenant-" + std::to_string(index);
  config.m = input.m;
  config.beta = tenant_beta();
  config.cost_of = cost_of;
  config.checkpoint_every = kCheckpointEvery;
  config.priority = shape.priority;
  config.what_if_slots = shape.what_if_slots;
  return config;
}

double lambda_at(const TenantInput& input, std::size_t slot_index) {
  return input.lambda[slot_index % input.lambda.size()];
}

struct Window {
  Samples round_us;
  Samples checkpoint_round_us;
  Samples other_round_us;
  Samples tick_us;
  Samples offer_us;  // filled only when offers are timed one by one
  Samples probe_us;
  double round_seconds = 0.0;
  double offer_seconds = 0.0;
  std::uint64_t tenant_steps = 0;

  double steps_per_s() const {
    return round_seconds > 0.0 ? static_cast<double>(tenant_steps) / round_seconds
                               : 0.0;
  }
};

Window merge(const std::vector<Window>& segments) {
  Window all;
  for (const Window& w : segments) {
    all.round_us.append(w.round_us);
    all.checkpoint_round_us.append(w.checkpoint_round_us);
    all.other_round_us.append(w.other_round_us);
    all.tick_us.append(w.tick_us);
    all.offer_us.append(w.offer_us);
    all.probe_us.append(w.probe_us);
    all.round_seconds += w.round_seconds;
    all.offer_seconds += w.offer_seconds;
    all.tenant_steps += w.tenant_steps;
  }
  return all;
}

struct ProbeCheck {
  std::size_t tenant = 0;
  std::uint64_t steps = 0;  // decided slots when the probe ran
  int slot = 0;
  double lambda = 0.0;
  rs::fleet::WhatIfResult answer;
};

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // fleet_whatif probes issued within the prefix rounds.
  std::uint64_t prefix_probes = 0;
  std::uint64_t prefix_slots_repaired = 0;
  std::uint64_t prefix_early_exits = 0;
  std::uint64_t probes = 0;
  std::vector<ProbeCheck> checks;
  // Fleet counters frozen when the prefix completes.
  std::uint64_t prefix_conversions = 0;
  std::uint64_t prefix_hits = 0;
  std::uint64_t prefix_cache_size = 0;
  std::uint64_t prefix_checkpoints = 0;
  double prefix_rss_mb = 0.0;
};

// One round: offer slot `state.rounds` to every tenant, then tick.
void run_round(FleetState& state, Window* window, bool time_offers,
               Tracer* tracer, Tally& tally) {
  FleetController& fleet = *state.fleet;
  const std::size_t slot = state.rounds;
  const Stopwatch round_watch;
  double tick_seconds = 0.0;
  rs::fleet::TickReport report;
  {
    const Span round(tracer, "round");
    {
      const Span offers(tracer, "offer");
      const Stopwatch offers_watch;
      for (std::size_t i = 0; i < state.inputs.size(); ++i) {
        const double lambda = lambda_at(state.inputs[i], slot);
        bool ok = false;
        if (time_offers) {
          const Stopwatch watch;
          ok = fleet.offer(i, lambda);
          window->offer_us.add(watch.microseconds());
        } else {
          ok = fleet.offer(i, lambda);
        }
        ++tally.attempted;
        if (!ok) ++tally.failed;
      }
      if (window != nullptr) window->offer_seconds += offers_watch.seconds();
    }
    const Span tick(tracer, "tick");
    const Stopwatch tick_watch;
    report = fleet.tick();
    tick_seconds = tick_watch.seconds();
  }
  const double round_seconds = round_watch.seconds();
  // A tenant the tick did not advance missed its slot.
  tally.failed += state.inputs.size() - report.advanced_tenants;
  if (state.rounds >= static_cast<std::size_t>(kLayerSlots) &&
      state.rounds < static_cast<std::size_t>(2 * kLayerSlots)) {
    state.reference_tick_seconds.push_back(tick_seconds);
  }
  ++state.rounds;
  if (state.rounds == kPrefixRounds) {
    tally.prefix_conversions = fleet.form_cache().conversions();
    tally.prefix_hits = fleet.form_cache().hits();
    tally.prefix_cache_size = fleet.form_cache().size();
    tally.prefix_checkpoints = fleet.stats().checkpoints;
    // Tenants keep their whole decided trajectory, so memory grows with the
    // rounds a run manages; reading it after fixed work keeps it comparable.
    tally.prefix_rss_mb = peak_rss_mb();
  }
  if (window != nullptr) {
    // Every tenant seals a checkpoint in the same round, once per cadence.
    const bool checkpoint_round = (slot + 1) % kCheckpointEvery == 0;
    (checkpoint_round ? window->checkpoint_round_us : window->other_round_us)
        .add(round_seconds * 1e6);
    window->round_us.add(round_seconds * 1e6);
    window->tick_us.add(tick_seconds * 1e6);
    window->round_seconds += round_seconds;
    window->tenant_steps += report.advanced_slots;
  }
}

// fleet_whatif: the seeded probes issued after each round.
void run_probes(const Shape& shape, FleetState& state, rs::util::Rng& rng,
                Window* window, Tracer* tracer, Tally& tally) {
  for (int q = 0; q < shape.probes_per_round; ++q) {
    const auto tenant = static_cast<std::size_t>(
        rng.uniform_int(0, shape.tenants - 1));
    const TenantSession& session = state.fleet->tenant(tenant);
    const auto steps = static_cast<std::int64_t>(session.steps());
    const std::int64_t first =
        std::max<std::int64_t>(1, steps - shape.what_if_slots + 1);
    const int slot = static_cast<int>(rng.uniform_int(first, steps));
    const double lambda = rng.uniform(0.0, state.inputs[tenant].peak);
    std::optional<rs::fleet::WhatIfResult> answer;
    const Stopwatch watch;
    {
      const Span probe(tracer, "probe");
      answer = session.what_if(slot, lambda);
    }
    if (window != nullptr) window->probe_us.add(watch.microseconds());
    ++tally.attempted;
    ++tally.probes;
    if (!answer) {
      ++tally.failed;
      continue;
    }
    if (state.rounds <= kPrefixRounds) {
      ++tally.prefix_probes;
      tally.prefix_slots_repaired +=
          static_cast<std::uint64_t>(answer->slots_repaired);
      if (answer->early_exit) ++tally.prefix_early_exits;
    }
    // A seeded sample of answers is re-derived from scratch after the run.
    if (tally.probes % 97 == 1 && tally.checks.size() < 40) {
      tally.checks.push_back(ProbeCheck{tenant,
                                        static_cast<std::uint64_t>(steps),
                                        slot, lambda, *answer});
    }
  }
}

std::unique_ptr<FleetState> build_state(const Shape& shape,
                                        std::uint64_t seed) {
  auto state = std::make_unique<FleetState>();
  state->inputs = make_inputs(shape, seed);
  rs::fleet::FleetOptions options;
  options.threads = shape.engine_threads;
  state->fleet = std::make_unique<FleetController>(options);
  for (int i = 0; i < shape.tenants; ++i) {
    state->fleet->add_tenant(
        make_config(shape, state->inputs[static_cast<std::size_t>(i)], i));
  }
  return state;
}

// Runs `work(i)` for i in [0, n) on kCheckThreads threads; the first
// exception a worker throws is rethrown once all have joined.
template <typename Work>
void parallel_check(std::size_t n, Work&& work) {
  std::mutex mutex;
  std::exception_ptr error;
  std::vector<std::thread> threads;
  for (int t = 0; t < kCheckThreads; ++t) {
    threads.emplace_back([&work, &mutex, &error, n, t]() {
      try {
        for (std::size_t i = static_cast<std::size_t>(t); i < n;
             i += kCheckThreads) {
          work(i);
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = std::current_exception();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  if (error) std::rethrow_exception(error);
}

// Standalone Lcp replay of `slots` samples of a tenant stream, with an
// optional edit of one slot.
struct Replay {
  rs::core::Schedule schedule;
  int last_lower = 0;
  int last_upper = 0;
};

Replay replay_lcp(const TenantInput& input, std::uint64_t slots, int edit_slot,
                  double edit_lambda) {
  rs::online::Lcp lcp;
  lcp.reset(rs::online::OnlineContext{input.m, tenant_beta()});
  Replay replay;
  replay.schedule.reserve(slots);
  for (std::uint64_t t = 1; t <= slots; ++t) {
    const double lambda = static_cast<int>(t) == edit_slot
                              ? edit_lambda
                              : lambda_at(input, t - 1);
    replay.schedule.push_back(lcp.decide(cost_of(lambda), {}));
  }
  replay.last_lower = lcp.last_lower();
  replay.last_upper = lcp.last_upper();
  return replay;
}

// Output checks: schedules equal standalone replays, Theorem 2 on the
// prefix, and the sampled what-if answers equal edited replays.  Returns
// the prefix cost_ratio (Σ LCP / Σ OPT).
double check_outputs(const FleetState& state, const Tally& tally,
                     RunResult& result) {
  const std::size_t n = state.inputs.size();
  std::mutex mutex;
  std::vector<double> lcp_cost(n, 0.0);
  std::vector<double> opt_cost(n, 0.0);
  parallel_check(n, [&](std::size_t i) {
    std::string failure;
    try {
      const TenantInput& input = state.inputs[i];
      const rs::core::Schedule fleet_schedule =
          state.fleet->tenant(i).schedule();
      const Replay replay = replay_lcp(input, state.rounds, 0, 0.0);
      if (fleet_schedule != replay.schedule) {
        failure = "tenant " + std::to_string(i) +
                  ": fleet schedule differs from a standalone Lcp replay";
      }
      std::vector<rs::core::CostPtr> costs;
      for (std::size_t t = 0; t < kPrefixRounds; ++t) {
        costs.push_back(cost_of(lambda_at(input, t)));
      }
      const rs::core::Problem prefix(input.m, tenant_beta(), std::move(costs));
      const rs::core::Schedule head(
          replay.schedule.begin(),
          replay.schedule.begin() + static_cast<std::ptrdiff_t>(kPrefixRounds));
      lcp_cost[i] = rs::core::total_cost(prefix, head);
      opt_cost[i] =
          rs::offline::DpSolver(rs::offline::DpSolver::Backend::kConvexAuto)
              .solve_cost(prefix);
      const double slack = 1e-9 * opt_cost[i];
      if (!(opt_cost[i] <= lcp_cost[i] + slack &&
            lcp_cost[i] <= 3.0 * opt_cost[i] + slack)) {
        failure = "tenant " + std::to_string(i) +
                  ": OPT <= LCP <= 3 OPT violated on the prefix";
      }
    } catch (const std::exception& error) {
      failure = "tenant " + std::to_string(i) + ": " + error.what();
    }
    if (!failure.empty()) {
      const std::lock_guard<std::mutex> lock(mutex);
      result.failures.push_back(failure);
    }
  });
  parallel_check(tally.checks.size(), [&](std::size_t k) {
    const ProbeCheck& c = tally.checks[k];
    const Replay replay =
        replay_lcp(state.inputs[c.tenant], c.steps, c.slot, c.lambda);
    const bool same = replay.last_lower == c.answer.x_lower &&
                      replay.last_upper == c.answer.x_upper &&
                      replay.schedule.back() == c.answer.projected_state;
    if (!same) {
      const std::lock_guard<std::mutex> lock(mutex);
      result.failures.push_back("what_if(tenant " + std::to_string(c.tenant) +
                                ", slot " + std::to_string(c.slot) +
                                ") differs from an edited replay");
    }
  });
  result.check(state.fleet->stats().quarantined == 0,
               "a tenant was quarantined");
  double lcp_sum = 0.0;
  double opt_sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    lcp_sum += lcp_cost[i];
    opt_sum += opt_cost[i];
  }
  return opt_sum > 0.0 ? lcp_sum / opt_sum : 0.0;
}

// Traced runs only: standalone calls into each layer on the first
// kLayerSlots samples of every tenant's stream.
void layer_pass(const Shape& shape, const FleetState& state, std::uint64_t seed,
                Tracer* tracer, RunResult& result) {
  Samples step_us;
  Samples convert_us;
  Samples decide_ns;
  Samples seal_us;
  Samples put_us;
  Samples open_us;
  Samples clone_us;
  Samples repair_us;
  double bytes_sum = 0.0;
  double step_seconds = 0.0;
  double repair_ns = 0.0;
  double repaired_slots = 0.0;
  int breakpoints_max = 0;
  rs::util::Rng rng(mix_seed(seed, 0x1a7e4));
  int decisions[1];
  int lower[1];
  int upper[1];
  Tracer* const all_spans = tracer;
  for (std::size_t i = 0; i < state.inputs.size(); ++i) {
    // Every tenant is timed; spans are kept for the first kSpanTenants only
    // (one per size x trace kind), which bounds the trace file.
    tracer = i < kSpanTenants ? all_spans : nullptr;
    const TenantInput& input = state.inputs[i];
    const rs::online::OnlineContext context{input.m, tenant_beta()};
    rs::core::CheckpointStore store;
    TenantSession session(make_config(shape, input, static_cast<int>(i)), i);
    rs::online::Lcp lcp;
    lcp.reset(context);
    if (shape.what_if_slots > 0) lcp.enable_what_if(shape.what_if_slots);
    const int budget = rs::core::compact_pwl_budget_for(input.m);
    for (int t = 1; t <= kLayerSlots; ++t) {
      const double lambda = lambda_at(input, static_cast<std::size_t>(t - 1));
      session.offer(lambda);
      {
        const Span span(tracer, "tenant_step");
        const Stopwatch watch;
        session.step(store);
        const double seconds = watch.seconds();
        step_seconds += seconds;
        step_us.add(seconds * 1e6);
      }
      {
        const Span step(tracer, "step");
        const rs::core::CostPtr cost = cost_of(lambda);
        std::optional<rs::core::ConvexPwl> form;
        {
          const Span convert(tracer, "convert");
          const Stopwatch watch;
          form = cost->as_convex_pwl(input.m, budget);
          convert_us.add(watch.microseconds());
        }
        if (!form) {
          result.failures.push_back("hinge cost has no convex-PWL form");
          return;
        }
        {
          const Span decide(tracer, "decide");
          const Stopwatch watch;
          lcp.decide_run(*form, 1, decisions, lower, upper);
          decide_ns.add(watch.microseconds() * 1e3);
        }
        breakpoints_max =
            std::max(breakpoints_max, lcp.tracker()->breakpoint_count());
        if (t % kCheckpointEvery == 0) {
          std::vector<std::uint8_t> bytes;
          {
            const Span seal(tracer, "seal");
            const Stopwatch watch;
            bytes = session.snapshot_bytes();
            seal_us.add(watch.microseconds());
          }
          bytes_sum += static_cast<double>(bytes.size());
          {
            const Span put(tracer, "put");
            const Stopwatch watch;
            store.put("layer-pass", bytes);
            put_us.add(watch.microseconds());
          }
          const Stopwatch watch;
          const rs::fleet::TenantCheckpoint opened =
              TenantSession::decode_checkpoint(bytes);
          rs::online::Lcp restored;
          restored.restore(context, opened.session);
          open_us.add(watch.microseconds());
        }
      }
      if (shape.what_if_slots > 0 && t % 4 == 0) {
        const int first = std::max(1, t - shape.what_if_slots + 1);
        const int slot = static_cast<int>(rng.uniform_int(first, t));
        const rs::core::CostPtr edit = cost_of(rng.uniform(0.0, input.peak));
        const Span probe(tracer, "probe");
        std::optional<rs::offline::WorkFunctionTracker> clone;
        {
          const Span span(tracer, "clone");
          const Stopwatch watch;
          clone.emplace(lcp.tracker()->clone());
          clone_us.add(watch.microseconds());
        }
        const Span span(tracer, "repair");
        const Stopwatch watch;
        const rs::offline::WorkFunctionTracker::Repair repair =
            clone->repair_from(slot, *edit);
        const double us = watch.microseconds();
        repair_us.add(us);
        repair_ns += us * 1e3;
        repaired_slots += repair.slots_replayed;
      }
    }
  }
  double fleet_tick_seconds = 0.0;
  for (double s : state.reference_tick_seconds) fleet_tick_seconds += s;
  const double threads = static_cast<double>(shape.engine_threads);
  MetricSet& layer = result.layer;
  layer.set("tenant.step_us.p50", step_us.median(), "us");
  layer.set("tenant.step_us.p99", step_us.percentile(99.0), "us");
  layer.set("convex_pwl.convert_us.p50", convert_us.median(), "us");
  layer.set("lcp.decide_ns.p50", decide_ns.median(), "ns");
  layer.set("tracker.breakpoints_max", breakpoints_max, "count");
  layer.set("checkpoint.seal_us.p50", seal_us.median(), "us");
  layer.set("checkpoint.put_us.p50", put_us.median(), "us");
  layer.set("checkpoint.open_us.p50", open_us.median(), "us");
  layer.set("checkpoint.bytes.mean",
            seal_us.size() > 0 ? bytes_sum / static_cast<double>(seal_us.size())
                               : 0.0,
            "bytes");
  layer.set("engine.parallel_efficiency",
            fleet_tick_seconds > 0.0
                ? step_seconds / (fleet_tick_seconds * threads)
                : 0.0,
            "ratio");
  if (shape.what_if_slots > 0) {
    layer.set("tracker.clone_us.p50", clone_us.median(), "us");
    layer.set("tracker.repair_us.p50", repair_us.median(), "us");
    layer.set("tracker.repair_ns_per_slot",
              repaired_slots > 0.0 ? repair_ns / repaired_slots : 0.0, "ns");
  }
}

RunResult run_fleet(const Shape& shape, const RunOptions& options) {
  RunResult result;
  Tracer tracer;
  Tracer* const spans = options.trace ? &tracer : nullptr;
  Tally tally;
  double setup_s = 0.0;
  const std::unique_ptr<FleetState> state = build_repeatedly(
      kSetupRepeats,
      [&]() {
        std::unique_ptr<FleetState> built = build_state(shape, options.seed);
        tally = Tally{};
        for (int r = 0; r < kWarmupRounds; ++r) {
          run_round(*built, nullptr, false, nullptr, tally);
        }
        return built;
      },
      setup_s);

  Digest digest;
  for (const TenantInput& input : state->inputs) {
    digest.add(static_cast<std::int64_t>(input.m));
    for (double lambda : input.lambda) digest.add(lambda);
  }
  result.input_digest = digest.hex();

  rs::util::Rng probe_rng(mix_seed(options.seed, 0x9b0be));
  // Closed loop: the next round (and its probes) starts only after the
  // previous returns.  The first window also always covers the prefix.
  auto run_window = [&](double seconds, bool traced) {
    tracer.set_on(traced);
    std::vector<Window> segments(1);
    const Stopwatch watch;
    Stopwatch segment;
    while (watch.seconds() < seconds || state->rounds < kPrefixRounds) {
      run_round(*state, &segments.back(), traced, spans, tally);
      if (shape.probes_per_round > 0) {
        run_probes(shape, *state, probe_rng, &segments.back(), spans, tally);
      }
      // Segments end on the checkpoint cadence, so each holds whole
      // checkpoint cycles and none is cheaper for holding fewer seals.
      if (segment.seconds() >= shape.segment_seconds &&
          state->rounds % kCheckpointEvery == 0) {
        segments.emplace_back();
        segment.reset();
      }
    }
    tracer.set_on(false);
    if (segments.size() > 1) segments.pop_back();  // the unfinished one
    return segments;
  };
  const std::vector<Window> plain_segments =
      run_window(options.trace ? options.seconds / 2 : options.seconds, false);
  const Window plain = merge(plain_segments);
  const Window traced =
      options.trace ? merge(run_window(options.seconds / 2, true)) : Window{};

  const double cost_ratio = check_outputs(*state, tally, result);
  result.attempted = tally.attempted;
  result.failed = tally.failed;

  const bool probes = shape.probes_per_round > 0;
  const double steps_per_s = best_segment(
      plain_segments, [](const Window& w) { return w.steps_per_s(); }, false);
  const double slot_p50 = best_segment(
      plain_segments, [](const Window& w) { return w.round_us.median(); },
      true);
  const double slot_p99 = best_segment(
      plain_segments,
      [](const Window& w) { return w.round_us.percentile(99.0); }, true);
  const double probe_p50 = best_segment(
      plain_segments, [](const Window& w) { return w.probe_us.median(); },
      true);
  const double probe_p99 = best_segment(
      plain_segments,
      [](const Window& w) { return w.probe_us.percentile(99.0); }, true);
  // The gated probe tail is the p95: on the reference VM the best-segment
  // p99 of probes spread by 25% across runs, the p95 by much less.
  const double probe_p95 = best_segment(
      plain_segments,
      [](const Window& w) { return w.probe_us.percentile(95.0); }, true);
  const double rss = tally.prefix_rss_mb;
  const double failed_ratio =
      static_cast<double>(tally.failed) / static_cast<double>(tally.attempted);

  MetricSet& e2e = result.end_to_end;
  e2e.set("setup_s", setup_s, "s");
  e2e.set("latency_p50_us", probes ? probe_p50 : slot_p50, "us");
  e2e.set("latency_tail_us", probes ? probe_p95 : slot_p99, "us");
  e2e.set("throughput_per_s", steps_per_s, "1/s");
  e2e.set("peak_rss_mb", rss, "MiB");
  e2e.set("cost_ratio", cost_ratio, "ratio");

  MetricSet& named = result.named;
  named.set("setup_s", setup_s, "s");
  named.set("slot_p50_us", slot_p50, "us");
  named.set("slot_p99_us", slot_p99, "us");
  named.set("slot_p50_us.checkpoint_rounds",
            plain.checkpoint_round_us.median(), "us");
  named.set("slot_p50_us.other_rounds", plain.other_round_us.median(), "us");
  named.set("tenant_steps_per_s", steps_per_s, "1/s");
  if (probes) {
    named.set("probe_p50_us", probe_p50, "us");
    named.set("probe_p95_us", probe_p95, "us");
    named.set("probe_p99_us", probe_p99, "us");
  } else {
    named.set("cost_ratio", cost_ratio, "ratio");
  }
  named.set("failed_ratio", failed_ratio, "ratio");
  named.set("peak_rss_mb", rss, "MiB");
  named.set("rounds", static_cast<double>(plain.round_us.size()), "count");
  named.set("segments", static_cast<double>(plain_segments.size()), "count");
  if (probes) {
    named.set("probes", static_cast<double>(plain.probe_us.size()), "count");
  }

  const double conversions = static_cast<double>(tally.prefix_conversions);
  const double hits = static_cast<double>(tally.prefix_hits);
  MetricSet& counters = result.counters;
  counters.set("form_cache.conversions", conversions, "count");
  counters.set("form_cache.hits", hits, "count");
  counters.set("form_cache.size", static_cast<double>(tally.prefix_cache_size),
               "count");
  counters.set("checkpoint.count",
               static_cast<double>(tally.prefix_checkpoints), "count");
  counters.set("cost_ratio", cost_ratio, "ratio");
  if (probes) {
    const double n = static_cast<double>(tally.prefix_probes);
    counters.set("whatif.slots_repaired.mean",
                 n > 0 ? static_cast<double>(tally.prefix_slots_repaired) / n
                       : 0.0,
                 "slots");
    counters.set("whatif.early_exit_ratio",
                 n > 0 ? static_cast<double>(tally.prefix_early_exits) / n
                       : 0.0,
                 "ratio");
  }

  if (options.trace) {
    MetricSet& layer = result.layer;
    layer.set("fleet.tick_us.p50", traced.tick_us.median(), "us");
    layer.set("fleet.tick_us.p99", traced.tick_us.percentile(99.0), "us");
    layer.set("tenant.offer_us.p50", traced.offer_us.median(), "us");
    layer.set("tenant.offer_share",
              traced.round_seconds > 0.0
                  ? traced.offer_seconds / traced.round_seconds
                  : 0.0,
              "ratio");
    layer.set("form_cache.conversions", conversions, "count");
    layer.set("form_cache.hits", hits, "count");
    layer.set("form_cache.hit_ratio",
              conversions + hits > 0.0 ? hits / (conversions + hits) : 0.0,
              "ratio");
    layer.set("form_cache.size", static_cast<double>(tally.prefix_cache_size),
              "count");
    layer.set("checkpoint.count",
              static_cast<double>(tally.prefix_checkpoints), "count");
    if (probes) {
      layer.set("whatif.slots_repaired.mean",
                tally.prefix_probes > 0
                    ? static_cast<double>(tally.prefix_slots_repaired) /
                          static_cast<double>(tally.prefix_probes)
                    : 0.0,
                "slots");
      layer.set("whatif.early_exit_ratio",
                tally.prefix_probes > 0
                    ? static_cast<double>(tally.prefix_early_exits) /
                          static_cast<double>(tally.prefix_probes)
                    : 0.0,
                "ratio");
    }
    const Samples& plain_latency = probes ? plain.probe_us : plain.round_us;
    const Samples& traced_latency = probes ? traced.probe_us : traced.round_us;
    layer.set("trace.overhead.latency_p50_us",
              traced_latency.median() - plain_latency.median(), "us");
    layer.set("trace.overhead.latency_tail_us",
              traced_latency.percentile(99.0) - plain_latency.percentile(99.0),
              "us");
    tracer.set_on(true);
    layer_pass(shape, *state, options.seed, spans, result);
    tracer.set_on(false);
    layer.set("trace.spans", static_cast<double>(tracer.recorded()), "count");
    tracer.write_chrome_json(options.trace_path);
  }
  return result;
}

}  // namespace

RunResult run_fleet_stream(const RunOptions& options) {
  return run_fleet(Shape{192, 3, rs::fleet::Priority::kBatch,
                         0, 0, 0.5},
                   options);
}

RunResult run_fleet_whatif(const RunOptions& options) {
  return run_fleet(Shape{64, 1,
                         rs::fleet::Priority::kInteractive, 128, 8, 1.0},
                   options);
}

}  // namespace perfbench
