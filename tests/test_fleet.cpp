// Fleet controller: the self-healing multi-tenant serving layer
// (DESIGN.md §11).
//
// The acceptance criterion is the chaos drill: with seeded faults killing
// and poisoning random tenants mid-stream, the controller must quarantine
// exactly the genuinely poisoned tenants, restore every killed tenant from
// its latest checkpoint, and leave every survivor's schedule and corridor
// bounds bit-identical to an undisturbed run — across backends {kDense,
// kPwl, kAuto} and thread counts {1, 2, 4}.  Because every fleet fault site
// is keyed by util::tenant_fault_index, the casualty set is *predicted*
// from the plan (scenario::corrupted_offers / killed_attempts) and asserted
// exactly, under any rotating CI seed.
//
// The drill tenants use integer-valued AffineAbs slot costs, so the dense
// and PWL backends agree bitwise and a mid-drill degrade-to-dense cannot
// perturb a survivor's schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/checkpoint_store.hpp"
#include "core/cost_function.hpp"
#include "fleet/fleet_controller.hpp"
#include "fleet/tenant.hpp"
#include "offline/work_function.hpp"
#include "online/lcp.hpp"
#include "scenario/fault_plan.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"

namespace {

using rs::core::CheckpointStore;
using rs::fleet::FleetController;
using rs::fleet::FleetEvent;
using rs::fleet::FleetEventKind;
using rs::fleet::FleetOptions;
using rs::fleet::OverflowPolicy;
using rs::fleet::TenantCheckpoint;
using rs::fleet::TenantConfig;
using rs::fleet::TenantSession;
using rs::fleet::TenantState;
using rs::scenario::FaultPlan;
using rs::scenario::PoisonKind;
using rs::util::ScopedFaultInjection;
using Backend = rs::offline::WorkFunctionTracker::Backend;

std::uint64_t base_seed() {
  return rs::util::env_fault_base_seed(0xC0FFEEull);
}

// Integer-valued slot costs: slope ∈ {1, 2}, center = λ (fed integer λ), so
// every work-function value is exact in double on both backends and dense
// and PWL decisions agree bitwise.
std::function<rs::core::CostPtr(double)> integer_cost() {
  return [](double lambda) -> rs::core::CostPtr {
    const double slope =
        1.0 + static_cast<double>(static_cast<long long>(lambda) % 2);
    return std::make_shared<rs::core::AffineAbsCost>(slope, lambda, 0.0);
  };
}

std::vector<double> integer_trace(int m, int horizon, std::uint64_t seed) {
  rs::util::Rng rng(seed);
  std::vector<double> trace;
  trace.reserve(static_cast<std::size_t>(horizon));
  for (int t = 0; t < horizon; ++t) {
    trace.push_back(static_cast<double>(rng.uniform_int(0, m)));
  }
  return trace;
}

TenantConfig basic_config(std::string name, int m, double beta = 2.0) {
  TenantConfig config;
  config.name = std::move(name);
  config.m = m;
  config.beta = beta;
  config.cost_of = integer_cost();
  return config;
}

bool has_event(const std::vector<FleetEvent>& events, std::size_t tenant,
               FleetEventKind kind) {
  for (const FleetEvent& e : events) {
    if (e.tenant == tenant && e.kind == kind) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Validation and plumbing
// ---------------------------------------------------------------------------

TEST(FleetTenant, ValidatesConfig) {
  const auto expect_bad = [](TenantConfig config) {
    EXPECT_THROW(TenantSession(std::move(config), 0), std::invalid_argument);
  };
  expect_bad(basic_config("", 4));
  expect_bad(basic_config("t", 0));
  expect_bad(basic_config("t", -3));
  {
    TenantConfig c = basic_config("t", 4);
    c.beta = -1.0;
    expect_bad(c);
  }
  {
    TenantConfig c = basic_config("t", 4);
    c.window = -1;
    expect_bad(c);
  }
  {
    TenantConfig c = basic_config("t", 4);
    c.cost_of = nullptr;
    expect_bad(c);
  }
  {
    TenantConfig c = basic_config("t", 4);
    c.queue_capacity = 0;
    expect_bad(c);
  }
  {
    TenantConfig c = basic_config("t", 4);
    c.checkpoint_every = 0;
    expect_bad(c);
  }
  {
    TenantConfig c = basic_config("t", 4);
    c.degrade_after = 0;
    expect_bad(c);
  }
  {
    TenantConfig c = basic_config("t", 4);
    c.max_recoveries = -1;
    expect_bad(c);
  }
}

TEST(FleetController, ValidatesOptionsAndTenantNames) {
  {
    FleetOptions options;
    options.tick_budget_seconds = -1.0;
    EXPECT_THROW(FleetController{options}, std::invalid_argument);
  }
  {
    FleetOptions options;
    options.max_events = 0;
    EXPECT_THROW(FleetController{options}, std::invalid_argument);
  }

  FleetController fleet;
  fleet.add_tenant(basic_config("a/b", 4));
  // Collides with "a/b" after sanitization — would share a store key.
  EXPECT_THROW(fleet.add_tenant(basic_config("a_b", 4)),
               std::invalid_argument);
  EXPECT_THROW(fleet.tenant(7), std::out_of_range);
  EXPECT_THROW(fleet.offer(7, 1.0), std::out_of_range);

  // An empty (or fully drained) fleet ticks to a no-op and drains in zero
  // ticks instead of spinning.
  const rs::fleet::TickReport report = fleet.tick();
  EXPECT_EQ(report.due, 0u);
  EXPECT_EQ(fleet.run_until_drained(), 0u);
}

// ---------------------------------------------------------------------------
// Input hardening
// ---------------------------------------------------------------------------

TEST(FleetTenant, PoisonedInputsQuarantineWithReason) {
  struct Case {
    const char* label;
    std::function<rs::core::CostPtr(double)> cost_of;
    double lambda;
    const char* reason_substr;
  };
  const auto base_cost = integer_cost();
  const std::vector<Case> cases = {
      {"nan lambda", base_cost, std::numeric_limits<double>::quiet_NaN(),
       "invalid λ sample"},
      {"inf lambda", base_cost, std::numeric_limits<double>::infinity(),
       "invalid λ sample"},
      {"negative lambda", base_cost, -1.0, "invalid λ sample"},
      {"throwing factory",
       [](double) -> rs::core::CostPtr {
         throw std::runtime_error("telemetry offline");
       },
       2.0, "cost factory threw"},
      {"null factory", [](double) -> rs::core::CostPtr { return nullptr; },
       2.0, "cost factory returned null"},
      {"nan cost",
       [&](double lambda) {
         return rs::scenario::make_poisoned_cost(base_cost(lambda),
                                                 PoisonKind::kNaN);
       },
       2.0, "slot cost evaluates to NaN"},
      {"throwing cost",
       [&](double lambda) {
         return rs::scenario::make_poisoned_cost(base_cost(lambda),
                                                 PoisonKind::kThrow);
       },
       2.0, "slot cost evaluation threw"},
      {"negative cost",
       [](double) -> rs::core::CostPtr {
         return std::make_shared<rs::core::AffineAbsCost>(1.0, 0.0, -100.0);
       },
       2.0, "slot cost is negative"},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.label);
    TenantConfig config = basic_config("victim", 5);
    config.cost_of = c.cost_of;
    TenantSession session(config, 0);
    EXPECT_FALSE(session.offer(c.lambda));
    EXPECT_EQ(session.state(), TenantState::kQuarantined);
    EXPECT_NE(session.stats().quarantine_reason.find(c.reason_substr),
              std::string::npos)
        << "actual reason: " << session.stats().quarantine_reason;
    // Terminal: further offers bounce, nothing is due, the queue is freed.
    EXPECT_FALSE(session.offer(1.0));
    EXPECT_FALSE(session.due());
    EXPECT_TRUE(session.drained());
    EXPECT_EQ(session.queue_depth(), 0u);
  }

  // +inf cost is legitimate infeasibility, not poison — it must pass the
  // probe (the fault/infeasibility distinction).
  TenantConfig config = basic_config("infeasible", 5);
  config.cost_of = [&](double lambda) {
    return rs::scenario::make_poisoned_cost(base_cost(lambda),
                                            PoisonKind::kInfeasible);
  };
  TenantSession session(config, 0);
  EXPECT_TRUE(session.offer(2.0));
  EXPECT_EQ(session.state(), TenantState::kHealthy);
}

TEST(FleetTenant, OverflowPoliciesBoundTheQueue) {
  CheckpointStore store;
  const std::vector<double> lambdas = {1.0, 4.0, 2.0, 5.0, 3.0, 0.0};

  {  // kRejectNewest: backpressure — the producer sees false.
    TenantConfig config = basic_config("reject", 6);
    config.queue_capacity = 4;
    TenantSession session(config, 0);
    for (std::size_t i = 0; i < lambdas.size(); ++i) {
      EXPECT_EQ(session.offer(lambdas[i]), i < 4) << "i=" << i;
    }
    EXPECT_EQ(session.stats().offered, 4u);
    EXPECT_EQ(session.stats().rejected, 2u);
    EXPECT_EQ(session.queue_depth(), 4u);
    while (session.due()) session.step(store);
    EXPECT_EQ(session.schedule().size(), 4u);
    EXPECT_TRUE(has_event(session.drain_events(), 0,
                          FleetEventKind::kOverflow));
  }

  {  // kDropOldest: newest-wins — the tail of the stream survives.
    TenantConfig config = basic_config("drop", 6);
    config.queue_capacity = 4;
    config.overflow = OverflowPolicy::kDropOldest;
    TenantSession session(config, 0);
    for (double lambda : lambdas) EXPECT_TRUE(session.offer(lambda));
    EXPECT_EQ(session.stats().overflow_drops, 2u);
    EXPECT_EQ(session.queue_depth(), 4u);
    while (session.due()) session.step(store);

    // The decided slots must match a reference fed only the surviving tail.
    TenantSession reference(basic_config("drop-ref", 6), 1);
    for (std::size_t i = 2; i < lambdas.size(); ++i) {
      reference.offer(lambdas[i]);
    }
    while (reference.due()) reference.step(store);
    EXPECT_EQ(session.schedule(), reference.schedule());

    // A run that alone exceeds capacity is rejected even after dropping
    // everything else.
    EXPECT_FALSE(session.offer_run(1.0, 5));
  }
}

TEST(FleetTenant, WindowedRecoveryReplaysTheLookaheadEachSlotSaw) {
  // A windowed slot sees the next w queued samples as its lookahead.  When
  // kDropOldest overflow later evicts some of them, a recovery must still
  // re-decide that slot with what it saw, not with what the queue holds by
  // then — else the replayed slot and every later one drift.
  const std::vector<double> lambdas = {6, 3, 0, 5, 3, 4, 5, 4, 5, 0};
  // One kFleetTick kill at attempt 1 and no ingest fault (both predicted
  // from the plan below).
  const FaultPlan plan{299497, 4, PoisonKind::kNaN};
  ASSERT_TRUE(rs::scenario::corrupted_offers(plan, 0, lambdas.size()).empty());
  ASSERT_EQ(rs::scenario::killed_attempts(plan, 0, 8),
            std::vector<std::uint64_t>{1});

  const auto run = [&](bool kill) {
    TenantConfig config = basic_config("windowed", 6);
    config.window = 2;
    config.queue_capacity = 3;
    config.overflow = OverflowPolicy::kDropOldest;
    config.checkpoint_every = 1000;
    TenantSession tenant(config, 0);
    CheckpointStore store;
    std::optional<ScopedFaultInjection> guard;
    if (kill) guard.emplace(rs::scenario::make_injector(plan));
    std::size_t next = 0;
    for (; next < 3; ++next) tenant.offer(lambdas[next]);
    while (next < lambdas.size()) {
      tenant.step(store);
      for (int k = 0; k < 2 && next < lambdas.size(); ++k) {
        tenant.offer(lambdas[next++]);
      }
    }
    tenant.finish_stream();
    while (!tenant.drained()) tenant.step(store);
    EXPECT_EQ(tenant.stats().recoveries, kill ? 1u : 0u);
    EXPECT_GT(tenant.stats().overflow_drops, 0u);
    return tenant.schedule();
  };
  const rs::core::Schedule undisturbed = run(false);
  EXPECT_EQ(undisturbed, (rs::core::Schedule{3, 3, 3, 5, 5, 5, 5}));
  EXPECT_EQ(run(true), undisturbed);
}

// ---------------------------------------------------------------------------
// Checkpoint cadence and RLE ingest
// ---------------------------------------------------------------------------

TEST(FleetTenant, CheckpointCadenceSealsDecodableSnapshots) {
  FleetController fleet;
  TenantConfig config = basic_config("cadence", 8);
  config.checkpoint_every = 4;
  const std::size_t ordinal = fleet.add_tenant(config);
  for (double lambda : integer_trace(8, 10, 77)) fleet.offer(ordinal, lambda);
  fleet.run_until_drained();

  // 10 slots at cadence 4 → a snapshot at every slot s with
  // (s + phase) % 4 == 0.
  const int phase = rs::fleet::checkpoint_phase("cadence", 4);
  std::uint64_t seals = 0;
  std::uint64_t last_seal = 0;
  for (std::uint64_t s = 1; s <= 10; ++s) {
    if ((s + static_cast<std::uint64_t>(phase)) % 4 == 0) {
      ++seals;
      last_seal = s;
    }
  }
  EXPECT_EQ(fleet.tenant(ordinal).stats().checkpoints, seals);
  const auto at_cadence = fleet.store().latest("cadence");
  ASSERT_TRUE(at_cadence.has_value());
  EXPECT_EQ(TenantSession::decode_checkpoint(*at_cadence).steps, last_seal);

  // checkpoint_all flushes the off-cadence tail.
  fleet.checkpoint_all();
  const auto final_save = fleet.store().latest("cadence");
  ASSERT_TRUE(final_save.has_value());
  const TenantCheckpoint decoded =
      TenantSession::decode_checkpoint(*final_save);
  EXPECT_EQ(decoded.steps, 10u);
  EXPECT_FALSE(decoded.degraded);
  EXPECT_TRUE(has_event(fleet.events(), ordinal,
                        FleetEventKind::kCheckpointed));
}

// Slots at which each tenant sealed, by name, from the kCheckpointed events.
std::map<std::string, std::vector<std::uint64_t>> seal_slots(
    const FleetController& fleet) {
  std::map<std::string, std::vector<std::uint64_t>> out;
  for (const FleetEvent& e : fleet.events()) {
    if (e.kind == FleetEventKind::kCheckpointed) {
      out[fleet.tenant(e.tenant).config().name].push_back(e.slot);
    }
  }
  return out;
}

// The cadence slots of `name` in (from, to]: (s + phase) % every == 0.
std::vector<std::uint64_t> cadence_slots(const std::string& name, int every,
                                         std::uint64_t from,
                                         std::uint64_t to) {
  const auto phase =
      static_cast<std::uint64_t>(rs::fleet::checkpoint_phase(name, every));
  std::vector<std::uint64_t> out;
  for (std::uint64_t s = from + 1; s <= to; ++s) {
    if ((s + phase) % static_cast<std::uint64_t>(every) == 0) out.push_back(s);
  }
  return out;
}

TEST(FleetTenant, CheckpointPhaseIsFnv1aOfTheKey) {
  // FNV-1a 64 test vectors ("" → cbf29ce484222325, "a" → af63dc4c8601ec8c,
  // "foobar" → 85944171f73967e8), reduced mod 2^31 − 1 and mod 16.
  constexpr int kLarge = 2147483647;
  EXPECT_EQ(rs::fleet::checkpoint_phase("", kLarge), 470244593);
  EXPECT_EQ(rs::fleet::checkpoint_phase("a", kLarge), 1690936615);
  EXPECT_EQ(rs::fleet::checkpoint_phase("foobar", kLarge), 39971534);
  EXPECT_EQ(rs::fleet::checkpoint_phase("", 16), 5);
  EXPECT_EQ(rs::fleet::checkpoint_phase("a", 16), 12);
  EXPECT_EQ(rs::fleet::checkpoint_phase("anything", 1), 0);
  std::set<int> phases;
  for (int i = 0; i < 64; ++i) {
    const int phase =
        rs::fleet::checkpoint_phase("tenant-" + std::to_string(i), 16);
    EXPECT_GE(phase, 0);
    EXPECT_LT(phase, 16);
    phases.insert(phase);
  }
  // 64 keys cover most of the 16 phases, so seals spread over the rounds.
  EXPECT_GE(phases.size(), 12u);
  EXPECT_THROW(rs::fleet::checkpoint_phase("k", 0), std::invalid_argument);
}

TEST(FleetTenant, CadencePhaseFollowsTheNameAcrossAddOrderAndRestart) {
  const int kEvery = 4;
  const int kSlots = 24;
  const int kBefore = 10;
  const std::vector<std::string> names = {"north", "south", "east", "west",
                                          "cadence"};
  std::set<int> phases;
  for (const std::string& name : names) {
    phases.insert(rs::fleet::checkpoint_phase(name, kEvery));
  }
  ASSERT_GT(phases.size(), 1u);  // the roster does spread over the cadence
  std::map<std::string, std::vector<double>> traces;
  for (std::size_t k = 0; k < names.size(); ++k) {
    traces[names[k]] = integer_trace(8, kSlots, 500 + k);
  }
  const auto add_all = [&](FleetController& fleet, bool reversed) {
    for (std::size_t k = 0; k < names.size(); ++k) {
      TenantConfig config =
          basic_config(names[reversed ? names.size() - 1 - k : k], 8);
      config.checkpoint_every = kEvery;
      fleet.add_tenant(config);
    }
  };
  const auto serve = [&](FleetController& fleet, int from, int to) {
    for (int t = from; t < to; ++t) {
      for (std::size_t i = 0; i < fleet.tenant_count(); ++i) {
        const std::string& name = fleet.tenant(i).config().name;
        fleet.offer(i, traces[name][static_cast<std::size_t>(t)]);
      }
    }
    fleet.run_until_drained();
  };

  FleetController forward;
  add_all(forward, false);
  serve(forward, 0, kSlots);
  FleetController backward;
  add_all(backward, true);
  serve(backward, 0, kSlots);
  const auto forward_seals = seal_slots(forward);
  EXPECT_EQ(seal_slots(backward), forward_seals);
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const auto it = forward_seals.find(name);
    ASSERT_NE(it, forward_seals.end());
    EXPECT_EQ(it->second, cadence_slots(name, kEvery, 0, kSlots));
  }

  // Restart: one process serves the head and flushes an off-cadence seal;
  // a second, adding the tenants in the other order, resumes and keeps
  // sealing on the same slots as the uninterrupted run.
  const std::string dir = ::testing::TempDir() + "/rs_fleet_phase_restart";
  std::filesystem::remove_all(dir);
  FleetOptions options;
  options.checkpoint_dir = dir;
  {
    FleetController first(options);
    add_all(first, true);
    serve(first, 0, kBefore);
    first.checkpoint_all();
    const auto head = seal_slots(first);
    for (const std::string& name : names) {
      SCOPED_TRACE(name);
      std::vector<std::uint64_t> expected =
          cadence_slots(name, kEvery, 0, kBefore);
      expected.push_back(kBefore);  // the flush
      ASSERT_NE(head.find(name), head.end());
      EXPECT_EQ(head.at(name), expected);
    }
  }
  FleetController second(options);
  add_all(second, false);
  for (std::size_t i = 0; i < second.tenant_count(); ++i) {
    ASSERT_EQ(second.tenant(i).steps(), static_cast<std::uint64_t>(kBefore));
  }
  serve(second, kBefore, kSlots);
  const auto tail = seal_slots(second);
  for (const std::string& name : names) {
    SCOPED_TRACE(name);
    const std::vector<std::uint64_t> expected =
        cadence_slots(name, kEvery, kBefore, kSlots);
    const auto it = tail.find(name);
    EXPECT_EQ(it == tail.end() ? std::vector<std::uint64_t>{} : it->second,
              expected);
  }
  std::filesystem::remove_all(dir);
}

// A recovery replays the gap since the last seal and then retries the
// failed run.  With the cadence grid fixed by the phase, RLE runs that
// cross it and off-cadence seals (checkpoint_all, the degrade seal) that
// do not move it, the gap stays below checkpoint_every, so one recovery
// decides at most checkpoint_every + run − 1 slots — and the schedule
// stays bitwise equal to an undisturbed run.
TEST(FleetTenant, RecoveryReplayIsBoundedByCadenceWithRunsAndOffCadenceSeals) {
  const int kEvery = 5;
  std::vector<std::pair<double, int>> runs;
  rs::util::Rng rng(0x9A9ull);
  for (int i = 0; i < 40; ++i) {
    runs.emplace_back(static_cast<double>(rng.uniform_int(0, 8)),
                      static_cast<int>(rng.uniform_int(1, 7)));
  }
  // Run length by the slot count before it.
  std::map<std::uint64_t, int> run_at;
  std::uint64_t total = 0;
  for (const auto& [lambda, count] : runs) {
    run_at[total] = count;
    total += static_cast<std::uint64_t>(count);
  }

  const auto serve = [&](FleetController& fleet, bool faults) {
    TenantConfig config = basic_config("gap", 8);
    config.checkpoint_every = kEvery;
    config.queue_capacity = total;
    config.degrade_after = 1;
    config.max_recoveries = 64;
    fleet.add_tenant(config);
    for (const auto& [lambda, count] : runs) {
      ASSERT_TRUE(fleet.offer_run(0, lambda, count));
    }
    std::optional<ScopedFaultInjection> guard;
    if (faults) {
      guard.emplace(rs::scenario::make_injector(
          FaultPlan{base_seed(), 2, PoisonKind::kNaN}));
    }
    for (int tick = 1; fleet.tenant(0).due(); ++tick) {
      fleet.tick();
      if (faults && tick % 3 == 0) fleet.checkpoint_all();
    }
  };
  FleetController reference;
  serve(reference, false);
  FleetController fleet;
  serve(fleet, true);

  const TenantSession& tenant = fleet.tenant(0);
  EXPECT_EQ(tenant.steps(), total);
  EXPECT_EQ(tenant.schedule(), reference.tenant(0).schedule());
  EXPECT_EQ(tenant.lower_bounds(), reference.tenant(0).lower_bounds());
  EXPECT_EQ(tenant.upper_bounds(), reference.tenant(0).upper_bounds());
  ASSERT_GT(tenant.stats().recoveries, 0u);
  EXPECT_TRUE(tenant.stats().degraded_to_dense);

  const auto phase =
      static_cast<std::uint64_t>(rs::fleet::checkpoint_phase("gap", kEvery));
  bool off_cadence_seal = false;
  std::uint64_t recoveries = 0;
  for (const FleetEvent& e : fleet.events()) {
    if (e.kind == FleetEventKind::kCheckpointed &&
        (e.slot + phase) % kEvery != 0) {
      off_cadence_seal = true;
    }
    if (e.kind != FleetEventKind::kRecovered) continue;
    ++recoveries;
    const std::string prefix = "replayed ";
    ASSERT_EQ(e.detail.rfind(prefix, 0), 0u) << e.detail;
    const int replayed = std::stoi(e.detail.substr(prefix.size()));
    ASSERT_EQ(run_at.count(e.slot), 1u) << "slot " << e.slot;
    const int run = run_at.at(e.slot);
    EXPECT_LT(replayed, kEvery) << "slot " << e.slot;
    EXPECT_LE(replayed + run, kEvery + run - 1) << "slot " << e.slot;
  }
  EXPECT_TRUE(off_cadence_seal);
  EXPECT_EQ(recoveries, tenant.stats().recoveries);
}

TEST(FleetTenant, RleRunsMatchPerSlotOffers) {
  const std::vector<std::pair<double, int>> runs = {
      {3.0, 5}, {7.0, 3}, {1.0, 6}, {4.0, 1}};

  FleetController rle_fleet;
  FleetController slot_fleet;
  const std::size_t a = rle_fleet.add_tenant(basic_config("rle", 9));
  const std::size_t b = slot_fleet.add_tenant(basic_config("slots", 9));
  for (const auto& [lambda, count] : runs) {
    EXPECT_TRUE(rle_fleet.offer_run(a, lambda, count));
    for (int i = 0; i < count; ++i) EXPECT_TRUE(slot_fleet.offer(b, lambda));
  }
  // A window-0 tenant decides a whole run per tick (the closed-form
  // advance_repeated path); per-slot ingest needs one tick per slot.
  EXPECT_EQ(rle_fleet.run_until_drained(), runs.size());
  EXPECT_EQ(slot_fleet.run_until_drained(), 15u);

  EXPECT_EQ(rle_fleet.tenant(a).schedule(), slot_fleet.tenant(b).schedule());
  EXPECT_EQ(rle_fleet.tenant(a).lower_bounds(),
            slot_fleet.tenant(b).lower_bounds());
  EXPECT_EQ(rle_fleet.tenant(a).upper_bounds(),
            slot_fleet.tenant(b).upper_bounds());
  EXPECT_EQ(rle_fleet.tenant(a).steps(), 15u);
}

// ---------------------------------------------------------------------------
// The chaos drill (the PR's acceptance criterion)
// ---------------------------------------------------------------------------

struct DrillTenant {
  const char* name;
  int m;
  double beta;
  Backend backend;
  int window;
};

std::vector<DrillTenant> drill_roster() {
  return {
      {"alpha", 6, 2.0, Backend::kDense, 0},
      {"bravo", 10, 3.0, Backend::kPwl, 0},
      {"charlie", 16, 2.0, Backend::kAuto, 0},
      {"delta", 8, 1.0, Backend::kDense, 0},
      {"echo", 12, 2.0, Backend::kPwl, 0},
      {"foxtrot", 9, 3.0, Backend::kAuto, 0},
      {"golf", 7, 2.0, Backend::kAuto, 3},  // windowed lookahead tenant
  };
}

TEST(FleetChaosDrill, SurvivorsBitIdenticalAcrossBackendsAndThreads) {
  const int kSlots = 48;
  const FaultPlan plan{base_seed(), 7, PoisonKind::kNaN};
  SCOPED_TRACE("fault base seed " + std::to_string(plan.seed));

  const std::vector<DrillTenant> roster = drill_roster();
  std::vector<std::vector<double>> traces;
  for (std::size_t i = 0; i < roster.size(); ++i) {
    traces.push_back(
        integer_trace(roster[i].m, kSlots, 1000 + static_cast<int>(i)));
  }

  const auto feed_and_drain = [&](FleetController& fleet) {
    for (const DrillTenant& t : roster) {
      TenantConfig config = basic_config(t.name, t.m, t.beta);
      config.backend = t.backend;
      config.window = t.window;
      config.checkpoint_every = 8;
      fleet.add_tenant(config);
    }
    for (int slot = 0; slot < kSlots; ++slot) {
      for (std::size_t i = 0; i < roster.size(); ++i) {
        fleet.offer(i, traces[i][static_cast<std::size_t>(slot)]);
      }
    }
    fleet.finish_streams();
    fleet.run_until_drained();
  };

  // The undisturbed reference.
  FleetController reference;
  feed_and_drain(reference);
  for (std::size_t i = 0; i < roster.size(); ++i) {
    ASSERT_EQ(reference.tenant(i).steps(),
              static_cast<std::uint64_t>(kSlots));
  }

  // Predicted casualty set — pure functions of (plan, ordinal), computable
  // before the drill runs and exact under any rotating seed.
  std::vector<std::vector<std::uint64_t>> corrupted;
  std::vector<std::vector<std::uint64_t>> killed;
  std::size_t predicted_quarantines = 0;
  for (std::size_t i = 0; i < roster.size(); ++i) {
    corrupted.push_back(rs::scenario::corrupted_offers(
        plan, i, static_cast<std::uint64_t>(kSlots)));
    killed.push_back(rs::scenario::killed_attempts(
        plan, i, static_cast<std::uint64_t>(kSlots)));
    if (!corrupted.back().empty()) ++predicted_quarantines;
  }

  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    FleetOptions options;
    options.threads = threads;

    // Clean run at this thread count: tick partitioning must not change a
    // single decision.
    FleetController clean(options);
    feed_and_drain(clean);
    for (std::size_t i = 0; i < roster.size(); ++i) {
      ASSERT_EQ(clean.tenant(i).schedule(), reference.tenant(i).schedule())
          << roster[i].name;
    }

    // Disturbed run: the injector is live for both ingest and ticks.
    FleetController fleet(options);
    {
      const ScopedFaultInjection guard(rs::scenario::make_injector(plan));
      feed_and_drain(fleet);
    }

    for (std::size_t i = 0; i < roster.size(); ++i) {
      SCOPED_TRACE(roster[i].name);
      const TenantSession& tenant = fleet.tenant(i);
      const rs::fleet::TenantStats stats = tenant.stats();
      if (!corrupted[i].empty()) {
        // Poisoned in flight: quarantined at exactly the first corrupted
        // offer, before any slot was decided (ingest precedes ticks here).
        EXPECT_EQ(tenant.state(), TenantState::kQuarantined);
        EXPECT_NE(stats.quarantine_reason.find("invalid λ sample"),
                  std::string::npos)
            << stats.quarantine_reason;
        EXPECT_EQ(stats.offered, corrupted[i].front());
        EXPECT_EQ(tenant.steps(), 0u);
        EXPECT_TRUE(has_event(fleet.events(), i,
                              FleetEventKind::kQuarantined));
      } else {
        // Survivor: every kill was healed from the latest checkpoint and
        // the trajectory is bit-identical to the undisturbed run.
        EXPECT_NE(tenant.state(), TenantState::kQuarantined)
            << stats.quarantine_reason;
        EXPECT_EQ(tenant.steps(), static_cast<std::uint64_t>(kSlots));
        ASSERT_EQ(tenant.schedule(), reference.tenant(i).schedule());
        ASSERT_EQ(tenant.lower_bounds(), reference.tenant(i).lower_bounds());
        ASSERT_EQ(tenant.upper_bounds(), reference.tenant(i).upper_bounds());
        EXPECT_EQ(stats.recoveries > 0, !killed[i].empty());
        if (!killed[i].empty()) {
          EXPECT_TRUE(has_event(fleet.events(), i,
                                FleetEventKind::kRecovered));
        }
      }
    }
    EXPECT_EQ(fleet.stats().quarantined, predicted_quarantines);
  }
}

// ---------------------------------------------------------------------------
// The degradation ladder's far end
// ---------------------------------------------------------------------------

TEST(FleetLadder, PersistentFailuresDegradeThenQuarantine) {
  FleetController fleet;
  TenantConfig auto_config = basic_config("auto", 8);
  auto_config.backend = Backend::kAuto;
  auto_config.degrade_after = 1;
  auto_config.max_recoveries = 2;
  TenantConfig pwl_config = basic_config("pwl", 8);
  pwl_config.backend = Backend::kPwl;
  pwl_config.degrade_after = 1;
  pwl_config.max_recoveries = 2;
  const std::size_t a = fleet.add_tenant(auto_config);
  const std::size_t p = fleet.add_tenant(pwl_config);
  for (double lambda : integer_trace(8, 6, 5)) {
    fleet.offer(a, lambda);
    fleet.offer(p, lambda);
  }

  {  // Period 1: every slot attempt fails, so the ladder runs to its end.
    const ScopedFaultInjection guard(
        rs::scenario::make_injector(FaultPlan{base_seed(), 1,
                                              PoisonKind::kNaN}));
    fleet.run_until_drained();
  }

  const std::vector<FleetEvent> events = fleet.events();
  for (std::size_t i : {a, p}) {
    const TenantSession& tenant = fleet.tenant(i);
    EXPECT_EQ(tenant.state(), TenantState::kQuarantined);
    EXPECT_NE(
        tenant.stats().quarantine_reason.find("backend failure persisted"),
        std::string::npos)
        << tenant.stats().quarantine_reason;
    EXPECT_EQ(tenant.stats().recoveries, 2u);
    EXPECT_TRUE(has_event(events, i, FleetEventKind::kRecovered));
    EXPECT_TRUE(has_event(events, i, FleetEventKind::kQuarantined));
  }
  // The kAuto tenant took the dense rung on the way down; the kPwl tenant
  // has no dense rung (its tracker is pinned) and must not pretend to.
  EXPECT_TRUE(fleet.tenant(a).stats().degraded_to_dense);
  EXPECT_TRUE(has_event(events, a, FleetEventKind::kDegradedToDense));
  EXPECT_FALSE(fleet.tenant(p).stats().degraded_to_dense);
  EXPECT_FALSE(has_event(events, p, FleetEventKind::kDegradedToDense));
}

TEST(FleetLadder, DenseRungKeepsWindowedTenantsBitIdentical) {
  // Every tenant that can degrade takes the dense rung on its first failed
  // attempt, windowed ones included, and then stays bit-identical to its
  // undisturbed run: integer slot costs make dense and PWL agree exactly.
  const int kSlots = 40;
  struct Rung {
    const char* name;
    Backend backend;
    int window;
  };
  const std::vector<Rung> rungs = {{"plain", Backend::kAuto, 0},
                                   {"windowed", Backend::kAuto, 2},
                                   {"windowed-dense", Backend::kDense, 3}};
  const std::vector<double> trace = integer_trace(8, kSlots, 77);
  const auto feed_and_drain = [&](FleetController& fleet, bool faults) {
    for (const Rung& r : rungs) {
      TenantConfig config = basic_config(r.name, 8);
      config.backend = r.backend;
      config.window = r.window;
      config.checkpoint_every = 5;
      config.degrade_after = 1;
      config.max_recoveries = 30;  // a 1-in-3 fault never exhausts this
      fleet.add_tenant(config);
    }
    // Offers go in before the injector, so only tick attempts can fail.
    for (double lambda : trace) {
      for (std::size_t i = 0; i < rungs.size(); ++i) fleet.offer(i, lambda);
    }
    fleet.finish_streams();
    std::optional<ScopedFaultInjection> guard;
    if (faults) {
      guard.emplace(rs::scenario::make_injector(
          FaultPlan{base_seed(), 3, PoisonKind::kNaN}));
    }
    fleet.run_until_drained();
  };

  FleetController reference;
  feed_and_drain(reference, false);
  FleetController fleet;
  feed_and_drain(fleet, true);
  const std::vector<FleetEvent> events = fleet.events();
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    SCOPED_TRACE(rungs[i].name);
    const TenantSession& tenant = fleet.tenant(i);
    ASSERT_GT(tenant.stats().recoveries, 0u);
    EXPECT_EQ(tenant.state(), TenantState::kDegraded);
    EXPECT_TRUE(tenant.stats().degraded_to_dense);
    EXPECT_TRUE(has_event(events, i, FleetEventKind::kDegradedToDense));
    EXPECT_EQ(tenant.steps(), static_cast<std::uint64_t>(kSlots));
    EXPECT_EQ(tenant.schedule(), reference.tenant(i).schedule());
    EXPECT_EQ(tenant.lower_bounds(), reference.tenant(i).lower_bounds());
    EXPECT_EQ(tenant.upper_bounds(), reference.tenant(i).upper_bounds());
  }
}

// ---------------------------------------------------------------------------
// Deadline pressure
// ---------------------------------------------------------------------------

TEST(FleetDeadline, TinyBudgetDefersButDrainsIdentically) {
  const int kSlots = 12;
  const int kTenants = 4;
  std::vector<std::vector<double>> traces;
  for (int i = 0; i < kTenants; ++i) {
    traces.push_back(integer_trace(8, kSlots, 300 + i));
  }
  const auto feed = [&](FleetController& fleet) {
    for (int i = 0; i < kTenants; ++i) {
      fleet.add_tenant(basic_config("tenant-" + std::to_string(i), 8));
    }
    for (int slot = 0; slot < kSlots; ++slot) {
      for (int i = 0; i < kTenants; ++i) {
        fleet.offer(static_cast<std::size_t>(i),
                    traces[static_cast<std::size_t>(i)]
                          [static_cast<std::size_t>(slot)]);
      }
    }
  };

  FleetController reference;
  feed(reference);
  reference.run_until_drained();

  FleetOptions options;
  options.tick_budget_seconds = 1e-12;  // everything but the first defers
  FleetController fleet(options);
  feed(fleet);
  const rs::fleet::TickReport first = fleet.tick();
  EXPECT_EQ(first.due, static_cast<std::size_t>(kTenants));
  EXPECT_GE(first.advanced_tenants, 1u);  // the progress guarantee
  EXPECT_GT(first.deferred, 0u);
  fleet.run_until_drained();

  // Deferral changes when a slot is decided, never what.
  for (int i = 0; i < kTenants; ++i) {
    const std::size_t ordinal = static_cast<std::size_t>(i);
    EXPECT_EQ(fleet.tenant(ordinal).schedule(),
              reference.tenant(ordinal).schedule());
  }
  EXPECT_GT(fleet.stats().deferrals, 0u);
  bool any_deferred_event = false;
  for (const FleetEvent& e : fleet.events()) {
    if (e.kind == FleetEventKind::kDeferred) any_deferred_event = true;
  }
  EXPECT_TRUE(any_deferred_event);
}

// ---------------------------------------------------------------------------
// Process restart (persistent store)
// ---------------------------------------------------------------------------

TEST(FleetRestart, ResumesFromDiskAndContinuesBitIdentically) {
  const int kBefore = 10;
  const int kAfter = 8;
  const std::vector<double> trace = integer_trace(8, kBefore + kAfter, 42);
  TenantConfig config = basic_config("restart", 8);
  config.checkpoint_every = 4;

  // Uninterrupted reference over the whole stream.
  FleetController reference;
  reference.add_tenant(config);
  for (double lambda : trace) reference.offer(0, lambda);
  reference.run_until_drained();
  const std::vector<int> full_schedule = reference.tenant(0).schedule();

  const std::string dir = ::testing::TempDir() + "/rs_fleet_restart";
  std::filesystem::remove_all(dir);
  {  // First process: serve the head of the stream, then "crash".
    FleetOptions options;
    options.checkpoint_dir = dir;
    FleetController fleet(options);
    fleet.add_tenant(config);
    for (int t = 0; t < kBefore; ++t) {
      fleet.offer(0, trace[static_cast<std::size_t>(t)]);
    }
    fleet.run_until_drained();
    fleet.checkpoint_all();  // flush the off-cadence tail before the crash
  }

  // Second process over the same directory: the tenant resumes at slot 10
  // and serves the rest bit-identically to the uninterrupted run.
  FleetOptions options;
  options.checkpoint_dir = dir;
  FleetController fleet(options);
  fleet.add_tenant(config);
  EXPECT_EQ(fleet.tenant(0).steps(), static_cast<std::uint64_t>(kBefore));
  EXPECT_TRUE(has_event(fleet.events(), 0, FleetEventKind::kResumed));
  for (int t = kBefore; t < kBefore + kAfter; ++t) {
    fleet.offer(0, trace[static_cast<std::size_t>(t)]);
  }
  fleet.run_until_drained();
  const std::vector<int> resumed_tail = fleet.tenant(0).schedule();
  ASSERT_EQ(resumed_tail.size(), static_cast<std::size_t>(kAfter));
  for (int t = 0; t < kAfter; ++t) {
    EXPECT_EQ(resumed_tail[static_cast<std::size_t>(t)],
              full_schedule[static_cast<std::size_t>(kBefore + t)])
        << "slot " << kBefore + t;
  }
}

// ---------------------------------------------------------------------------
// Concurrent snapshot-while-advancing (never a torn checkpoint)
// ---------------------------------------------------------------------------

TEST(FleetConcurrency, SnapshotDuringAdvanceIsNeverTorn) {
  const int kSlots = 60;
  const int kM = 8;
  const double kBeta = 2.0;
  const std::vector<double> trace = integer_trace(kM, kSlots, 99);
  TenantConfig config = basic_config("hammered", kM, kBeta);

  // Reference trajectory (single-threaded, no snapshots).
  FleetController reference;
  reference.add_tenant(config);
  for (double lambda : trace) reference.offer(0, lambda);
  reference.run_until_drained();
  const std::vector<int> ref_schedule = reference.tenant(0).schedule();

  for (std::size_t threads : {std::size_t{1}, std::size_t{2},
                              std::size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    FleetOptions options;
    options.threads = threads;
    FleetController fleet(options);
    fleet.add_tenant(config);
    // Siblings keep the engine's dispatch genuinely concurrent with the
    // snapshot hammer below.
    fleet.add_tenant(basic_config("sibling-a", 6));
    fleet.add_tenant(basic_config("sibling-b", 10));
    for (double lambda : trace) fleet.offer(0, lambda);
    for (double lambda : integer_trace(6, kSlots, 100)) fleet.offer(1, lambda);
    for (double lambda : integer_trace(10, kSlots, 101)) fleet.offer(2, lambda);

    std::atomic<bool> done{false};
    std::vector<std::vector<std::uint8_t>> captured;
    // do-while: at least one capture even if this thread is only scheduled
    // after the drain finishes (single-core boxes).
    std::thread hammer([&] {
      do {
        captured.push_back(fleet.tenant(0).snapshot_bytes());
        std::this_thread::yield();
      } while (!done.load(std::memory_order_acquire) &&
               captured.size() < 4096);
    });
    // Tick manually with yields so the hammer interleaves with the steps
    // even without a spare core.
    for (int t = 0; t < kSlots; ++t) {
      fleet.tick();
      std::this_thread::yield();
    }
    EXPECT_EQ(fleet.run_until_drained(), 0u);
    done.store(true, std::memory_order_release);
    hammer.join();
    ASSERT_FALSE(captured.empty());

    // Every captured snapshot must decode cleanly (never torn) to a commit
    // boundary, and restoring it + replaying the remaining stream must land
    // exactly on the reference trajectory (pre- or post-state of whatever
    // step it raced).  Snapshots at the same boundary are byte-identical,
    // so validating one per distinct slot count covers them all.
    std::map<std::uint64_t, std::vector<std::uint8_t>> by_steps;
    for (std::vector<std::uint8_t>& bytes : captured) {
      const TenantCheckpoint ck = TenantSession::decode_checkpoint(bytes);
      ASSERT_LE(ck.steps, static_cast<std::uint64_t>(kSlots));
      ASSERT_FALSE(ck.degraded);
      const auto [it, inserted] = by_steps.emplace(ck.steps, bytes);
      if (!inserted) {
        ASSERT_EQ(it->second, bytes);
      }
    }
    for (const auto& [steps, bytes] : by_steps) {
      const TenantCheckpoint ck = TenantSession::decode_checkpoint(bytes);
      rs::online::Lcp session(config.backend);
      session.restore(rs::online::OnlineContext{kM, kBeta}, ck.session);
      for (std::uint64_t t = steps; t < static_cast<std::uint64_t>(kSlots);
           ++t) {
        const int x = session.decide(
            config.cost_of(trace[static_cast<std::size_t>(t)]), {});
        ASSERT_EQ(x, ref_schedule[static_cast<std::size_t>(t)])
            << "snapshot at slot " << steps << ", replayed slot " << t;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Event log bounds
// ---------------------------------------------------------------------------

TEST(FleetController, EventLogIsBoundedAndCountsDrops) {
  FleetOptions options;
  options.max_events = 1;
  FleetController fleet(options);
  TenantConfig config = basic_config("chatty", 6);
  config.checkpoint_every = 1;  // one kCheckpointed event per slot
  fleet.add_tenant(config);
  for (double lambda : integer_trace(6, 8, 8)) fleet.offer(0, lambda);
  fleet.run_until_drained();
  const std::vector<FleetEvent> events = fleet.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_GT(fleet.dropped_events(), 0u);
  // The log keeps the newest event: the last slot's checkpoint.
  EXPECT_EQ(events.back().kind, FleetEventKind::kCheckpointed);
  EXPECT_EQ(events.back().slot, 8u);
}

TEST(FleetTenant, EventBufferKeepsTheNewestPastItsCap) {
  TenantConfig config = basic_config("chatty", 6);
  config.checkpoint_every = 1;
  TenantSession tenant(config, 0);
  CheckpointStore store;
  const std::uint64_t slots = 300;  // past the tenant buffer cap
  for (double lambda : integer_trace(6, static_cast<int>(slots), 9)) {
    ASSERT_TRUE(tenant.offer(lambda));
    ASSERT_EQ(tenant.step(store), 1);
  }
  const std::vector<FleetEvent> events = tenant.drain_events();
  const std::uint64_t dropped = tenant.take_dropped_events();
  ASSERT_FALSE(events.empty());
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(events.size() + dropped, slots);
  // The survivors are the newest checkpoints, in order, ending at the last.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].kind, FleetEventKind::kCheckpointed);
    EXPECT_EQ(events[i].slot, dropped + i + 1);
  }
  EXPECT_EQ(events.back().slot, slots);
}

}  // namespace
