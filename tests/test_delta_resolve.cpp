// Incremental re-solve property suite (DESIGN.md §12): delta sessions are
// bit-identical to from-scratch solves on every backend and generator
// family, probes restore state bitwise, the rewind buffer interacts
// correctly with eviction and checkpoints, fleet what-if probes leave the
// live session untouched, and the serving-layer plumbing (priorities,
// shared form cache, engine kDeltaResolve, warm receding horizons) holds
// its contracts.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/checkpoint_store.hpp"
#include "core/cost_function.hpp"
#include "engine/solver_engine.hpp"
#include "fleet/fleet_controller.hpp"
#include "fleet/form_cache.hpp"
#include "fleet/tenant.hpp"
#include "offline/delta_session.hpp"
#include "offline/work_function.hpp"
#include "online/receding_horizon.hpp"
#include "scenario/fault_plan.hpp"
#include "scenario/trace_zoo.hpp"
#include "util/fault_injection.hpp"
#include "util/rng.hpp"
#include "workload/random_instance.hpp"

#include "counting_cost.hpp"
#include "mixed_form_instance.hpp"

namespace {

using rs::core::CostPtr;
using rs::core::Problem;
using rs::fleet::SlotFormCache;
using rs::offline::DpDeltaSession;
using rs::offline::OfflineResult;
using rs::offline::WorkFunctionTracker;
using rs::workload::InstanceFamily;
using Backend = WorkFunctionTracker::Backend;

const std::vector<Backend>& all_backends() {
  static const std::vector<Backend> backends = {Backend::kDense, Backend::kPwl,
                                                Backend::kAuto};
  return backends;
}

std::string backend_name(Backend backend) {
  switch (backend) {
    case Backend::kDense:
      return "dense";
    case Backend::kPwl:
      return "pwl";
    case Backend::kAuto:
      return "auto";
  }
  return "?";
}

std::vector<CostPtr> slot_costs(const Problem& p) {
  std::vector<CostPtr> costs;
  costs.reserve(static_cast<std::size_t>(p.horizon()));
  for (int t = 1; t <= p.horizon(); ++t) costs.push_back(p.f_ptr(t));
  return costs;
}

// Bitwise comparison of a live session against a from-scratch solve of the
// same (edited) instance on the same backend.
void expect_matches_fresh(DpDeltaSession& session,
                          const std::vector<CostPtr>& costs,
                          const std::string& label) {
  Problem edited(session.max_servers(), session.beta(), costs);
  DpDeltaSession fresh(edited, session.backend());
  EXPECT_EQ(session.cost(), fresh.cost()) << label;
  EXPECT_EQ(session.bounds().lower, fresh.bounds().lower) << label;
  EXPECT_EQ(session.bounds().upper, fresh.bounds().upper) << label;
  EXPECT_EQ(session.result().schedule, fresh.result().schedule) << label;
}

// ---------------------------------------------------------------------------
// DpDeltaSession: bit-identity across families × backends
// ---------------------------------------------------------------------------

TEST(DeltaSession, SingleSlotEditsMatchFromScratchEverywhere) {
  const int T = 36;
  const int m = 16;
  const double beta = 1.7;
  for (InstanceFamily family : rs::workload::all_instance_families()) {
    for (Backend backend : all_backends()) {
      const std::string label =
          rs::workload::family_name(family) + "/" + backend_name(backend);
      rs::util::Rng rng(0xD31AD31Aull ^ static_cast<std::uint64_t>(family) * 31u ^
                        static_cast<std::uint64_t>(backend));
      const Problem base = rs::workload::random_instance(rng, family, T, m, beta);
      const Problem donor =
          rs::workload::random_instance(rng, family, T, m, beta);
      std::vector<CostPtr> costs = slot_costs(base);
      DpDeltaSession session(base, backend);
      for (int edit = 0; edit < 6; ++edit) {
        const int slot = rng.uniform_int(1, T);
        CostPtr replacement = donor.f_ptr(rng.uniform_int(1, T));
        costs[static_cast<std::size_t>(slot - 1)] = replacement;
        DpDeltaSession::DeltaStats stats;
        session.resolve_delta(slot, replacement, &stats);
        EXPECT_GE(stats.slots_repaired, 0) << label;
        expect_matches_fresh(session, costs,
                             label + " edit " + std::to_string(edit));
      }
    }
  }
}

TEST(DeltaSession, MultiSlotEditBatchesMatchFromScratch) {
  const int T = 48;
  const int m = 12;
  const double beta = 2.0;
  rs::util::Rng rng(0xBA7C4ull);
  const Problem base =
      rs::workload::random_instance(rng, InstanceFamily::kQuadratic, T, m, beta);
  const Problem donor =
      rs::workload::random_instance(rng, InstanceFamily::kAffineAbs, T, m, beta);
  std::vector<CostPtr> costs = slot_costs(base);
  DpDeltaSession session(base, Backend::kAuto);
  for (int round = 0; round < 4; ++round) {
    // A batch of edits, compared only once at the end: the schedule is
    // materialized lazily so intermediate edits stay O(repair).
    for (int k = 0; k < 3; ++k) {
      const int slot = rng.uniform_int(1, T);
      CostPtr replacement = donor.f_ptr(rng.uniform_int(1, T));
      costs[static_cast<std::size_t>(slot - 1)] = replacement;
      session.resolve_delta(slot, replacement);
    }
    expect_matches_fresh(session, costs, "round " + std::to_string(round));
  }
}

TEST(DeltaSession, ProbeAnswersEditAndRestoresSessionBitwise) {
  const int T = 40;
  const int m = 10;
  const double beta = 1.5;
  rs::util::Rng rng(0x9E37ull);
  const Problem base = rs::workload::random_instance(
      rng, InstanceFamily::kFlatRegions, T, m, beta);
  const Problem donor =
      rs::workload::random_instance(rng, InstanceFamily::kQuadratic, T, m, beta);
  const std::vector<CostPtr> costs = slot_costs(base);

  DpDeltaSession session(base, Backend::kAuto);
  const double cost_before = session.cost();
  const std::vector<int> lower_before = session.bounds().lower;
  const std::vector<int> upper_before = session.bounds().upper;
  const rs::core::Schedule schedule_before = session.result().schedule;

  for (int probe = 0; probe < 8; ++probe) {
    const int slot = rng.uniform_int(1, T);
    CostPtr replacement = donor.f_ptr(rng.uniform_int(1, T));

    std::vector<CostPtr> edited = costs;
    edited[static_cast<std::size_t>(slot - 1)] = replacement;
    DpDeltaSession fresh(Problem(m, beta, edited), Backend::kAuto);

    DpDeltaSession::DeltaStats stats;
    OfflineResult answer = session.probe_delta(slot, replacement, &stats);
    EXPECT_EQ(answer.cost, fresh.cost()) << "probe " << probe;
    EXPECT_EQ(answer.schedule, fresh.result().schedule) << "probe " << probe;

    // The live session is restored bitwise after every probe.
    EXPECT_EQ(session.cost(), cost_before) << "probe " << probe;
    EXPECT_EQ(session.bounds().lower, lower_before) << "probe " << probe;
    EXPECT_EQ(session.bounds().upper, upper_before) << "probe " << probe;
    EXPECT_EQ(session.result().schedule, schedule_before) << "probe " << probe;
  }
}

TEST(DeltaSession, BackendTrajectoryFlipFallsBackToFullReplay) {
  const int T = 20;
  const int m = 64;  // compact-PWL budget is m/8 = 8 breakpoints
  const double beta = 2.0;
  rs::util::Rng rng(0xF11Full);
  const Problem base =
      rs::workload::random_instance(rng, InstanceFamily::kAffineAbs, T, m, beta);
  std::vector<CostPtr> costs = slot_costs(base);

  DpDeltaSession session(base, Backend::kAuto);

  // A dense random convex table almost surely exceeds the compact budget,
  // flipping the kAuto trajectory from PWL to dense at the edited slot.
  CostPtr heavy = rs::workload::random_instance(
                      rng, InstanceFamily::kConvexTable, 1, m, beta)
                      .f_ptr(1);
  const int slot = T / 2;
  costs[static_cast<std::size_t>(slot - 1)] = heavy;
  DpDeltaSession::DeltaStats stats;

  // A probe of the flip answers from a fresh session and writes nothing.
  const double cost_before = session.cost();
  const rs::offline::BoundTrajectory bounds_before = session.bounds();
  const OfflineResult result_before = session.result();
  const DpDeltaSession& reader = session;
  const OfflineResult probed = reader.probe_delta(slot, heavy, &stats);
  EXPECT_TRUE(stats.full_replay);
  DpDeltaSession fresh(Problem(m, beta, costs), Backend::kAuto);
  EXPECT_EQ(probed.cost, fresh.cost());
  EXPECT_EQ(probed.schedule, fresh.result().schedule);
  EXPECT_EQ(session.cost(), cost_before);
  EXPECT_EQ(session.bounds().lower, bounds_before.lower);
  EXPECT_EQ(session.bounds().upper, bounds_before.upper);
  EXPECT_EQ(session.result().cost, result_before.cost);
  EXPECT_EQ(session.result().schedule, result_before.schedule);

  stats = {};
  session.resolve_delta(slot, heavy, &stats);
  EXPECT_TRUE(stats.full_replay);
  expect_matches_fresh(session, costs, "pwl->dense flip");

  // ... and editing the offending slot back restores the PWL trajectory,
  // again via full replay, again bit-identical.
  CostPtr light = base.f_ptr(slot);
  costs[static_cast<std::size_t>(slot - 1)] = light;
  session.resolve_delta(slot, light, &stats);
  EXPECT_TRUE(stats.full_replay);
  expect_matches_fresh(session, costs, "dense->pwl flip");
}

TEST(DeltaSession, MixedFormEditsMatchFromScratch) {
  // A kAuto session picks its labels for the whole instance: PWL when
  // every slot has a compact form, else dense from slot 1.  Start from a
  // mixed instance cut down to one opaque M/M/1 slot among compact ones,
  // so each edit below either may flip that choice (a re-solve) or cannot
  // (a repair); either way the session must equal a fresh solve bitwise.
  const Problem mixed = rs::test_support::mixed_form_instance(21);
  const int m = mixed.max_servers();
  const double beta = mixed.beta();
  const auto compact = [m](const CostPtr& f) {
    return f->as_convex_pwl(m, rs::core::compact_pwl_budget_for(m))
        .has_value();
  };
  std::vector<CostPtr> costs = slot_costs(mixed);
  int opaque = 1;
  while (compact(costs[static_cast<std::size_t>(opaque - 1)])) ++opaque;
  ASSERT_GT(opaque, 2);
  const CostPtr opaque_cost = mixed.f_ptr(opaque);
  const CostPtr other_opaque = mixed.f_ptr(opaque + 1);
  ASSERT_FALSE(compact(other_opaque));
  for (std::size_t t = static_cast<std::size_t>(opaque); t < costs.size();
       ++t) {
    costs[t] = costs[t % static_cast<std::size_t>(opaque - 1)];
  }
  const auto runs_pwl = [&]() {
    return rs::offline::track_slots(Problem(m, beta, costs), Backend::kAuto,
                                    nullptr)
        .using_pwl();
  };
  ASSERT_FALSE(runs_pwl());

  DpDeltaSession session(Problem(m, beta, costs), Backend::kAuto);
  // Probes, then applies, the edit f_slot := cost; `full_replay` is the
  // expected choice between re-solve and repair.
  const auto edit = [&](int slot, CostPtr cost, bool full_replay,
                        const std::string& label) {
    costs[static_cast<std::size_t>(slot - 1)] = cost;
    DpDeltaSession fresh(Problem(m, beta, costs), Backend::kAuto);
    DpDeltaSession::DeltaStats stats;
    const OfflineResult probed =
        std::as_const(session).probe_delta(slot, cost, &stats);
    EXPECT_EQ(stats.full_replay, full_replay) << label;
    EXPECT_EQ(probed.cost, fresh.cost()) << label;
    EXPECT_EQ(probed.schedule, fresh.result().schedule) << label;
    stats = {};
    session.resolve_delta(slot, cost, &stats);
    EXPECT_EQ(stats.full_replay, full_replay) << label;
    expect_matches_fresh(session, costs, label);
  };

  // Dense base: the only opaque slot gets a compact cost, and the fresh
  // solve runs PWL.
  edit(opaque, costs[0], true, "opaque -> compact on a dense base");
  EXPECT_TRUE(runs_pwl());
  // PWL base: a compact slot gets an opaque cost, back to dense labels.
  edit(2, opaque_cost, true, "compact -> opaque on a PWL base");
  EXPECT_FALSE(runs_pwl());
  // Dense base: edits that give no opaque slot a compact form cannot flip
  // the choice, so they repair.
  edit(2, other_opaque, false, "opaque -> opaque on a dense base");
  edit(1, costs[3], false, "compact -> compact on a dense base");
  edit(opaque, opaque_cost, false, "compact -> opaque on a dense base");
  EXPECT_FALSE(runs_pwl());
  // Two opaque slots: giving one a compact form leaves the other opaque,
  // so the fresh solve stays dense and the edit repairs.
  edit(2, costs[0], false, "opaque -> compact, one opaque slot left");
  EXPECT_FALSE(runs_pwl());
}

TEST(DeltaSession, ValidatesEdits) {
  rs::util::Rng rng(0x77ull);
  const Problem base =
      rs::workload::random_instance(rng, InstanceFamily::kQuadratic, 8, 6, 1.5);
  DpDeltaSession session(base);
  EXPECT_THROW(session.resolve_delta(0, base.f_ptr(1)), std::invalid_argument);
  EXPECT_THROW(session.resolve_delta(9, base.f_ptr(1)), std::invalid_argument);
  EXPECT_THROW(session.resolve_delta(3, nullptr), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// WorkFunctionTracker: rewind eviction and checkpoint interaction
// ---------------------------------------------------------------------------

TEST(RewindBuffer, EvictionMovesTheRepairWindowForward) {
  rs::util::Rng rng(0xE71Cull);
  const int m = 8;
  const Problem p = rs::workload::random_instance(
      rng, InstanceFamily::kAffineAbs, 20, m, 2.0);

  WorkFunctionTracker tracker(m, 2.0);
  tracker.enable_rewind(8);
  for (int t = 1; t <= 20; ++t) tracker.advance(*p.f_ptr(t));

  // Capacity 8 with 20 advances: slots 1..12 were evicted.
  EXPECT_EQ(tracker.rewind_begin(), 13);
  EXPECT_FALSE(tracker.rewind_covers(12));
  EXPECT_TRUE(tracker.rewind_covers(13));
  EXPECT_TRUE(tracker.rewind_covers(20));
  EXPECT_FALSE(tracker.rewind_covers(21));
  EXPECT_THROW(tracker.repair_from(12, *p.f_ptr(12)), std::out_of_range);

  // Repairing a covered slot with its own recorded cost reconverges
  // immediately: the tracker is bitwise unchanged.
  const int xl = tracker.x_lower();
  const int xu = tracker.x_upper();
  const auto repair = tracker.repair_from(15, *p.f_ptr(15));
  EXPECT_TRUE(repair.early_exit);
  EXPECT_EQ(tracker.x_lower(), xl);
  EXPECT_EQ(tracker.x_upper(), xu);
}

TEST(RewindBuffer, CheckpointRestoreThenRepairMatchesUninterrupted) {
  rs::util::Rng rng(0xC4E0ull);
  const int m = 10;
  const Problem p = rs::workload::random_instance(
      rng, InstanceFamily::kQuadratic, 24, m, 1.8);
  const CostPtr edit = rs::workload::random_instance(
                           rng, InstanceFamily::kQuadratic, 1, m, 1.8)
                           .f_ptr(1);

  // Uninterrupted run with a full-horizon rewind buffer.
  WorkFunctionTracker full(m, 1.8);
  full.enable_rewind(24);
  for (int t = 1; t <= 12; ++t) full.advance(*p.f_ptr(t));

  // Kill-and-resume at slot 12: rewind state is deliberately not part of
  // the checkpoint wire format, so the restored tracker re-enables it and
  // its window starts at the resume point.
  WorkFunctionTracker resumed = WorkFunctionTracker::restore(full.snapshot());
  EXPECT_FALSE(resumed.rewind_enabled());
  resumed.enable_rewind(24);
  EXPECT_EQ(resumed.rewind_begin(), 13);

  for (int t = 13; t <= 24; ++t) {
    full.advance(*p.f_ptr(t));
    resumed.advance(*p.f_ptr(t));
  }

  // A repair inside the common window produces identical results on both.
  const auto repair_full = full.repair_from(18, *edit);
  const auto repair_resumed = resumed.repair_from(18, *edit);
  EXPECT_EQ(repair_full.lower, repair_resumed.lower);
  EXPECT_EQ(repair_full.upper, repair_resumed.upper);
  EXPECT_EQ(repair_full.early_exit, repair_resumed.early_exit);
  EXPECT_EQ(full.x_lower(), resumed.x_lower());
  EXPECT_EQ(full.x_upper(), resumed.x_upper());
  for (int x = 0; x <= m; ++x) {
    EXPECT_EQ(full.chat_lower(x), resumed.chat_lower(x)) << "x=" << x;
  }
}

// Everything a probe may not change: the live labels and corridor (the
// snapshot) and the rewind window.
struct TrackerView {
  std::vector<std::uint8_t> snapshot;
  int rewind_begin = 0;
  bool operator==(const TrackerView&) const = default;
};

TrackerView view_of(const WorkFunctionTracker& tracker) {
  return {tracker.snapshot(), tracker.rewind_begin()};
}

void expect_same_repair(const WorkFunctionTracker::Repair& probe,
                        const WorkFunctionTracker::Repair& repair,
                        const WorkFunctionTracker& repaired,
                        const std::string& label) {
  EXPECT_EQ(probe.first_slot, repair.first_slot) << label;
  EXPECT_EQ(probe.lower, repair.lower) << label;
  EXPECT_EQ(probe.upper, repair.upper) << label;
  EXPECT_EQ(probe.slots_replayed, repair.slots_replayed) << label;
  EXPECT_EQ(probe.early_exit, repair.early_exit) << label;
  EXPECT_EQ(probe.x_lower, repair.x_lower) << label;
  EXPECT_EQ(probe.x_upper, repair.x_upper) << label;
  EXPECT_EQ(probe.chat_min, repair.chat_min) << label;
  // The reported newest corridor is the repaired tracker's.
  EXPECT_EQ(probe.x_lower, repaired.x_lower()) << label;
  EXPECT_EQ(probe.x_upper, repaired.x_upper()) << label;
  EXPECT_EQ(probe.chat_min, repaired.chat_min()) << label;
}

TEST(RewindBuffer, ProbeMatchesCloneRepairAndLeavesTrackerUntouched) {
  const int m = 10;
  const double beta = 1.8;
  const CostPtr poison = std::make_shared<rs::core::AffineAbsCost>(
      1.0, 2.0, std::numeric_limits<double>::quiet_NaN());
  for (Backend backend : all_backends()) {
    const std::string name = backend_name(backend);
    rs::util::Rng rng(0x9B0Bull ^ static_cast<std::uint64_t>(backend));
    const Problem runs = rs::workload::random_instance(
        rng, InstanceFamily::kAffineAbs, 14, m, beta);
    const Problem donor = rs::workload::random_instance(
        rng, InstanceFamily::kAffineAbs, 6, m, beta);

    // 14 RLE runs of 1..4 slots into an 8-entry buffer: the window starts
    // after an eviction and most edits split a run.
    WorkFunctionTracker tracker(m, beta, backend);
    tracker.enable_rewind(8);
    std::vector<CostPtr> fed;  // fed[t-1] = f_t
    for (int run = 1; run <= 14; ++run) {
      const int length = rng.uniform_int(1, 4);
      std::vector<int> xl(static_cast<std::size_t>(length));
      std::vector<int> xu(static_cast<std::size_t>(length));
      tracker.advance_repeated(*runs.f_ptr(run), length, xl, xu);
      fed.insert(fed.end(), static_cast<std::size_t>(length), runs.f_ptr(run));
    }
    ASSERT_GT(tracker.rewind_begin(), 1) << name;
    const TrackerView before = view_of(tracker);

    int split_runs = 0;
    int early_exits = 0;
    for (int slot = tracker.rewind_begin(); slot <= tracker.tau(); ++slot) {
      // The slot's own cost (reconverges at once) and two donor edits.
      for (int k = 0; k <= 2; ++k) {
        const CostPtr edit = k == 0 ? fed[static_cast<std::size_t>(slot - 1)]
                                    : donor.f_ptr(rng.uniform_int(1, 6));
        const std::string label =
            name + " slot " + std::to_string(slot) + " edit " +
            std::to_string(k);
        const WorkFunctionTracker::Repair probe =
            tracker.probe_from(slot, *edit);
        EXPECT_TRUE(view_of(tracker) == before) << label;
        WorkFunctionTracker repaired = tracker.clone();
        const WorkFunctionTracker::Repair repair =
            repaired.repair_from(slot, *edit);
        expect_same_repair(probe, repair, repaired, label);
        // Replayed slots beyond the reported ones: a split run's prefix.
        if (probe.slots_replayed > static_cast<int>(probe.lower.size())) {
          ++split_runs;
        }
        if (probe.early_exit) ++early_exits;
      }
      // A NaN edit throws once the replay reaches it — after the prefix of
      // a split run — and leaves the tracker as it was.
      EXPECT_THROW(tracker.probe_from(slot, *poison), std::invalid_argument)
          << name << " slot " << slot;
      EXPECT_TRUE(view_of(tracker) == before) << name << " slot " << slot;
    }
    EXPECT_GT(split_runs, 0) << name;
    EXPECT_GT(early_exits, 0) << name;
    EXPECT_THROW(tracker.probe_from(tracker.rewind_begin() - 1, *poison),
                 std::out_of_range)
        << name;
    EXPECT_THROW(tracker.probe_from(tracker.tau() + 1, *poison),
                 std::out_of_range)
        << name;
    EXPECT_TRUE(view_of(tracker) == before) << name;
  }
}

// ---------------------------------------------------------------------------
// Fleet: what-if probes, priorities, shared form cache
// ---------------------------------------------------------------------------

// Integer-valued slot costs (slope ∈ {1,2}, center = λ), shared with
// test_fleet.cpp: exact in double on both backends.
std::function<CostPtr(double)> integer_cost() {
  return [](double lambda) -> CostPtr {
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

rs::fleet::TenantConfig probe_config(std::string name, int m) {
  rs::fleet::TenantConfig config;
  config.name = std::move(name);
  config.m = m;
  config.beta = 2.0;
  config.cost_of = integer_cost();
  config.what_if_slots = 64;
  return config;
}

void feed(rs::fleet::TenantSession& session, rs::core::CheckpointStore& store,
          std::span<const double> trace) {
  for (double lambda : trace) ASSERT_TRUE(session.offer(lambda));
  while (session.due()) ASSERT_GT(session.step(store), 0);
}

TEST(FleetWhatIf, MatchesEditedReplayAndLeavesLiveSessionUntouched) {
  const int m = 8;
  std::vector<double> trace = integer_trace(m, 24, 0xAB5Eull);
  rs::core::CheckpointStore store;
  rs::fleet::TenantSession live(probe_config("live", m), 0);
  feed(live, store, trace);

  const std::vector<std::uint8_t> bytes_before = live.snapshot_bytes();
  const rs::core::Schedule schedule_before = live.schedule();

  rs::util::Rng rng(0x5EEDull);
  for (int probe = 0; probe < 6; ++probe) {
    const int slot = rng.uniform_int(1, 24);
    const double lambda = static_cast<double>(rng.uniform_int(0, m));
    const auto result = live.what_if(slot, lambda);
    ASSERT_TRUE(result.has_value()) << "slot " << slot;

    // Reference: a session that really decided the edited trace.
    std::vector<double> edited = trace;
    edited[static_cast<std::size_t>(slot - 1)] = lambda;
    rs::core::CheckpointStore scratch;
    rs::fleet::TenantSession reference(
        probe_config("ref" + std::to_string(probe), m), 1);
    feed(reference, scratch, edited);

    EXPECT_EQ(result->projected_state, reference.schedule().back());
    EXPECT_EQ(result->x_lower, reference.lower_bounds().back());
    EXPECT_EQ(result->x_upper, reference.upper_bounds().back());

    // The live session — including its checkpoint bytes — is untouched.
    EXPECT_EQ(live.snapshot_bytes(), bytes_before);
    EXPECT_EQ(live.schedule(), schedule_before);
  }

  // Probes never throw: bad inputs simply return nullopt.
  EXPECT_FALSE(live.what_if(0, 1.0).has_value());
  EXPECT_FALSE(live.what_if(25, 1.0).has_value());
  EXPECT_FALSE(live.what_if(3, -1.0).has_value());
  EXPECT_FALSE(live.what_if(3, std::nan("")).has_value());
  EXPECT_EQ(live.snapshot_bytes(), bytes_before);
}

TEST(FleetWhatIf, WindowSlidesWithEvictionAndDisabledConfigsDecline) {
  const int m = 6;
  rs::fleet::TenantConfig config = probe_config("slide", m);
  config.what_if_slots = 8;
  rs::core::CheckpointStore store;
  rs::fleet::TenantSession session(std::move(config), 0);
  feed(session, store, integer_trace(m, 30, 0x1D01ull));

  // Capacity 8 after 30 slots: only the trailing window answers.
  EXPECT_FALSE(session.what_if(22, 1.0).has_value());
  EXPECT_TRUE(session.what_if(23, 1.0).has_value());
  EXPECT_TRUE(session.what_if(30, 1.0).has_value());

  // what_if_slots == 0 declines probes outright.
  rs::fleet::TenantConfig off = probe_config("off", m);
  off.what_if_slots = 0;
  rs::fleet::TenantSession plain(std::move(off), 1);
  feed(plain, store, integer_trace(m, 5, 0x1D11ull));
  EXPECT_FALSE(plain.what_if(3, 1.0).has_value());

  // ... and probes with a window require window == 0 at validation time.
  rs::fleet::TenantConfig bad = probe_config("bad", m);
  bad.window = 2;
  EXPECT_THROW(rs::fleet::TenantSession(std::move(bad), 2),
               std::invalid_argument);
}

TEST(FleetWhatIf, DeclinesSamplesThatOfferQuarantines) {
  const int m = 6;
  const auto base = integer_cost();
  // λ in 100..103 picks a poisoned cost; the dense backend would replay
  // the negative one without complaint.
  const auto cost_of = [base](double lambda) -> CostPtr {
    if (lambda == 100.0) {
      return std::make_shared<rs::core::AffineAbsCost>(1.0, 0.0, -1.0);
    }
    if (lambda == 101.0) {
      return std::make_shared<rs::core::AffineAbsCost>(
          1.0, 0.0, std::numeric_limits<double>::quiet_NaN());
    }
    if (lambda == 102.0) return nullptr;
    if (lambda == 103.0) throw std::runtime_error("factory down");
    return base(lambda);
  };
  const std::vector<std::pair<double, std::string>> poisoned = {
      {100.0, "slot cost is negative"},
      {101.0, "slot cost evaluates to NaN"},
      {102.0, "cost factory returned null"},
      {103.0, "cost factory threw: factory down"},
  };
  for (const auto& [lambda, reason] : poisoned) {
    rs::fleet::TenantConfig config = probe_config("poison", m);
    config.backend = Backend::kDense;
    config.cost_of = cost_of;
    rs::core::CheckpointStore store;
    rs::fleet::TenantSession session(std::move(config), 0);
    feed(session, store, integer_trace(m, 12, 0xD0D0ull));
    const std::vector<std::uint8_t> bytes = session.snapshot_bytes();

    EXPECT_TRUE(session.what_if(5, 3.0).has_value());
    EXPECT_FALSE(session.what_if(5, lambda).has_value()) << reason;
    EXPECT_EQ(session.snapshot_bytes(), bytes) << reason;

    // ... the sample offer() quarantines, for the same reason.
    EXPECT_FALSE(session.offer(lambda));
    EXPECT_EQ(session.state(), rs::fleet::TenantState::kQuarantined);
    EXPECT_EQ(session.stats().quarantine_reason, reason);
  }
}

TEST(FleetWhatIf, AnswersAfterProcessRestartResume) {
  const int m = 8;
  const std::vector<double> trace = integer_trace(m, 30, 0xFACEull);
  const std::span<const double> first(trace.data(), 20);
  const std::span<const double> rest(trace.data() + 20, 10);

  rs::core::CheckpointStore store;
  {
    rs::fleet::TenantSession before(probe_config("restartable", m), 0);
    feed(before, store, first);
    before.checkpoint_now(store);
  }
  rs::fleet::TenantSession resumed(probe_config("restartable", m), 0, &store);
  EXPECT_EQ(resumed.steps(), 20u);
  feed(resumed, store, rest);

  rs::util::Rng rng(0xBEEull);
  for (int probe = 0; probe < 4; ++probe) {
    const int slot = rng.uniform_int(21, 30);  // inside the post-resume window
    const double lambda = static_cast<double>(rng.uniform_int(0, m));
    const auto result = resumed.what_if(slot, lambda);
    ASSERT_TRUE(result.has_value()) << "slot " << slot;

    std::vector<double> edited = trace;
    edited[static_cast<std::size_t>(slot - 1)] = lambda;
    rs::core::CheckpointStore scratch;
    rs::fleet::TenantSession reference(
        probe_config("restart-ref" + std::to_string(probe), m), 1);
    feed(reference, scratch, edited);
    EXPECT_EQ(result->projected_state, reference.schedule().back());
    EXPECT_EQ(result->x_lower, reference.lower_bounds().back());
    EXPECT_EQ(result->x_upper, reference.upper_bounds().back());
  }
}

TEST(FleetPriority, InteractiveTenantsStartBeforeBatch) {
  rs::fleet::FleetOptions options;
  options.threads = 1;
  options.tick_budget_seconds = 1e-12;  // expires immediately: only the
                                        // first-started tenant advances
  rs::fleet::FleetController fleet(options);

  rs::fleet::TenantConfig batch = probe_config("batch", 6);
  batch.what_if_slots = 0;
  batch.priority = rs::fleet::Priority::kBatch;
  rs::fleet::TenantConfig interactive = probe_config("interactive", 6);
  interactive.what_if_slots = 0;
  interactive.priority = rs::fleet::Priority::kInteractive;

  // Registration order is batch-first: priority, not ordinal, must decide.
  const std::size_t b = fleet.add_tenant(std::move(batch));
  const std::size_t i = fleet.add_tenant(std::move(interactive));
  ASSERT_TRUE(fleet.offer(b, 2.0));
  ASSERT_TRUE(fleet.offer(i, 3.0));

  const auto report = fleet.tick();
  EXPECT_EQ(report.due, 2u);
  EXPECT_EQ(report.deferred, 1u);
  EXPECT_EQ(fleet.tenant(i).steps(), 1u);
  EXPECT_EQ(fleet.tenant(b).steps(), 0u);
  EXPECT_EQ(fleet.tenant(b).stats().deferrals, 1u);
  fleet.run_until_drained();
  EXPECT_EQ(fleet.tenant(b).steps(), 1u);
}

using rs::test_support::CountingCost;

TEST(FleetFormCache, DistinctCostsConvertOnceAcrossTenants) {
  auto conversions = std::make_shared<std::atomic<int>>(0);
  // λ → cost memo shared by both tenants, so identical samples yield the
  // SAME CostPtr — the identity the cache keys on.
  auto memo = std::make_shared<std::map<double, CostPtr>>();
  auto cost_of = [conversions, memo](double lambda) -> CostPtr {
    auto [it, inserted] = memo->try_emplace(lambda, nullptr);
    if (inserted) {
      it->second = std::make_shared<CountingCost>(
          std::make_shared<rs::core::AffineAbsCost>(1.0, lambda, 0.0),
          conversions);
    }
    return it->second;
  };

  rs::fleet::FleetOptions options;
  options.threads = 1;
  rs::fleet::FleetController fleet(options);
  for (int k = 0; k < 2; ++k) {
    rs::fleet::TenantConfig config;
    config.name = "cache" + std::to_string(k);
    config.m = 6;
    config.beta = 2.0;
    config.cost_of = cost_of;
    fleet.add_tenant(std::move(config));
  }

  const std::vector<double> trace = integer_trace(6, 40, 0xCAC4Eull);
  for (double lambda : trace) {
    ASSERT_TRUE(fleet.offer(0, lambda));
    ASSERT_TRUE(fleet.offer(1, lambda));
  }
  fleet.run_until_drained();
  ASSERT_EQ(fleet.tenant(0).steps(), 40u);
  ASSERT_EQ(fleet.tenant(1).steps(), 40u);

  const std::size_t distinct = memo->size();
  // 80 decided slots, `distinct` distinct costs: the fleet-wide cache
  // converted each exactly once and served every other use from the map.
  EXPECT_EQ(fleet.form_cache().conversions(), distinct);
  EXPECT_EQ(conversions->load(), static_cast<int>(distinct));
  EXPECT_GE(fleet.form_cache().hits(), 80u - distinct);

  // Both tenants saw the same costs, so they decided identically.
  EXPECT_EQ(fleet.tenant(0).schedule(), fleet.tenant(1).schedule());
  EXPECT_EQ(fleet.tenant(0).lower_bounds(), fleet.tenant(1).lower_bounds());
  EXPECT_EQ(fleet.tenant(0).upper_bounds(), fleet.tenant(1).upper_bounds());
}

TEST(FleetFormCache, CachedFormsDoNotChangeDecisions) {
  // Same trace through a cached tenant and a cache-free tenant (identical
  // costs): decisions, bounds, and checkpoint bytes must be bitwise equal.
  const std::vector<double> trace = integer_trace(8, 32, 0xFADEull);
  rs::core::CheckpointStore store;

  SlotFormCache cache;
  rs::fleet::TenantConfig cached = probe_config("cached", 8);
  cached.form_cache = &cache;
  rs::fleet::TenantSession with_cache(std::move(cached), 0);
  feed(with_cache, store, trace);
  EXPECT_GE(cache.conversions() + cache.hits(), 1u);

  rs::fleet::TenantConfig plain = probe_config("cached", 8);  // same key
  rs::fleet::TenantSession without_cache(std::move(plain), 0);
  feed(without_cache, store, trace);

  EXPECT_EQ(with_cache.schedule(), without_cache.schedule());
  EXPECT_EQ(with_cache.lower_bounds(), without_cache.lower_bounds());
  EXPECT_EQ(with_cache.upper_bounds(), without_cache.upper_bounds());
  EXPECT_EQ(with_cache.snapshot_bytes(), without_cache.snapshot_bytes());
}

// The perfbench/documented default factory: a fresh hinge-SLA graph per
// offer, so value identity (not pointer identity) is all the cache has.
CostPtr fresh_hinge(double lambda) {
  return rs::scenario::hinge_sla_cost(rs::scenario::ZooParams{}, lambda);
}

// λ on a half-integer grid over [0, m]: repeats values across a stream,
// and fractional knees exercise the hinge's two-kink neighbourhood.
std::vector<double> half_grid_trace(int m, int horizon, std::uint64_t seed) {
  rs::util::Rng rng(seed);
  std::vector<double> trace;
  for (int t = 0; t < horizon; ++t) {
    trace.push_back(0.5 * static_cast<double>(rng.uniform_int(0, 2 * m)));
  }
  return trace;
}

rs::fleet::TenantConfig hinge_config(std::string name, int m) {
  rs::fleet::TenantConfig config;
  config.name = std::move(name);
  config.m = m;
  config.beta = 6.0;
  config.cost_of = fresh_hinge;
  config.checkpoint_every = 4;
  config.degrade_after = 100;  // kills recover; none pins the dense rung
  return config;
}

TEST(FleetFormCache, FreshCostsPerOfferConvertOncePerValue) {
  rs::fleet::FleetController fleet;
  const std::vector<int> sizes = {8, 8, 12};
  std::vector<std::vector<double>> traces;
  std::set<std::pair<double, int>> distinct;
  for (std::size_t k = 0; k < sizes.size(); ++k) {
    fleet.add_tenant(hinge_config("fresh" + std::to_string(k), sizes[k]));
    traces.push_back(half_grid_trace(sizes[k], 60, 0xF5E5ull + k / 2));
    for (double lambda : traces.back()) distinct.emplace(lambda, sizes[k]);
  }
  std::uint64_t offers = 0;
  for (std::size_t t = 0; t < 60; ++t) {
    for (std::size_t k = 0; k < sizes.size(); ++k) {
      ASSERT_TRUE(fleet.offer(k, traces[k][t]));
      ++offers;
    }
    fleet.tick();
  }
  // One conversion per distinct (λ, m) fleet-wide; every other offer hits.
  EXPECT_EQ(fleet.form_cache().conversions(), distinct.size());
  EXPECT_EQ(fleet.form_cache().size(), distinct.size());
  EXPECT_EQ(fleet.form_cache().hits(), offers - distinct.size());
  // Tenants 0 and 1 share m and trace: identical decisions.
  EXPECT_EQ(fleet.tenant(0).schedule(), fleet.tenant(1).schedule());
}

TEST(FleetFormCache, CanonicalCostsKeepDecisionsAndRecoveryBitwise) {
  const int m = 10;
  const std::vector<double> trace = half_grid_trace(m, 48, 0xCA70ull);
  // A plan that kills tick attempts but never corrupts an offer.
  std::optional<rs::scenario::FaultPlan> plan;
  for (std::uint64_t seed = 1; !plan; ++seed) {
    const rs::scenario::FaultPlan candidate{seed, 5};
    if (rs::scenario::corrupted_offers(candidate, 0, trace.size()).empty() &&
        !rs::scenario::killed_attempts(candidate, 0, trace.size()).empty()) {
      plan = candidate;
    }
  }

  const auto run = [&](bool cached, bool kill) {
    SlotFormCache cache;
    rs::fleet::TenantConfig config = hinge_config("canon", m);
    if (cached) config.form_cache = &cache;
    rs::fleet::TenantSession tenant(std::move(config), 0);
    rs::core::CheckpointStore store;
    std::optional<rs::util::ScopedFaultInjection> guard;
    if (kill) guard.emplace(rs::scenario::make_injector(*plan));
    for (double lambda : trace) {
      EXPECT_TRUE(tenant.offer(lambda));
      tenant.step(store);
    }
    EXPECT_EQ(tenant.state(), rs::fleet::TenantState::kHealthy);
    EXPECT_EQ(tenant.stats().recoveries > 0, kill);
    if (cached) {
      EXPECT_GT(cache.hits(), 0u);
    }
    return std::make_tuple(tenant.schedule(), tenant.lower_bounds(),
                           tenant.upper_bounds(), tenant.snapshot_bytes());
  };
  const auto reference = run(/*cached=*/false, /*kill=*/false);
  EXPECT_EQ(run(true, false), reference);
  EXPECT_EQ(run(true, true), reference);
}

// AffineAbs semantics with a live-instance counter and its own value key.
class LiveCost final : public rs::core::CostFunction {
 public:
  LiveCost(double center, std::shared_ptr<std::atomic<int>> live)
      : inner_(1.0, center, 0.0), center_(center), live_(std::move(live)) {
    live_->fetch_add(1);
  }
  ~LiveCost() override { live_->fetch_sub(1); }
  double at(int x) const override { return inner_.at(x); }
  void eval_row(int m, std::span<double> out) const override {
    inner_.eval_row(m, out);
  }
  bool is_convex() const override { return true; }

 protected:
  std::optional<rs::core::ConvexPwl> as_convex_pwl_impl(
      int m, int max_breakpoints) const override {
    return inner_.as_convex_pwl(m, max_breakpoints);
  }
  bool value_key_impl(rs::core::ValueKey& key) const override {
    key.push_back(rs::core::value_key_tag("livetest"));
    rs::core::append_key_bits(key, center_);
    return true;
  }

 private:
  rs::core::AffineAbsCost inner_;
  double center_;
  std::shared_ptr<std::atomic<int>> live_;
};

TEST(FleetFormCache, OnlyCanonicalInstancesOutliveTheirOffers) {
  auto live = std::make_shared<std::atomic<int>>(0);
  {
    rs::fleet::FleetController fleet;
    rs::fleet::TenantConfig config;
    config.name = "live";
    config.m = 6;
    config.beta = 2.0;
    config.checkpoint_every = 1000;  // the replay buffer keeps every slot
    config.cost_of = [live](double lambda) -> CostPtr {
      return std::make_shared<LiveCost>(lambda, live);
    };
    fleet.add_tenant(std::move(config));
    const std::vector<double> trace = integer_trace(6, 40, 0x11FEull);
    for (std::size_t t = 0; t < trace.size(); ++t) {
      ASSERT_TRUE(fleet.offer(0, trace[t]));
      if (t % 2 == 1) fleet.tick();  // half queued, half replayable
    }
    // Every queued and replayable slot holds a pinned canonical instance;
    // the fresh graphs died with their offers.
    EXPECT_EQ(static_cast<std::size_t>(live->load()),
              fleet.form_cache().size());
    EXPECT_LT(fleet.form_cache().size(), trace.size());
    fleet.run_until_drained();
    EXPECT_EQ(fleet.tenant(0).steps(), trace.size());
  }
  EXPECT_EQ(live->load(), 0);
}

TEST(FormCache, PinsNegativeResultsAndBoundsItsSize) {
  EXPECT_THROW(SlotFormCache(0), std::invalid_argument);

  SlotFormCache cache(2);
  EXPECT_EQ(cache.form_for(nullptr, 4).form, nullptr);

  const CostPtr a = std::make_shared<rs::core::AffineAbsCost>(1.0, 2.0, 0.0);
  const CostPtr b = std::make_shared<rs::core::AffineAbsCost>(2.0, 1.0, 0.0);
  const CostPtr c = std::make_shared<rs::core::AffineAbsCost>(1.0, 1.0, 0.0);
  ASSERT_NE(cache.form_for(a, 8).form, nullptr);
  EXPECT_EQ(cache.conversions(), 1u);
  ASSERT_NE(cache.form_for(a, 8).form, nullptr);
  EXPECT_EQ(cache.conversions(), 1u);  // second use is a hit
  EXPECT_EQ(cache.hits(), 1u);

  ASSERT_NE(cache.form_for(b, 8).form, nullptr);
  EXPECT_EQ(cache.size(), 2u);
  // Full: new keys degrade to per-use conversion (nullptr), size is capped.
  EXPECT_EQ(cache.form_for(c, 8).form, nullptr);
  EXPECT_EQ(cache.size(), 2u);
}

// ---------------------------------------------------------------------------
// Engine: kDeltaResolve jobs
// ---------------------------------------------------------------------------

TEST(EngineDelta, ProbesMatchFromScratchAndAreOrderIndependent) {
  const int T = 30;
  const int m = 12;
  const double beta = 1.6;
  rs::util::Rng rng(0xE61ull);
  const Problem base =
      rs::workload::random_instance(rng, InstanceFamily::kQuadratic, T, m, beta);
  const Problem donor =
      rs::workload::random_instance(rng, InstanceFamily::kAffineAbs, T, m, beta);

  std::vector<rs::engine::SolveJob> jobs;
  for (int k = 0; k < 8; ++k) {
    rs::engine::SolveJob job;
    job.problem = &base;
    job.kind = rs::engine::SolverKind::kDeltaResolve;
    job.edit_slot = rng.uniform_int(1, T);
    job.edit_cost = donor.f_ptr(rng.uniform_int(1, T));
    jobs.push_back(std::move(job));
  }

  rs::engine::SolverEngine inline_engine(rs::engine::SolverEngine::Options{
      .threads = 1});
  const auto inline_result = inline_engine.run(jobs);
  ASSERT_EQ(inline_result.outcomes.size(), jobs.size());
  EXPECT_GT(inline_result.stats.slots_repaired, 0u);

  for (std::size_t k = 0; k < jobs.size(); ++k) {
    ASSERT_TRUE(inline_result.outcomes[k].ok()) << inline_result.outcomes[k].error;
    std::vector<CostPtr> edited = slot_costs(base);
    edited[static_cast<std::size_t>(jobs[k].edit_slot - 1)] = jobs[k].edit_cost;
    DpDeltaSession fresh(Problem(m, beta, edited));
    EXPECT_EQ(inline_result.outcomes[k].cost, fresh.cost()) << "job " << k;
    EXPECT_EQ(inline_result.outcomes[k].schedule, fresh.result().schedule)
        << "job " << k;
  }

  // Threaded batches share one session per instance under a mutex; probes
  // restore it bitwise, so outcomes are independent of probe order.
  rs::engine::SolverEngine threaded(rs::engine::SolverEngine::Options{
      .threads = 4});
  const auto threaded_result = threaded.run(jobs);
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    EXPECT_EQ(threaded_result.outcomes[k].cost, inline_result.outcomes[k].cost);
    EXPECT_EQ(threaded_result.outcomes[k].schedule,
              inline_result.outcomes[k].schedule);
  }

  // Structural validation happens before anything runs.
  rs::engine::SolveJob bad;
  bad.problem = &base;
  bad.kind = rs::engine::SolverKind::kDeltaResolve;
  bad.edit_slot = 0;
  bad.edit_cost = donor.f_ptr(1);
  EXPECT_THROW(inline_engine.run(std::vector<rs::engine::SolveJob>{bad}),
               std::invalid_argument);
  bad.edit_slot = 3;
  bad.edit_cost = nullptr;
  EXPECT_THROW(inline_engine.run(std::vector<rs::engine::SolveJob>{bad}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Online: warm receding horizons
// ---------------------------------------------------------------------------

// Forwarding wrapper counting eval_row calls: one per window slot that a
// receding-horizon solve evaluates.
class RowCountingCost final : public rs::core::CostFunction {
 public:
  RowCountingCost(CostPtr base, std::shared_ptr<int> rows)
      : base_(std::move(base)), rows_(std::move(rows)) {}
  double at(int x) const override { return base_->at(x); }
  void eval_row(int m, std::span<double> out) const override {
    ++*rows_;
    base_->eval_row(m, out);
  }
  bool is_convex() const override { return base_->is_convex(); }

 private:
  CostPtr base_;
  std::shared_ptr<int> rows_;
};

TEST(WarmHorizon, MatchesColdPlansAndReusesAcrossRleRuns) {
  const int m = 10;
  const double beta = 2.0;
  const int window = 4;
  rs::util::Rng rng(0x4E0ull);
  auto rows = std::make_shared<int>(0);

  // RLE trace: runs of one repeated CostPtr, run length > window + 1 so
  // interior steps present identical (start, window) pairs.
  std::vector<CostPtr> slots;
  while (slots.size() < 60) {
    const CostPtr cost = std::make_shared<RowCountingCost>(
        std::make_shared<rs::core::AffineAbsCost>(
            static_cast<double>(rng.uniform_int(1, 3)),
            static_cast<double>(rng.uniform_int(0, m)), 0.0),
        rows);
    const int run = rng.uniform_int(6, 10);
    for (int k = 0; k < run && slots.size() < 60; ++k) slots.push_back(cost);
  }
  const int T = static_cast<int>(slots.size());

  const rs::online::OnlineContext context{.m = m, .beta = beta};
  rs::online::RecedingHorizon warm;
  warm.reset(context);

  int cold_state = 0;
  int warm_rows = 0;     // rows the memoized RHC evaluated
  int swept_rows = 0;    // rows a solve at every step would evaluate
  int reused_steps = 0;  // steps answered without a solve
  for (int t = 0; t < T; ++t) {
    const int lookahead = std::min(window, T - 1 - t);
    const std::span<const CostPtr> future(
        slots.data() + t + 1, static_cast<std::size_t>(lookahead));
    const int before = *rows;
    const int warm_state = warm.decide(slots[static_cast<std::size_t>(t)], future);
    const int evaluated = *rows - before;
    warm_rows += evaluated;
    swept_rows += 1 + lookahead;
    if (evaluated == 0) ++reused_steps;
    cold_state = rs::online::plan_fixed_horizon(
                     cold_state, slots[static_cast<std::size_t>(t)], future, m,
                     beta)
                     .front();
    ASSERT_EQ(warm_state, cold_state) << "slot " << t;
  }

  EXPECT_GT(reused_steps, 0);  // interior of every long run
  EXPECT_LT(warm_rows, swept_rows);
  EXPECT_LT(warm_rows, T * (window + 1));
}

}  // namespace
