// E16 — Incremental re-solve: repair-vs-replay speedup for edited
// instances (DESIGN.md §12).
//
// The workload is the interactive what-if serving pattern: a long solved
// instance stays live in a DpDeltaSession, and single-slot edits land in
// the recent tail of the horizon (the window fleet/TenantSession::what_if
// probes answer from).  Each edit is answered by a forward repair from the
// edited slot; the baseline is what a delta-free consumer pays — a full
// from-scratch re-solve of the edited instance.
//
// Acceptance shape: T = 10⁵ single-slot edits into the last 10% of the
// horizon on the PWL backend must repair >= 10x faster than replay, with
// every sampled repair bit-identical (cost, corridor bounds, Lemma-11
// schedule) to the from-scratch solve.  Smoke runs a 2·10³ horizon to
// exercise the path without the wall-clock claim.
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

using rs::core::CostPtr;
using rs::core::Problem;
using rs::offline::DpDeltaSession;
using rs::offline::WorkFunctionTracker;

// Integer-parameter affine-abs costs: compact exact PWL forms (the session
// runs m-independent) and integer work-function values, so repair and
// replay agree bitwise, not merely within tolerance.
Problem integer_instance(int T, int m, std::uint64_t seed) {
  rs::util::Rng rng(seed);
  std::vector<CostPtr> fs;
  fs.reserve(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    fs.push_back(std::make_shared<rs::core::AffineAbsCost>(
        static_cast<double>(rng.uniform_int(1, 3)),
        static_cast<double>(rng.uniform_int(0, m)), 0.0));
  }
  return Problem(m, 4.0, std::move(fs));
}

struct DeltaRow {
  int horizon = 0;
  int m = 0;
  int edits = 0;
  double repair_seconds_per_edit = 0.0;
  double replay_seconds_per_solve = 0.0;
  double speedup = 0.0;
  double mean_slots_repaired = 0.0;
  bool bit_identical = true;
};

DeltaRow measure(int T, int m, int edits, int verify_every) {
  DeltaRow row;
  row.horizon = T;
  row.m = m;
  row.edits = edits;

  const Problem base = integer_instance(T, m, 0xE16E16ull);
  std::vector<CostPtr> costs;
  costs.reserve(static_cast<std::size_t>(T));
  for (int t = 1; t <= T; ++t) costs.push_back(base.f_ptr(t));

  DpDeltaSession session(base, WorkFunctionTracker::Backend::kPwl);

  // Edit stream: single-slot edits uniform over the trailing 10%.
  rs::util::Rng rng(0xED17ull);
  const int tail_begin = T - T / 10 + 1;
  std::vector<int> slots;
  std::vector<CostPtr> replacements;
  for (int e = 0; e < edits; ++e) {
    slots.push_back(rng.uniform_int(tail_begin, T));
    replacements.push_back(std::make_shared<rs::core::AffineAbsCost>(
        static_cast<double>(rng.uniform_int(1, 3)),
        static_cast<double>(rng.uniform_int(0, m)), 0.0));
  }

  // Repair side: apply each edit, then edit the original cost back in so
  // every edit starts from the base instance (both repairs are timed).
  long long repairs = 0;
  long long slots_repaired = 0;
  double repair_seconds = 0.0;
  double replay_seconds = 0.0;
  int replays = 0;
  for (int e = 0; e < edits; ++e) {
    const int slot = slots[static_cast<std::size_t>(e)];
    const CostPtr& replacement = replacements[static_cast<std::size_t>(e)];
    DpDeltaSession::DeltaStats stats;
    {
      rs::util::Stopwatch watch;
      session.resolve_delta(slot, replacement, &stats);
      repair_seconds += watch.seconds();
    }
    repairs += 2;  // forward repair + the restore below
    slots_repaired += stats.slots_repaired;

    if (e % verify_every == 0) {
      // Baseline + bit-identity: a from-scratch session on the edited
      // instance, timed, then compared field by field.
      costs[static_cast<std::size_t>(slot - 1)] = replacement;
      Problem edited(m, 4.0, costs);
      rs::util::Stopwatch watch;
      DpDeltaSession fresh(edited, WorkFunctionTracker::Backend::kPwl);
      replay_seconds += watch.seconds();
      ++replays;
      costs[static_cast<std::size_t>(slot - 1)] = base.f_ptr(slot);
      row.bit_identical = row.bit_identical &&
                          session.cost() == fresh.cost() &&
                          session.bounds().lower == fresh.bounds().lower &&
                          session.bounds().upper == fresh.bounds().upper &&
                          session.result().schedule == fresh.result().schedule;
    }

    {
      rs::util::Stopwatch watch;
      session.resolve_delta(slot, base.f_ptr(slot), &stats);
      repair_seconds += watch.seconds();
    }
    slots_repaired += stats.slots_repaired;
  }

  row.repair_seconds_per_edit =
      repair_seconds / static_cast<double>(repairs);
  row.replay_seconds_per_solve = replay_seconds / static_cast<double>(replays);
  row.speedup = row.replay_seconds_per_solve / row.repair_seconds_per_edit;
  row.mean_slots_repaired =
      static_cast<double>(slots_repaired) / static_cast<double>(repairs);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const rs::util::CliArgs args(argc, argv);
  const bool smoke =
      args.get_bool("smoke", std::getenv("RIGHTSIZER_BENCH_SMOKE") != nullptr);
  const std::string json_path = args.get("json", "");

  std::cout << "E16  incremental re-solve (smoke=" << smoke << ")\n\n";

  const int T = smoke ? 2000 : 100000;
  const int m = 1000;
  const int edits = smoke ? 20 : 200;
  const int verify_every = smoke ? 4 : 25;
  const DeltaRow row = measure(T, m, edits, verify_every);

  std::cout << "delta re-solve: T=" << row.horizon << " m=" << row.m
            << " edits=" << row.edits << " (uniform over the last 10%)\n"
            << "  repair  " << row.repair_seconds_per_edit << " s/edit (mean "
            << row.mean_slots_repaired << " slots repaired)\n"
            << "  replay  " << row.replay_seconds_per_solve << " s/solve\n"
            << "  speedup " << row.speedup << "x bit_identical="
            << (row.bit_identical ? "yes" : "NO") << "\n";

  rs::bench::check(row.bit_identical,
                   "delta repair differs from the from-scratch solve");
  if (!smoke) {
    rs::bench::check(row.speedup >= 10.0,
                     "delta repair speedup " + std::to_string(row.speedup) +
                         "x below the 10x acceptance bound");
  }

  if (!json_path.empty()) {
    std::ostringstream out;
    out << "{\n  \"smoke\": " << (smoke ? "true" : "false")
        << ",\n  \"delta\": {\"horizon\": " << row.horizon
        << ", \"m\": " << row.m << ", \"edits\": " << row.edits
        << ", \"repair_seconds_per_edit\": " << row.repair_seconds_per_edit
        << ", \"replay_seconds_per_solve\": " << row.replay_seconds_per_solve
        << ", \"speedup\": " << row.speedup
        << ", \"mean_slots_repaired\": " << row.mean_slots_repaired
        << ", \"bit_identical\": " << (row.bit_identical ? "true" : "false")
        << "}\n}\n";
    std::ofstream file(json_path);
    file << out.str();
    std::cout << "\nwrote " << json_path << "\n";
  }

  return rs::bench::finish("E16 incremental re-solve");
}
