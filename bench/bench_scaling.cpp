// E13 — m-independent LCP: the convex-PWL backend vs the dense backends
// across m ∈ {10³, 10⁴, 10⁵, 10⁶}.
//
// Three arms per (family, m):
//   pwl    — run_online(Lcp) on the convex-PWL work-function backend; the
//            per-step cost depends on the live breakpoint count K, not m.
//   dense  — the same replay forced onto the dense backend (one eval_row +
//            three O(m) passes per step), the strongest baseline that can
//            still run at large m because it streams rows.
//   table  — run_lcp_dense over an eager DenseProblem, the fastest
//            small-m path; it needs the full T×(m+1) table in memory and is
//            recorded as "skipped" once that exceeds the memory budget —
//            at m = 10⁶ the table would be tens of GB, which is the
//            structural limit this backend removes.
//
// Instances use integer cost parameters, so every backend's arithmetic is
// exact and the schedule-equality checks are tie-proof at any m.  The
// horizon shrinks as m grows (the dense arms are O(T·m)); the reported
// metric is ns per step.
//
// Documented claims, checked in full mode (not --smoke):
//   * PWL per-step time stays flat (within 2x) from the smallest to the
//     largest m;
//   * PWL is >= 10x faster per step than the dense streaming backend at
//     m = 10⁵;
//   * the m = 10⁶ PWL row runs (where the table backend cannot);
//   * PWL and dense schedules are identical on every family and size.
//
// `--json PATH` (or --json=PATH) dumps the rows for
// scripts/bench_baseline.sh; RIGHTSIZER_BENCH_SMOKE=1 or --smoke shrinks
// the sweep for the ctest smoke entry.
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"

namespace {

struct ScalingRow {
  std::string family;
  int m = 0;
  int T = 0;
  double pwl_ms = -1.0;
  double dense_ms = -1.0;  // -1: skipped
  double table_ms = -1.0;  // -1: skipped (memory budget)
  int max_breakpoints = 0;
  double dp_pwl_ms = -1.0;  // DpSolver kConvexAuto cost-only pass
  // Offline solvers measured on a T-256 sub-instance against the shared
  // PwlProblem cache: the low-memory corridor solve (dense arm: the same
  // corridor pass pinned to dense labels, O(T·m), skipped at m = 10⁶) and
  // the grid-restricted bounded DP (dense arm enumerates |grid|²
  // transitions per step).
  int sub_T = 0;
  double lowmem_pwl_ms = -1.0;
  double lowmem_dense_ms = -1.0;  // -1: skipped (memory/time budget)
  int bdp_grid = 0;               // grid column size
  double bdp_pwl_ms = -1.0;
  double bdp_dense_ms = -1.0;
  double pwl_ns_per_step() const { return pwl_ms * 1e6 / T; }
  double dense_ns_per_step() const { return dense_ms * 1e6 / T; }
  double speedup_vs_dense() const {
    return dense_ms > 0.0 ? dense_ms / pwl_ms : 0.0;
  }
  double lowmem_speedup() const {
    return lowmem_dense_ms > 0.0 ? lowmem_dense_ms / lowmem_pwl_ms : 0.0;
  }
  double bdp_speedup() const {
    return bdp_dense_ms > 0.0 ? bdp_dense_ms / bdp_pwl_ms : 0.0;
  }
};

// Drifting-center ϕ instance: a·|x − c_t| + b with integer a, b, c_t; the
// canonical compact-PWL family (2 breakpoints per slot).
rs::core::Problem affine_abs_instance(int T, int m, double beta) {
  rs::util::Rng rng(static_cast<std::uint64_t>(m) * 1000003u + 17u);
  std::vector<rs::core::CostPtr> fs;
  fs.reserve(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    const double phase =
        2.0 * 3.14159265358979323846 * static_cast<double>(t) / 96.0;
    const double drift = (0.5 + 0.35 * std::sin(phase)) * m;
    const double center = std::floor(
        drift + rng.uniform(-0.05, 0.05) * static_cast<double>(m));
    fs.push_back(std::make_shared<rs::core::AffineAbsCost>(
        static_cast<double>(rng.uniform_int(1, 3)),
        std::max(0.0, center),
        static_cast<double>(rng.uniform_int(0, 2))));
  }
  return rs::core::Problem(m, beta, std::move(fs));
}

// Soft-SLA instance: shortfall hinge below a drifting demand knee plus an
// over-provisioning hinge above it (SumCost of PiecewiseLinearCosts).
rs::core::Problem hinge_sla_instance(int T, int m, double beta) {
  rs::util::Rng rng(static_cast<std::uint64_t>(m) * 2000029u + 29u);
  std::vector<rs::core::CostPtr> fs;
  fs.reserve(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    const double phase =
        2.0 * 3.14159265358979323846 * static_cast<double>(t) / 144.0;
    const double demand =
        std::floor((0.45 + 0.3 * std::sin(phase)) * m +
                   rng.uniform(-0.03, 0.03) * static_cast<double>(m));
    const double knee = std::max(1.0, demand);
    const double slack = static_cast<double>(rng.uniform_int(1, 1 + m / 8));
    fs.push_back(std::make_shared<rs::core::SumCost>(
        std::vector<rs::core::CostPtr>{
            rs::core::make_shortfall_hinge(
                static_cast<double>(rng.uniform_int(2, 5)), knee),
            rs::core::make_hinge(static_cast<double>(rng.uniform_int(1, 2)),
                                 knee + slack),
        }));
  }
  return rs::core::Problem(m, beta, std::move(fs));
}

// Restricted model with linear per-server tariffs: LinearLoadSlotCost with
// integer base/rate and a drifting integer workload — the family whose
// exact zero-breakpoint PWL form puts eq. (2) on the m-independent path
// (RestrictedSlotCost's opaque load curve cannot).
rs::core::Problem linear_tariff_instance(int T, int m, double beta) {
  rs::util::Rng rng(static_cast<std::uint64_t>(m) * 3000017u + 41u);
  std::vector<rs::core::CostPtr> fs;
  fs.reserve(static_cast<std::size_t>(T));
  for (int t = 0; t < T; ++t) {
    const double phase =
        2.0 * 3.14159265358979323846 * static_cast<double>(t) / 120.0;
    const double demand =
        std::floor((0.35 + 0.3 * std::sin(phase)) * m +
                   rng.uniform(-0.02, 0.02) * static_cast<double>(m));
    fs.push_back(std::make_shared<rs::core::LinearLoadSlotCost>(
        static_cast<double>(rng.uniform_int(1, 3)),
        static_cast<double>(rng.uniform_int(0, 4)),
        std::max(0.0, demand)));
  }
  return rs::core::Problem(m, beta, std::move(fs));
}

using Backend = rs::offline::WorkFunctionTracker::Backend;

double time_lcp_arm(const rs::core::Problem& p, Backend backend,
                    rs::core::Schedule* schedule_out, int reps) {
  double best = rs::util::kInf;
  for (int rep = 0; rep < reps; ++rep) {
    rs::online::Lcp lcp(backend);
    rs::util::Stopwatch watch;
    rs::core::Schedule schedule = rs::online::run_online(lcp, p);
    best = std::min(best, watch.milliseconds());
    if (schedule_out != nullptr) *schedule_out = std::move(schedule);
  }
  return best;
}

int max_breakpoints_of(const rs::core::Problem& p) {
  rs::offline::WorkFunctionTracker tracker(p.max_servers(), p.beta(),
                                           Backend::kPwl);
  int peak = 0;
  for (int t = 1; t <= p.horizon(); ++t) {
    tracker.advance(p.f(t));
    peak = std::max(peak, tracker.breakpoint_count());
  }
  return peak;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = std::getenv("RIGHTSIZER_BENCH_SMOKE") != nullptr;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--smoke") {
      smoke = true;
    }
  }

  std::cout << "E13: m-scaling of LCP — convex-PWL backend vs dense "
               "backends\n\n";

  const std::vector<int> sizes = smoke
                                     ? std::vector<int>{1000, 10000}
                                     : std::vector<int>{1000, 10000, 100000,
                                                        1000000};
  // The dense arms are O(T·m): shrink the horizon as m grows, keeping the
  // per-step metric comparable.  Table budget: eager T×(m+1) doubles.
  const auto horizon_for = [&](int m) {
    const long long budget = smoke ? 20'000'000LL : 400'000'000LL;
    const long long T = budget / m;
    return static_cast<int>(std::min<long long>(2000, std::max<long long>(
                                                          100, T)));
  };
  const long long table_budget_bytes =
      smoke ? (64LL << 20) : (192LL << 20);
  const double beta = 4.0;
  const int reps = smoke ? 1 : 2;

  struct Family {
    std::string name;
    rs::core::Problem (*make)(int, int, double);
  };
  const Family families[] = {
      {"affine_abs", &affine_abs_instance},
      {"hinge_sla", &hinge_sla_instance},
      {"linear_tariff", &linear_tariff_instance},
  };

  rs::util::TextTable table({"family", "m", "T", "pwl ns/step",
                             "dense ns/step", "table ns/step", "speedup",
                             "max K"});
  std::vector<ScalingRow> rows;

  for (const Family& family : families) {
    for (int m : sizes) {
      ScalingRow row;
      row.family = family.name;
      row.m = m;
      row.T = horizon_for(m);
      const rs::core::Problem p = family.make(row.T, m, beta);
      rs::bench::check(rs::core::admits_compact_pwl(p),
                       family.name + " admits the compact PWL form");

      rs::core::Schedule pwl_schedule;
      (void)time_lcp_arm(p, Backend::kPwl, nullptr, 1);  // warm-up
      row.pwl_ms = time_lcp_arm(p, Backend::kPwl, &pwl_schedule, reps);
      row.max_breakpoints = max_breakpoints_of(p);

      {
        rs::util::Stopwatch watch;
        const double cost =
            rs::offline::DpSolver(rs::offline::DpSolver::Backend::kConvexAuto)
                .solve_cost(p);
        row.dp_pwl_ms = watch.milliseconds();
        rs::bench::check(std::isfinite(cost), "offline optimum is finite on " +
                                                  family.name);
      }

      rs::core::Schedule dense_schedule;
      row.dense_ms = time_lcp_arm(p, Backend::kDense, &dense_schedule, reps);
      rs::bench::check(pwl_schedule == dense_schedule,
                       "PWL and dense LCP schedules identical on " +
                           family.name + " m=" + std::to_string(m));

      const long long table_bytes = static_cast<long long>(row.T) *
                                    (static_cast<long long>(m) + 1) * 8;
      if (table_bytes <= table_budget_bytes) {
        const rs::core::DenseProblem dense_table(p);
        double best = rs::util::kInf;
        for (int rep = 0; rep < reps; ++rep) {
          rs::util::Stopwatch watch;
          const rs::core::Schedule s = rs::online::run_lcp_dense(dense_table);
          best = std::min(best, watch.milliseconds());
          rs::bench::check(s == pwl_schedule,
                           "table-backed LCP schedule identical on " +
                               family.name + " m=" + std::to_string(m));
        }
        row.table_ms = best;
      }

      // Offline solvers: the low-memory corridor solve and grid-restricted
      // bounded DP on one shared PwlProblem (the conversion cache: T
      // conversions total, every arm below replays from the same forms).
      row.sub_T = smoke ? 64 : 256;
      {
        const rs::core::Problem sub = family.make(row.sub_T, m, beta);
        const std::optional<rs::core::PwlProblem> cache =
            rs::core::PwlProblem::try_convert(sub);
        rs::bench::check(cache.has_value(),
                         family.name + " converts once into the cache");

        rs::offline::OfflineResult lm_fast;
        {
          rs::util::Stopwatch watch;
          lm_fast = rs::offline::LowMemorySolver().solve(*cache);
          row.lowmem_pwl_ms = watch.milliseconds();
        }
        if (m <= 100000) {  // dense arm is O(T·m): kept out of the 1e6 row
          rs::util::Stopwatch watch;
          const rs::core::Schedule lm_dense = rs::offline::backward_schedule(
              rs::offline::compute_bounds(
                  sub, rs::offline::WorkFunctionTracker::Backend::kDense));
          row.lowmem_dense_ms = watch.milliseconds();
          rs::bench::check(lm_fast.schedule == lm_dense,
                           "PWL and dense low-memory schedules identical on " +
                               family.name + " m=" + std::to_string(m));
        }

        // Φ-style grid at ~256-state resolution; the dense arm enumerates
        // |grid|² transitions per step, the PWL arm clips slopes.
        const int stride = std::max(1, m / 256);
        const std::vector<std::vector<int>> states(
            static_cast<std::size_t>(row.sub_T),
            rs::core::multiples_of(stride, m));
        row.bdp_grid = static_cast<int>(states.front().size());
        rs::offline::OfflineResult bdp_fast;
        {
          rs::util::Stopwatch watch;
          bdp_fast = rs::offline::solve_bounded(*cache, states);
          row.bdp_pwl_ms = watch.milliseconds();
        }
        {
          rs::util::Stopwatch watch;
          const rs::offline::OfflineResult bdp_dense =
              rs::offline::solve_bounded(sub, states);
          row.bdp_dense_ms = watch.milliseconds();
          rs::bench::check(bdp_fast.schedule == bdp_dense.schedule,
                           "PWL and dense bounded-DP schedules identical on " +
                               family.name + " m=" + std::to_string(m));
        }
      }

      table.add_row(
          {row.family, std::to_string(row.m), std::to_string(row.T),
           rs::util::TextTable::num(row.pwl_ns_per_step(), 1),
           rs::util::TextTable::num(row.dense_ns_per_step(), 1),
           row.table_ms >= 0.0
               ? rs::util::TextTable::num(row.table_ms * 1e6 / row.T, 1)
               : std::string("skipped"),
           rs::util::TextTable::num(row.speedup_vs_dense(), 1) + "x",
           std::to_string(row.max_breakpoints)});
      rows.push_back(row);
    }
  }
  std::cout << table << "\n";

  rs::util::TextTable solvers_table(
      {"family", "m", "lowmem pwl ms", "lowmem dense ms", "lowmem speedup",
       "grid", "bdp pwl ms", "bdp dense ms", "bdp speedup"});
  for (const ScalingRow& row : rows) {
    solvers_table.add_row(
        {row.family, std::to_string(row.m),
         rs::util::TextTable::num(row.lowmem_pwl_ms, 3),
         row.lowmem_dense_ms >= 0.0
             ? rs::util::TextTable::num(row.lowmem_dense_ms, 3)
             : std::string("skipped"),
         row.lowmem_dense_ms >= 0.0
             ? rs::util::TextTable::num(row.lowmem_speedup(), 1) + "x"
             : std::string("-"),
         std::to_string(row.bdp_grid),
         rs::util::TextTable::num(row.bdp_pwl_ms, 3),
         rs::util::TextTable::num(row.bdp_dense_ms, 3),
         rs::util::TextTable::num(row.bdp_speedup(), 1) + "x"});
  }
  std::cout << "offline solvers (T=" << (smoke ? 64 : 256)
            << " sub-instances, shared PwlProblem cache)\n"
            << solvers_table << "\n";

  if (!smoke) {
    for (const Family& family : families) {
      const ScalingRow* smallest = nullptr;
      const ScalingRow* largest = nullptr;
      for (const ScalingRow& row : rows) {
        if (row.family != family.name) continue;
        if (smallest == nullptr) smallest = &row;
        largest = &row;
        if (row.m == 100000) {
          rs::bench::check(row.speedup_vs_dense() >= 10.0,
                           "PWL >= 10x faster than dense streaming at m=1e5 "
                           "on " + family.name);
          rs::bench::check(row.lowmem_speedup() >= 10.0,
                           "PWL low-memory solve >= 10x over the dense corridor "
                           "pass at m=1e5 "
                           "on " + family.name);
          rs::bench::check(row.bdp_speedup() >= 10.0,
                           "PWL grid bounded-DP >= 10x over dense at m=1e5 "
                           "on " + family.name);
        }
        if (row.m == 1000000) {
          rs::bench::check(row.table_ms < 0.0,
                           "table backend structurally out of reach at m=1e6");
          rs::bench::check(row.pwl_ms >= 0.0,
                           "PWL backend runs at m=1e6 on " + family.name);
          rs::bench::check(row.lowmem_pwl_ms >= 0.0 &&
                               row.lowmem_dense_ms < 0.0,
                           "PWL low-memory solve runs at m=1e6, where the "
                           "dense O(T·m) arm is skipped, on " +
                               family.name);
        }
      }
      rs::bench::check(
          largest->pwl_ns_per_step() <= 2.0 * smallest->pwl_ns_per_step(),
          "PWL per-step time flat (within 2x) from m=1e3 to m=1e6 on " +
              family.name);
    }
  }

  if (!json_path.empty()) {
    std::ofstream out(json_path);
    out << "{\n  \"scaling\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const ScalingRow& row = rows[i];
      out << "    {\"family\": \"" << row.family << "\", \"m\": " << row.m
          << ", \"T\": " << row.T << ", \"pwl_ms\": " << row.pwl_ms
          << ", \"pwl_ns_per_step\": " << row.pwl_ns_per_step()
          << ", \"dense_ms\": " << row.dense_ms
          << ", \"dense_ns_per_step\": " << row.dense_ns_per_step()
          << ", \"table_ms\": " << row.table_ms
          << ", \"dp_pwl_ms\": " << row.dp_pwl_ms
          << ", \"speedup_vs_dense\": " << row.speedup_vs_dense()
          << ", \"max_breakpoints\": " << row.max_breakpoints
          << ", \"sub_T\": " << row.sub_T
          << ", \"lowmem_pwl_ms\": " << row.lowmem_pwl_ms
          << ", \"lowmem_dense_ms\": " << row.lowmem_dense_ms
          << ", \"lowmem_speedup\": " << row.lowmem_speedup()
          << ", \"bdp_grid\": " << row.bdp_grid
          << ", \"bdp_pwl_ms\": " << row.bdp_pwl_ms
          << ", \"bdp_dense_ms\": " << row.bdp_dense_ms
          << ", \"bdp_speedup\": " << row.bdp_speedup() << "}"
          << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::cout << "wrote " << json_path << "\n";
  }

  return rs::bench::finish("E13 (bench_scaling)");
}
