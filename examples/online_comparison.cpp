// Side-by-side comparison of the online policies on a bursty general-model
// workload: LCP, LCP with prediction windows, follow-the-minimizer, the
// fractional 2-competitive LevelFlow, the randomized rounding algorithm
// (expected cost), and the best static level — all against the offline
// optimum.
//
//   ./example_online_comparison [--T=600] [--servers=24] [--seed=3]
#include <iostream>

#include "rightsizer/rightsizer.hpp"

int main(int argc, char** argv) {
  const rs::util::CliArgs args(argc, argv);
  const int T = static_cast<int>(args.get_int("T", 600));
  rs::util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 3)));

  rs::dcsim::SoftSlaModel model;
  model.servers = static_cast<int>(args.get_int("servers", 24));

  rs::workload::Mmpp2Params burst;
  burst.horizon = T;
  burst.rate_low = 0.15 * model.servers;
  burst.rate_high = 0.7 * model.servers;
  const rs::workload::Trace trace = rs::workload::mmpp2(rng, burst);
  const rs::core::Problem p = rs::dcsim::soft_sla_problem(model, trace);

  const double optimal = rs::offline::DpSolver().solve_cost(p);

  rs::util::TextTable table({"policy", "cost", "ratio", "operating",
                             "switching"});
  auto add_report = [&](const rs::analysis::RatioReport& report,
                        const std::string& label) {
    table.add_row({label, rs::util::TextTable::num(report.algorithm_cost, 2),
                   rs::util::TextTable::num(report.ratio, 4),
                   rs::util::TextTable::num(report.operating_cost, 2),
                   rs::util::TextTable::num(report.switching_cost, 2)});
  };

  rs::online::Lcp lcp;
  add_report(rs::analysis::measure_ratio(lcp, p), "lcp");

  for (int w : {1, 4, 16}) {
    rs::online::Lcp windowed;
    add_report(rs::analysis::measure_ratio(windowed, p, w),
               "lcp(w=" + std::to_string(w) + ")");
  }

  rs::online::FollowTheMinimizer follow;
  add_report(rs::analysis::measure_ratio(follow, p), "follow_min");

  rs::online::LevelFlow flow;
  add_report(rs::analysis::measure_ratio(flow, p), "level_flow (frac)");

  const rs::analysis::MonteCarloReport random_rounding =
      rs::analysis::monte_carlo_randomized_rounding(p, 64, 2024);
  table.add_row({"randomized (E[64 runs])",
                 rs::util::TextTable::num(random_rounding.cost.mean, 2),
                 rs::util::TextTable::num(random_rounding.ratio.mean, 4),
                 "-", "-"});

  const rs::online::StaticOptimum static_best = rs::online::best_static_level(p);
  table.add_row({"static(best)", rs::util::TextTable::num(static_best.cost, 2),
                 rs::util::TextTable::num(static_best.cost / optimal, 4), "-",
                 "-"});

  std::cout << "Offline optimum: " << optimal << "\n\n" << table;
  std::cout << "\nGuarantees: lcp <= 3 (Thm 2), level_flow <= 2, "
               "randomized E[cost] <= 2 (Thm 3).\n";
  return 0;
}
