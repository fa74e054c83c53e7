// Value of prediction windows (Sections 3 and 5.4).
//
// On realistic diurnal traces a small lookahead closes most of the gap to
// the offline optimum; on the Theorem-10 stretched adversarial instances it
// closes none.  This example shows both effects side by side.
//
//   ./example_prediction_window [--days=3] [--servers=24] [--seed=11]
#include <iostream>

#include "rightsizer/rightsizer.hpp"

int main(int argc, char** argv) {
  const rs::util::CliArgs args(argc, argv);
  rs::util::Rng rng(static_cast<std::uint64_t>(args.get_int("seed", 11)));

  // Part 1: diurnal trace, restricted model.
  rs::dcsim::DataCenterModel model;
  model.servers = static_cast<int>(args.get_int("servers", 24));
  const rs::workload::Trace trace = rs::workload::hotmail_like(
      rng, static_cast<int>(args.get_int("days", 3)), 96,
      0.6 * model.servers);
  const rs::core::Problem p =
      rs::dcsim::restricted_datacenter_problem(model, trace);
  const double optimal = rs::offline::DpSolver().solve_cost(p);

  std::cout << "Diurnal trace (" << trace.horizon() << " slots), OPT="
            << optimal << "\n\n";
  rs::util::TextTable table({"window w", "lcp(w)", "lcp ratio", "rhc(w)",
                             "rhc ratio"});
  for (int w : {0, 1, 2, 4, 8, 16, 32}) {
    rs::online::Lcp windowed;
    const rs::core::Schedule lcp_x = rs::online::run_online(windowed, p, w);
    const double lcp_cost = rs::core::total_cost(p, lcp_x);
    rs::online::RecedingHorizon rhc;
    const rs::core::Schedule rhc_x = rs::online::run_online(rhc, p, w);
    const double rhc_cost = rs::core::total_cost(p, rhc_x);
    table.add_row({std::to_string(w), rs::util::TextTable::num(lcp_cost, 2),
                   rs::util::TextTable::num(lcp_cost / optimal, 4),
                   rs::util::TextTable::num(rhc_cost, 2),
                   rs::util::TextTable::num(rhc_cost / optimal, 4)});
  }
  std::cout << table;

  // Part 2: Theorem 10 — the stretched adversarial instance defeats any
  // constant window.
  rs::online::Lcp lcp;
  const rs::lowerbound::AdversaryOutcome base =
      rs::lowerbound::deterministic_discrete_adversary(lcp, 0.05, 3000);
  std::cout << "\nTheorem-10 stretched adversarial instance (factor n*w):\n\n";
  rs::util::TextTable adversarial({"window w", "stretch", "ratio"});
  for (int w : {1, 2, 4}) {
    const int factor = 8 * w;  // n = 8
    const rs::core::Problem stretched =
        rs::lowerbound::stretch_for_window(base.problem, factor);
    rs::online::Lcp windowed;
    const rs::core::Schedule x = rs::online::run_online(windowed, stretched, w);
    const double ratio = rs::core::total_cost(stretched, x) /
                         rs::offline::DpSolver().solve_cost(stretched);
    adversarial.add_row({std::to_string(w), std::to_string(factor),
                         rs::util::TextTable::num(ratio, 4)});
  }
  std::cout << adversarial
            << "\nPredictions help on real workloads but cannot improve the "
               "worst case (Theorem 10).\n";
  return 0;
}
