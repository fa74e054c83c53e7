// E9 — Theorem 10: finite prediction windows do not improve the lower
// bounds.
//
// Each adversary function is replaced by n·w copies at scale 1/(n·w); an
// algorithm with window w then effectively gains knowledge of only a
// (1/n)-fraction of each original slot.  The table shows LCP-with-window
// ratios on stretched instances staying near 3 for every w, while on a
// *realistic* diurnal trace the same windows close most of the optimality
// gap — predictions help in practice, never in the worst case.
#include "bench_common.hpp"

int main() {
  std::cout << "E9 / Theorem 10: prediction windows and the lower bound\n\n";

  // Part 1: stretched adversarial instances.
  rs::online::Lcp lcp;
  const rs::lowerbound::AdversaryOutcome base =
      rs::lowerbound::deterministic_discrete_adversary(lcp, 0.05, 4000);

  std::cout << "-- stretched adversarial instance (n = 8) --\n";
  rs::util::TextTable adversarial({"window w", "stretch n*w", "T'",
                                   "lcp(w) ratio"});
  for (int w : {0, 1, 2, 4}) {
    const int factor = std::max(1, 8 * w);
    const rs::core::Problem stretched =
        rs::lowerbound::stretch_for_window(base.problem, factor);
    rs::online::Lcp windowed;
    const rs::core::Schedule x = rs::online::run_online(windowed, stretched, w);
    const double optimal = rs::offline::DpSolver().solve_cost(stretched);
    const double ratio = rs::core::total_cost(stretched, x) / optimal;
    rs::bench::check(ratio > 2.5,
                     "window w=" + std::to_string(w) +
                         " cannot escape the stretched lower bound");
    rs::bench::check(ratio <= 3.0 + 1e-9, "within the Theorem-2 bound");
    adversarial.add_row({std::to_string(w), std::to_string(factor),
                         std::to_string(stretched.horizon()),
                         rs::util::TextTable::num(ratio, 4)});
  }
  std::cout << adversarial;

  // Part 2: the same windows on a realistic trace (LCP(w), RHC, AFHC).
  std::cout << "\n-- hotmail-like trace (windows help in practice) --\n";
  rs::util::Rng rng(17);
  const rs::core::Problem trace_problem =
      rs::bench::hotmail_restricted(rng, 24, 2, 1.0);
  const double optimal = rs::offline::DpSolver().solve_cost(trace_problem);
  rs::util::TextTable realistic(
      {"window w", "lcp(w) ratio", "rhc ratio", "afhc ratio"});
  double w0_ratio = 0.0;
  double w16_ratio = 0.0;
  for (int w : {0, 1, 4, 16}) {
    rs::online::Lcp windowed;
    const rs::core::Schedule x =
        rs::online::run_online(windowed, trace_problem, w);
    const double ratio = rs::core::total_cost(trace_problem, x) / optimal;
    if (w == 0) w0_ratio = ratio;
    if (w == 16) w16_ratio = ratio;

    rs::online::RecedingHorizon rhc;
    const rs::core::Schedule rhc_x =
        rs::online::run_online(rhc, trace_problem, w);
    const double rhc_ratio =
        rs::core::total_cost(trace_problem, rhc_x) / optimal;

    rs::online::AveragingFixedHorizon afhc(w);
    const rs::core::FractionalSchedule afhc_x =
        rs::online::run_online(afhc, trace_problem, w);
    const double afhc_ratio =
        rs::core::total_cost(trace_problem, afhc_x) / optimal;

    realistic.add_row({std::to_string(w), rs::util::TextTable::num(ratio, 4),
                       rs::util::TextTable::num(rhc_ratio, 4),
                       rs::util::TextTable::num(afhc_ratio, 4)});
  }
  rs::bench::check(w16_ratio <= w0_ratio + 1e-9,
                   "lookahead does not hurt on the realistic trace");
  std::cout << realistic;
  std::cout << "\nWorst-case ratio is invariant in w (Theorem 10); realistic "
               "traces benefit from lookahead.\n";
  return rs::bench::finish("E9 (Theorem 10)");
}
