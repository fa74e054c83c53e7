// E2 — Theorem 1 (table form): the paper's binary-search offline algorithm
// touches O(T·log m) cost values and matches the exact DP optimum, while
// the DP touches all T·(m+1).  Rows report measured evaluation counts,
// iteration counts, runtimes and the cost agreement.  The counts and costs
// come from one solve per row; each runtime is the median of kTimedSolves
// warm solves of the row's instance that follow it.
#include <algorithm>
#include <vector>

#include "bench_common.hpp"

namespace {

constexpr int kTimedSolves = 9;

// Median wall time of kTimedSolves calls of `solve`, in milliseconds.
template <typename Solve>
double median_ms(Solve&& solve) {
  std::vector<double> ms;
  for (int i = 0; i < kTimedSolves; ++i) {
    const rs::util::Stopwatch watch;
    solve();
    ms.push_back(watch.milliseconds());
  }
  std::nth_element(ms.begin(), ms.begin() + kTimedSolves / 2, ms.end());
  return ms[kTimedSolves / 2];
}

// Times the binary-search solve of `p` as the rows run it.
double binary_search_ms(const rs::core::Problem& p) {
  return median_ms([&p]() {
    rs::offline::BinarySearchStats stats;
    (void)rs::offline::BinarySearchSolver().solve_with_stats(p, stats);
  });
}

}  // namespace

int main() {
  std::cout << "E2 / Theorem 1: offline optimal in O(T log m)\n\n";
  rs::util::Rng rng(7);

  std::cout << "-- m-scaling at fixed T = 64 --\n";
  rs::util::TextTable m_table({"m", "iterations", "f-evals (bsearch)",
                               "f-evals (dp)", "bsearch ms", "dp ms",
                               "costs equal"});
  for (int log_m : {6, 8, 10, 12, 14, 16}) {
    const int m = 1 << log_m;
    const int T = 64;
    const rs::core::Problem p = rs::workload::random_instance(
        rng, rs::workload::InstanceFamily::kQuadratic, T, m, 2.0);

    rs::offline::BinarySearchStats stats;
    const rs::offline::OfflineResult fast =
        rs::offline::BinarySearchSolver().solve_with_stats(p, stats);
    const double dp_cost = rs::offline::DpSolver().solve_cost(p);
    const double bsearch_ms = binary_search_ms(p);
    const double dp_ms =
        median_ms([&p]() { (void)rs::offline::DpSolver().solve_cost(p); });

    const bool equal = std::abs(fast.cost - dp_cost) <= 1e-6 * (1.0 + dp_cost);
    rs::bench::check(equal, "binary search optimal at m=" + std::to_string(m));
    rs::bench::check(stats.dp.function_evaluations <=
                         static_cast<std::int64_t>(5) * T * (log_m + 2),
                     "O(T log m) evaluation bound at m=" + std::to_string(m));

    m_table.add_row({std::to_string(m), std::to_string(stats.iterations),
                     std::to_string(stats.dp.function_evaluations),
                     std::to_string(static_cast<std::int64_t>(T) * (m + 1)),
                     rs::util::TextTable::num(bsearch_ms, 2),
                     rs::util::TextTable::num(dp_ms, 2),
                     equal ? "yes" : "NO"});
  }
  std::cout << m_table;

  std::cout << "\n-- T-scaling at fixed m = 4096 --\n";
  rs::util::TextTable t_table(
      {"T", "f-evals (bsearch)", "evals per T", "bsearch ms", "costs equal"});
  for (int T : {64, 128, 256, 512, 1024}) {
    const int m = 4096;
    const rs::core::Problem p = rs::workload::random_instance(
        rng, rs::workload::InstanceFamily::kQuadratic, T, m, 2.0);
    rs::offline::BinarySearchStats stats;
    const rs::offline::OfflineResult fast =
        rs::offline::BinarySearchSolver().solve_with_stats(p, stats);
    const double elapsed_ms = binary_search_ms(p);
    const double dp_cost = rs::offline::DpSolver().solve_cost(p);
    const bool equal = std::abs(fast.cost - dp_cost) <= 1e-6 * (1.0 + dp_cost);
    rs::bench::check(equal, "binary search optimal at T=" + std::to_string(T));
    t_table.add_row({std::to_string(T),
                     std::to_string(stats.dp.function_evaluations),
                     rs::util::TextTable::num(
                         static_cast<double>(stats.dp.function_evaluations) / T,
                         1),
                     rs::util::TextTable::num(elapsed_ms, 2),
                     equal ? "yes" : "NO"});
  }
  std::cout << t_table;
  std::cout << "\nEvaluations per column stay ~5·(log2 m − 1) independent of "
               "T; the DP touches all (m+1) states per column.\n";
  return rs::bench::finish("E2 (Theorem 1)");
}
