#include "analysis/competitive.hpp"

#include <stdexcept>

#include "core/schedule.hpp"
#include "offline/dp_solver.hpp"

namespace rs::analysis {

using rs::core::SlotSource;

namespace {

double safe_ratio(double algorithm_cost, double optimal_cost) {
  if (!(optimal_cost > 0.0)) return 0.0;
  return algorithm_cost / optimal_cost;
}

void check_scoring(const rs::core::Problem& p, const SlotSource& scoring) {
  if (scoring.horizon() != p.horizon() ||
      scoring.max_servers() != p.max_servers() || scoring.beta() != p.beta()) {
    throw std::invalid_argument(
        "measure_ratio: scoring source does not match the instance");
  }
}

}  // namespace

RatioReport measure_ratio(rs::online::OnlineAlgorithm& algorithm,
                          const rs::core::Problem& p,
                          const SlotSource& scoring, int window) {
  check_scoring(p, scoring);
  RatioReport report;
  report.algorithm = algorithm.name();
  const rs::core::Schedule x = rs::online::run_online(algorithm, p, window);
  report.operating_cost = rs::core::operating_cost(scoring, x);
  report.switching_cost = rs::core::switching_cost_up(scoring, x);
  report.algorithm_cost = report.operating_cost + report.switching_cost;
  report.optimal_cost = rs::offline::DpSolver().solve_cost(scoring);
  report.ratio = safe_ratio(report.algorithm_cost, report.optimal_cost);
  return report;
}

RatioReport measure_ratio(rs::online::OnlineAlgorithm& algorithm,
                          const rs::core::Problem& p, int window) {
  return measure_ratio(algorithm, p, SlotSource(p), window);
}

RatioReport measure_ratio(rs::online::FractionalOnlineAlgorithm& algorithm,
                          const rs::core::Problem& p,
                          const SlotSource& scoring, int window) {
  check_scoring(p, scoring);
  RatioReport report;
  report.algorithm = algorithm.name();
  const rs::core::FractionalSchedule x =
      rs::online::run_online(algorithm, p, window);
  report.operating_cost = rs::core::operating_cost(p, x);
  report.switching_cost = rs::core::switching_cost_up(p, x);
  report.algorithm_cost = report.operating_cost + report.switching_cost;
  report.optimal_cost = rs::offline::DpSolver().solve_cost(scoring);
  report.ratio = safe_ratio(report.algorithm_cost, report.optimal_cost);
  return report;
}

RatioReport measure_ratio(rs::online::FractionalOnlineAlgorithm& algorithm,
                          const rs::core::Problem& p, int window) {
  return measure_ratio(algorithm, p, SlotSource(p), window);
}

}  // namespace rs::analysis
