#include "core/schedule.hpp"

#include <cmath>
#include <stdexcept>

#include "util/math_util.hpp"

namespace rs::core {

using util::KahanSum;
using util::pos;

namespace {

int resolve_tau(int horizon, std::size_t length, int tau, const char* where) {
  if (static_cast<int>(length) != horizon) {
    throw std::invalid_argument(std::string(where) +
                                ": schedule length != horizon");
  }
  if (tau < 0) return horizon;
  if (tau > horizon) {
    throw std::out_of_range(std::string(where) + ": tau > T");
  }
  return tau;
}

// Switching costs depend only on beta; shared by the up and down sums.
double switching_sum(double beta, const Schedule& x, int tau, bool up) {
  KahanSum sum;
  int previous = 0;
  for (int t = 1; t <= tau; ++t) {
    const int current = x[static_cast<std::size_t>(t - 1)];
    sum.add(beta * static_cast<double>(up ? pos(current - previous)
                                          : pos(previous - current)));
    previous = current;
  }
  return sum.value();
}

}  // namespace

bool is_within_bounds(const SlotSource& source, const Schedule& x) {
  if (static_cast<int>(x.size()) != source.horizon()) return false;
  const int m = source.max_servers();
  for (int value : x) {
    if (value < 0 || value > m) return false;
  }
  return true;
}

bool is_feasible(const SlotSource& source, const Schedule& x) {
  if (!is_within_bounds(source, x)) return false;
  for (int t = 1; t <= source.horizon(); ++t) {
    if (std::isinf(source.at(t, x[static_cast<std::size_t>(t - 1)]))) {
      return false;
    }
  }
  return true;
}

double operating_cost(const SlotSource& source, const Schedule& x, int tau) {
  tau = resolve_tau(source.horizon(), x.size(), tau, "operating_cost");
  KahanSum sum;
  for (int t = 1; t <= tau; ++t) {
    sum.add(source.at(t, x[static_cast<std::size_t>(t - 1)]));
  }
  return sum.value();
}

double switching_cost_up(const SlotSource& source, const Schedule& x,
                         int tau) {
  tau = resolve_tau(source.horizon(), x.size(), tau, "switching_cost_up");
  return switching_sum(source.beta(), x, tau, /*up=*/true);
}

double switching_cost_down(const SlotSource& source, const Schedule& x,
                           int tau) {
  tau = resolve_tau(source.horizon(), x.size(), tau, "switching_cost_down");
  return switching_sum(source.beta(), x, tau, /*up=*/false);
}

double cost_up_to(const SlotSource& source, const Schedule& x, int tau) {
  return operating_cost(source, x, tau) + switching_cost_up(source, x, tau);
}

double cost_down_up_to(const SlotSource& source, const Schedule& x, int tau) {
  return operating_cost(source, x, tau) + switching_cost_down(source, x, tau);
}

double total_cost(const SlotSource& source, const Schedule& x) {
  return cost_up_to(source, x, source.horizon());
}

double total_cost_symmetric(const SlotSource& source, const Schedule& x) {
  resolve_tau(source.horizon(), x.size(), -1, "total_cost_symmetric");
  const double beta = source.beta();
  KahanSum sum;
  int previous = 0;
  for (int t = 1; t <= source.horizon(); ++t) {
    const int current = x[static_cast<std::size_t>(t - 1)];
    sum.add(source.at(t, current));
    sum.add(0.5 * beta * std::fabs(static_cast<double>(current - previous)));
    previous = current;
  }
  sum.add(0.5 * beta * std::fabs(static_cast<double>(previous)));  // x_{T+1}=0
  return sum.value();
}

double interval_cost(const SlotSource& source, const Schedule& x, int a,
                     int b) {
  if (a < 0 || b > source.horizon() || a > b) {
    throw std::out_of_range("interval_cost: bad interval");
  }
  if (static_cast<int>(x.size()) != source.horizon()) {
    throw std::invalid_argument("interval_cost: schedule length != horizon");
  }
  const double beta = source.beta();
  KahanSum sum;
  for (int t = std::max(a, 1); t <= b; ++t) {
    sum.add(source.at(t, x[static_cast<std::size_t>(t - 1)]));
  }
  for (int t = std::max(a, 0) + 1; t <= b; ++t) {
    const int previous = t - 1 >= 1 ? x[static_cast<std::size_t>(t - 2)] : 0;
    const int current = x[static_cast<std::size_t>(t - 1)];
    sum.add(beta * static_cast<double>(pos(current - previous)));
  }
  return sum.value();
}

// --- fractional -------------------------------------------------------------

double operating_cost(const Problem& p, const FractionalSchedule& x, int tau) {
  tau = resolve_tau(p.horizon(), x.size(), tau, "operating_cost(frac)");
  KahanSum sum;
  for (int t = 1; t <= tau; ++t) {
    sum.add(p.cost_at_real(t, x[static_cast<std::size_t>(t - 1)]));
  }
  return sum.value();
}

double switching_cost_up(const Problem& p, const FractionalSchedule& x,
                         int tau) {
  tau = resolve_tau(p.horizon(), x.size(), tau, "switching_cost_up(frac)");
  KahanSum sum;
  double previous = 0.0;
  for (int t = 1; t <= tau; ++t) {
    const double current = x[static_cast<std::size_t>(t - 1)];
    sum.add(p.beta() * pos(current - previous));
    previous = current;
  }
  return sum.value();
}

double total_cost(const Problem& p, const FractionalSchedule& x) {
  return operating_cost(p, x) + switching_cost_up(p, x);
}

double total_cost_symmetric(const Problem& p, const FractionalSchedule& x) {
  resolve_tau(p.horizon(), x.size(), -1, "total_cost_symmetric(frac)");
  KahanSum sum;
  double previous = 0.0;
  for (int t = 1; t <= p.horizon(); ++t) {
    const double current = x[static_cast<std::size_t>(t - 1)];
    sum.add(p.cost_at_real(t, current));
    sum.add(0.5 * p.beta() * std::fabs(current - previous));
    previous = current;
  }
  sum.add(0.5 * p.beta() * std::fabs(previous));
  return sum.value();
}

Schedule floor_schedule(const FractionalSchedule& x) {
  Schedule out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = static_cast<int>(std::floor(x[i]));
  }
  return out;
}

Schedule ceil_schedule(const FractionalSchedule& x) {
  Schedule out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = static_cast<int>(std::ceil(x[i]));
  }
  return out;
}

FractionalSchedule to_fractional(const Schedule& x) {
  return FractionalSchedule(x.begin(), x.end());
}

}  // namespace rs::core
