#include "core/transforms.hpp"

#include <memory>
#include <stdexcept>

namespace rs::core {

int next_power_of_two(int n) {
  if (n < 1) throw std::invalid_argument("next_power_of_two: n < 1");
  int p = 1;
  while (p < n) {
    if (p > (1 << 29)) throw std::overflow_error("next_power_of_two: overflow");
    p <<= 1;
  }
  return p;
}

std::vector<int> multiples_of(int step, int m) {
  if (step <= 0) throw std::invalid_argument("multiples_of: step <= 0");
  if (m < 0) throw std::invalid_argument("multiples_of: m < 0");
  std::vector<int> states;
  for (int x = 0; x <= m; x += step) states.push_back(x);
  return states;
}

Problem psi_scale(const Problem& p, int l) {
  if (l < 0 || l > 30) {
    throw std::invalid_argument("psi_scale: l out of [0, 30]");
  }
  const int stride = 1 << l;
  if (p.max_servers() % stride != 0) {
    throw std::invalid_argument("psi_scale: 2^l must divide m");
  }
  std::vector<CostPtr> fs;
  fs.reserve(static_cast<std::size_t>(p.horizon()));
  for (int t = 1; t <= p.horizon(); ++t) {
    fs.push_back(stride == 1
                     ? p.f_ptr(t)
                     : CostPtr(std::make_shared<StrideCost>(p.f_ptr(t), stride)));
  }
  return Problem(p.max_servers() / stride, p.beta() * stride, std::move(fs));
}

Problem stretch_problem(const Problem& p, int factor) {
  if (factor < 1) throw std::invalid_argument("stretch_problem: factor < 1");
  std::vector<CostPtr> fs;
  fs.reserve(static_cast<std::size_t>(p.horizon()) *
             static_cast<std::size_t>(factor));
  const double scale = 1.0 / static_cast<double>(factor);
  for (int t = 1; t <= p.horizon(); ++t) {
    CostPtr replica = factor == 1
                          ? p.f_ptr(t)
                          : CostPtr(std::make_shared<ScaledCost>(p.f_ptr(t), scale));
    for (int copy = 0; copy < factor; ++copy) fs.push_back(replica);
  }
  return Problem(p.max_servers(), p.beta(), std::move(fs));
}

Problem restricted_problem(const RestrictedModel& model,
                           const std::vector<double>& lambdas) {
  if (!model.per_server_cost) {
    throw std::invalid_argument("restricted_problem: null per-server cost");
  }
  if (model.m < 1) throw std::invalid_argument("restricted_problem: m < 1");
  auto shared_f = std::make_shared<const std::function<double(double)>>(
      model.per_server_cost);
  std::vector<CostPtr> fs;
  fs.reserve(lambdas.size());
  for (double lambda : lambdas) {
    if (lambda < 0.0 || lambda > static_cast<double>(model.m)) {
      throw std::invalid_argument(
          "restricted_problem: workload outside [0, m]");
    }
    fs.push_back(std::make_shared<RestrictedSlotCost>(shared_f, lambda));
  }
  return Problem(model.m, model.beta, std::move(fs));
}

}  // namespace rs::core
