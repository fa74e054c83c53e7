#include "scenario/fault_plan.hpp"

#include <limits>
#include <stdexcept>
#include <utility>

#include "util/math_util.hpp"

namespace rs::scenario {

namespace {

// rs-lint: eval-row-ok (per-point default: poisons misbehave alike in rows)
// rs-lint: opaque-cost (a poisoned slot never shares a cache entry)
class PoisonedCost final : public rs::core::CostFunction {
 public:
  PoisonedCost(rs::core::CostPtr base, PoisonKind kind)
      : base_(std::move(base)), kind_(kind) {}

  double at(int x) const override {
    switch (kind_) {
      case PoisonKind::kNaN:
        return std::numeric_limits<double>::quiet_NaN();
      case PoisonKind::kInfeasible:
        return rs::util::kInf;
      case PoisonKind::kThrow:
        throw std::runtime_error("injected fault: poisoned slot cost");
    }
    return base_->at(x);  // unreachable
  }

  // eval_row inherits the default (per-point at() loop), so every poison
  // kind misbehaves identically on the batched path.

  std::string name() const override {
    return "poisoned(" + base_->name() + ")";
  }

 private:
  rs::core::CostPtr base_;
  PoisonKind kind_;
};

}  // namespace

rs::util::FaultInjector make_injector(const FaultPlan& plan) {
  return rs::util::FaultInjector(plan.seed, plan.period);
}

std::vector<int> poisoned_slots(const FaultPlan& plan, int horizon) {
  if (horizon < 0) {
    throw std::invalid_argument("poisoned_slots: horizon < 0");
  }
  const rs::util::FaultInjector injector = make_injector(plan);
  std::vector<int> slots;
  for (int t = 1; t <= horizon; ++t) {
    if (injector.fires(rs::util::FaultSite::kSlotCost,
                       static_cast<std::uint64_t>(t))) {
      slots.push_back(t);
    }
  }
  return slots;
}

rs::core::CostPtr make_poisoned_cost(rs::core::CostPtr base, PoisonKind kind) {
  if (base == nullptr) {
    throw std::invalid_argument("make_poisoned_cost: null base");
  }
  return std::make_shared<const PoisonedCost>(std::move(base), kind);
}

rs::core::Problem apply_fault_plan(const rs::core::Problem& p,
                                   const FaultPlan& plan) {
  const rs::util::FaultInjector injector = make_injector(plan);
  std::vector<rs::core::CostPtr> functions;
  functions.reserve(static_cast<std::size_t>(p.horizon()));
  for (int t = 1; t <= p.horizon(); ++t) {
    rs::core::CostPtr f = p.f_ptr(t);
    if (injector.fires(rs::util::FaultSite::kSlotCost,
                       static_cast<std::uint64_t>(t))) {
      f = make_poisoned_cost(std::move(f), plan.poison);
    }
    functions.push_back(std::move(f));
  }
  return rs::core::Problem(p.max_servers(), p.beta(), std::move(functions));
}

bool fleet_fires(const FaultPlan& plan, rs::util::FaultSite site,
                 std::size_t tenant, std::uint64_t counter) {
  return make_injector(plan).fires(
      site, rs::util::tenant_fault_index(tenant, counter));
}

namespace {

std::vector<std::uint64_t> firing_counters(const FaultPlan& plan,
                                           rs::util::FaultSite site,
                                           std::size_t tenant,
                                           std::uint64_t count) {
  const rs::util::FaultInjector injector = make_injector(plan);
  std::vector<std::uint64_t> fired;
  for (std::uint64_t i = 0; i < count; ++i) {
    if (injector.fires(site, rs::util::tenant_fault_index(tenant, i))) {
      fired.push_back(i);
    }
  }
  return fired;
}

}  // namespace

std::vector<std::uint64_t> corrupted_offers(const FaultPlan& plan,
                                            std::size_t tenant,
                                            std::uint64_t offers) {
  return firing_counters(plan, rs::util::FaultSite::kIngest, tenant, offers);
}

std::vector<std::uint64_t> killed_attempts(const FaultPlan& plan,
                                           std::size_t tenant,
                                           std::uint64_t attempts) {
  return firing_counters(plan, rs::util::FaultSite::kFleetTick, tenant,
                         attempts);
}

}  // namespace rs::scenario
