// Mixed-form instances: leading slots with compact convex-PWL forms
// (AffineAbsCost), then opaque M/M/1 restricted slots (RestrictedSlotCost).
// The instance as a whole has no compact form, but a pass that picked its
// backend slot by slot would run PWL labels over the leading slots and
// dense ones after; on seeds 21, 78, 86 and 168 such a pass and an
// all-dense one give costs that differ in the last bits.  The engine, the
// form-axis and the delta-session suites share this builder.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/cost_function.hpp"
#include "core/problem.hpp"
#include "dcsim/cost_model.hpp"
#include "util/rng.hpp"
#include "workload/generators.hpp"

namespace rs::test_support {

// m = 16 + 8 · (seed mod 4) servers, T = 48 slots of which the first
// 4 + (seed mod 16) are compact; every draw follows from `seed`.
inline rs::core::Problem mixed_form_instance(std::uint64_t seed) {
  rs::util::Rng rng(1000 + seed);
  rs::dcsim::DataCenterModel model;
  model.servers = 16 + 8 * static_cast<int>(seed % 4);
  const rs::workload::Trace trace =
      rs::workload::hotmail_like(rng, 1, 48, 0.6 * model.servers);
  const rs::core::Problem restricted =
      rs::dcsim::restricted_datacenter_problem(model, trace);
  const int leading = 4 + static_cast<int>(seed % 16);
  std::vector<rs::core::CostPtr> fs;
  for (int t = 1; t <= restricted.horizon(); ++t) {
    if (t <= leading) {
      const double slope = rng.uniform(0.001, 0.05);
      const double center = rng.uniform(0.0, model.servers);
      fs.push_back(std::make_shared<rs::core::AffineAbsCost>(
          slope, center, rng.uniform(0.0, 0.1)));
    } else {
      fs.push_back(restricted.f_ptr(t));
    }
  }
  return rs::core::Problem(restricted.max_servers(), restricted.beta(),
                           std::move(fs));
}

}  // namespace rs::test_support
