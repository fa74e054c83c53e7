// Run-length-encoded traces and their instances.
//
// Real arrival traces hold λ_t — and hence the slot cost f_t — constant
// across long stretches (quantized telemetry, night valleys, flat SLAs).
// RleTrace collapses those stretches exactly (rle_decode reproduces the
// trace); rle_problem_from_trace builds the run-grouped instance, a
// core::RleProblem with one cost per run, and rle_compress groups a
// Problem's slots by cost value (equal CostFunction::value_key, so
// factory-fed instances compress too; opaque costs by CostPtr identity).
// Every corridor consumer takes an RleProblem as a core::SlotSource, so
// run_lcp(rle) advances the tracker once per run (core/rle_problem.hpp)
// with schedules bit-identical to the slot-by-slot replay of the expanded
// instance.
#pragma once

#include <functional>
#include <vector>

#include "core/problem.hpp"
#include "core/rle_problem.hpp"
#include "workload/trace.hpp"

namespace rs::scenario {

/// One maximal constant-λ stretch.
struct RleRun {
  double lambda = 0.0;
  int length = 0;
};

struct RleTrace {
  std::vector<RleRun> runs;

  int run_count() const noexcept { return static_cast<int>(runs.size()); }
  int horizon() const noexcept {
    int total = 0;
    for (const RleRun& run : runs) total += run.length;
    return total;
  }
};

/// Groups maximal stretches of bitwise-equal λ values.  Exact: decode
/// reproduces the input trace entry for entry.
RleTrace rle_encode(const rs::workload::Trace& trace);

/// Expands back to one entry per slot.
rs::workload::Trace rle_decode(const RleTrace& rle);

using rs::core::RleProblem;

/// Builds the instance for an RLE trace: one cost per run from `cost_of`
/// (λ -> slot cost), shared across the run's slots.
RleProblem rle_problem_from_trace(
    const RleTrace& rle, int m, double beta,
    const std::function<rs::core::CostPtr(double lambda)>& cost_of);

/// Collapses maximal stretches of equal slots of `p`: equal value keys
/// (core/cost_function.hpp — bitwise-equal evaluations, so the run's first
/// cost stands in exactly for every slot), or the same CostPtr for opaque
/// costs, whose distinct objects always stay separate runs.
RleProblem rle_compress(const rs::core::Problem& p);

}  // namespace rs::scenario
