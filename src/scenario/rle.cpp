#include "scenario/rle.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

namespace rs::scenario {

using rs::core::CostPtr;
using rs::core::Problem;

RleTrace rle_encode(const rs::workload::Trace& trace) {
  RleTrace rle;
  for (double value : trace.lambda) {
    // Bitwise grouping (==): exactness matters more than merging nearly
    // equal levels — a lossy merge would change the replayed instance.
    if (!rle.runs.empty() && rle.runs.back().lambda == value) {
      ++rle.runs.back().length;
    } else {
      rle.runs.push_back(RleRun{value, 1});
    }
  }
  return rle;
}

rs::workload::Trace rle_decode(const RleTrace& rle) {
  rs::workload::Trace trace;
  trace.lambda.reserve(static_cast<std::size_t>(rle.horizon()));
  for (const RleRun& run : rle.runs) {
    for (int i = 0; i < run.length; ++i) trace.lambda.push_back(run.lambda);
  }
  return trace;
}

RleProblem rle_problem_from_trace(
    const RleTrace& rle, int m, double beta,
    const std::function<CostPtr(double lambda)>& cost_of) {
  if (!cost_of) {
    throw std::invalid_argument("rle_problem_from_trace: null cost factory");
  }
  std::vector<RleProblem::Run> runs;
  runs.reserve(rle.runs.size());
  for (const RleRun& run : rle.runs) {
    runs.push_back(RleProblem::Run{cost_of(run.lambda), run.length});
  }
  return RleProblem(m, beta, std::move(runs));
}

RleProblem rle_compress(const Problem& p) {
  std::vector<RleProblem::Run> runs;
  std::optional<rs::core::ValueKey> run_key;  // of runs.back(); none: opaque
  for (int t = 1; t <= p.horizon(); ++t) {
    CostPtr f = p.f_ptr(t);
    std::optional<rs::core::ValueKey> key = f->value_key();
    if (!runs.empty() && (runs.back().cost == f || (key && key == run_key))) {
      ++runs.back().length;
    } else {
      runs.push_back(RleProblem::Run{std::move(f), 1});
      run_key = std::move(key);
    }
  }
  return RleProblem(p.max_servers(), p.beta(), std::move(runs));
}

}  // namespace rs::scenario
