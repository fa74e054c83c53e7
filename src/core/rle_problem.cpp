#include "core/rle_problem.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace rs::core {

RleProblem::RleProblem(int m, double beta, std::vector<Run> runs)
    : m_(m), beta_(beta), horizon_(0), runs_(std::move(runs)) {
  if (m < 0) throw std::invalid_argument("RleProblem: m < 0");
  if (!(beta > 0.0)) {
    throw std::invalid_argument("RleProblem: beta must be > 0");
  }
  ends_.reserve(runs_.size());
  for (const Run& run : runs_) {
    if (!run.cost) throw std::invalid_argument("RleProblem: null cost");
    if (run.length < 1) {
      throw std::invalid_argument("RleProblem: run length < 1");
    }
    horizon_ += run.length;
    ends_.push_back(horizon_);
  }
}

const CostFunction& RleProblem::f(int t) const {
  if (t < 1 || t > horizon_) {
    throw std::out_of_range("RleProblem::f: slot outside [1, T]");
  }
  const auto run = std::lower_bound(ends_.begin(), ends_.end(), t);
  return *runs_[static_cast<std::size_t>(run - ends_.begin())].cost;
}

Problem RleProblem::expand() const {
  std::vector<CostPtr> fs;
  fs.reserve(static_cast<std::size_t>(horizon_));
  for (const Run& run : runs_) {
    for (int i = 0; i < run.length; ++i) fs.push_back(run.cost);
  }
  return Problem(m_, beta_, std::move(fs));
}

}  // namespace rs::core
