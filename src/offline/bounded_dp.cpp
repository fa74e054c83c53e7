#include "offline/bounded_dp.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>
#include <stdexcept>

#include "core/transforms.hpp"
#include "util/math_util.hpp"
#include "util/workspace.hpp"

namespace rs::offline {

using rs::core::ConvexPwl;
using rs::core::SlotSource;
using rs::util::kInf;
using rs::util::pos;

namespace {

// Checks one non-empty, sorted column per slot within [0, max_state];
// returns the widest column's size.
std::size_t validate_columns(int horizon, int max_state,
                             const std::vector<std::vector<int>>& states) {
  if (static_cast<int>(states.size()) != horizon) {
    throw std::invalid_argument("solve_bounded: need one state set per slot");
  }
  std::size_t max_columns = 1;
  for (const std::vector<int>& column : states) {
    if (column.empty()) {
      throw std::invalid_argument("solve_bounded: empty candidate column");
    }
    if (!std::is_sorted(column.begin(), column.end())) {
      throw std::invalid_argument("solve_bounded: candidates must be sorted");
    }
    if (column.front() < 0 || column.back() > max_state) {
      throw std::invalid_argument("solve_bounded: candidate out of [0, m]");
    }
    max_columns = std::max(max_columns, column.size());
  }
  return max_columns;
}

// Stride s when every column is the same arithmetic progression
// {0, s, 2s, ..}, the shape of the full-state and Φ_k grid configurations
// (Section 2.3); 0 otherwise.  Only these columns admit the convex label
// fast path — a sparse irregular candidate set is not a convex domain.
int uniform_grid_stride(const std::vector<std::vector<int>>& states) {
  if (states.empty()) return 0;
  const std::vector<int>& first = states.front();
  if (first.front() != 0) return 0;
  const int stride = first.size() > 1 ? first[1] : 1;
  if (stride <= 0) return 0;
  for (std::size_t i = 0; i < first.size(); ++i) {
    if (first[i] != static_cast<int>(i) * stride) return 0;
  }
  for (const std::vector<int>& column : states) {
    if (column != first) return 0;
  }
  return stride;
}

// The transition kernel β·(y − y')⁺ as a function of y' on [0, m_y]:
// slope −β up to y, flat after — what a dense parent scan adds to the
// previous labels before taking its smallest argmin.
ConvexPwl up_transition_kernel(double beta, int y, int m_y) {
  rs::core::ConvexPwlBuilder builder;
  builder.start(0, beta * static_cast<double>(y));
  if (y > 0) builder.run(-beta, y);
  if (y < m_y) builder.run(0.0, m_y);
  return *builder.finish(rs::core::kUnboundedBreakpoints);
}

// Convex label fast path for uniform-grid columns: in grid units y = x/s
// the restricted DP is the plain DP with β_y = β·s and f_y(y) = f(y·s), so
// the labels W_t are convex PWL whenever the slot costs are — one step
// costs O(K + B) independent of both m and the column size (the dense
// kernel below enumerates |column|² transitions).  The per-step labels are
// retained (O(T·K) memory) so the schedule is reconstructed with the dense
// path's exact tie-breaking: final state = smallest argmin of W_T, parent
// of y = smallest argmin of W_{t-1}(y') + β_y(y − y')⁺ — the same "strict
// improvement, ascending scan" rule the parent pointers record.
OfflineResult solve_bounded_grid_pwl(const rs::core::PwlProblem& pwl,
                                     int stride, int m_y) {
  const int T = pwl.horizon();
  const double beta_y = pwl.beta() * static_cast<double>(stride);
  std::vector<ConvexPwl> labels;
  labels.reserve(static_cast<std::size_t>(T));
  ConvexPwl w = ConvexPwl::point(0, 0.0);  // x_0 = 0
  for (int t = 1; t <= T; ++t) {
    w.relax_charge_up(beta_y, 0, m_y);
    // add() intersects domains, so a form whose feasible range ends below
    // (or starts above) the grid restricts the labels exactly like the
    // dense kernel's +inf candidates.
    w.add(pwl.form(t).resample_stride(stride));
    labels.push_back(w);
  }

  OfflineResult result;
  if (w.is_infinite()) {
    result.cost = kInf;
    return result;
  }
  const ConvexPwl::ArgminInterval last = w.argmin();
  result.cost = last.value;
  if (!result.feasible()) return result;

  result.schedule.assign(static_cast<std::size_t>(T), 0);
  int y = last.lo;
  result.schedule[static_cast<std::size_t>(T - 1)] = y * stride;
  for (int t = T; t >= 2; --t) {
    ConvexPwl h = labels[static_cast<std::size_t>(t - 2)];
    h.add(up_transition_kernel(beta_y, y, m_y));
    if (h.is_infinite()) {
      throw std::logic_error("solve_bounded: no predecessor for a state on "
                             "a feasible path");
    }
    y = h.argmin().lo;
    result.schedule[static_cast<std::size_t>(t - 2)] = y * stride;
  }
  return result;
}

}  // namespace

OfflineResult solve_columns(int max_state, double beta,
                            const std::vector<std::vector<int>>& states,
                            const ColumnReader& read, BoundedDpStats* stats) {
  const int T = static_cast<int>(states.size());
  const std::size_t max_columns = validate_columns(T, max_state, states);
  if (T == 0) return OfflineResult{{}, 0.0};
  OfflineResult result;

  // labels[i]: best cost ending in states[t-1][i].  Parents for backtracking
  // live in one flat workspace buffer (offsets[t-1] is slot t's base), so
  // the repeated-solve consumers (binary-search grids, sweeps) stay
  // allocation-free after warm-up.
  rs::util::Workspace& workspace = rs::util::this_thread_workspace();
  auto offsets = workspace.borrow<std::int64_t>(static_cast<std::size_t>(T) + 1);
  offsets[0] = 0;
  for (int t = 1; t <= T; ++t) {
    offsets[static_cast<std::size_t>(t)] =
        offsets[static_cast<std::size_t>(t - 1)] +
        static_cast<std::int64_t>(states[static_cast<std::size_t>(t - 1)].size());
  }
  auto parents = workspace.borrow<std::int32_t>(
      static_cast<std::size_t>(offsets[static_cast<std::size_t>(T)]));
  auto labels = workspace.borrow<double>(max_columns);
  auto previous_labels = workspace.borrow<double>(max_columns);
  auto fvals = workspace.borrow<double>(max_columns);  // f_t over the column

  static constexpr int kOrigin[] = {0};  // x_0 = 0
  std::span<const int> previous_column{kOrigin};
  previous_labels[0] = 0.0;
  // The label relax skips a NaN candidate value like any `<` fold would,
  // so the evaluated values' NaN report decides a poisoned result.
  bool poisoned = false;

  for (int t = 1; t <= T; ++t) {
    const std::vector<int>& column = states[static_cast<std::size_t>(t - 1)];
    std::fill(labels.begin(), labels.begin() + column.size(), kInf);
    std::int32_t* parent_row =
        parents.data() + offsets[static_cast<std::size_t>(t - 1)];
    std::fill(parent_row, parent_row + column.size(), std::int32_t{-1});

    read(t, column, fvals.span());
    poisoned =
        poisoned || rs::util::any_nan(fvals.span().first(column.size()));
    if (stats != nullptr) {
      stats->function_evaluations += static_cast<std::int64_t>(column.size());
    }

    for (std::size_t i = 0; i < column.size(); ++i) {
      const double fv = fvals[i];
      if (std::isinf(fv)) continue;
      double best = kInf;
      std::int32_t best_parent = -1;
      for (std::size_t j = 0; j < previous_column.size(); ++j) {
        if (stats != nullptr) ++stats->transitions_evaluated;
        if (std::isinf(previous_labels[j])) continue;
        const double candidate =
            previous_labels[j] +
            beta * static_cast<double>(pos(column[i] - previous_column[j]));
        if (candidate < best) {
          best = candidate;
          best_parent = static_cast<std::int32_t>(j);
        }
      }
      if (std::isfinite(best)) {
        labels[i] = best + fv;
        parent_row[i] = best_parent;
      }
    }
    previous_column = column;
    std::swap(labels.vec(), previous_labels.vec());
  }
  if (poisoned) {
    result.cost = std::numeric_limits<double>::quiet_NaN();
    return result;
  }

  const std::size_t final_size = previous_column.size();
  const auto best_it = std::min_element(previous_labels.begin(),
                                        previous_labels.begin() + final_size);
  result.cost = *best_it;
  if (!result.feasible()) return result;

  result.schedule.assign(static_cast<std::size_t>(T), 0);
  std::int32_t index =
      static_cast<std::int32_t>(best_it - previous_labels.begin());
  for (int t = T; t >= 1; --t) {
    result.schedule[static_cast<std::size_t>(t - 1)] =
        states[static_cast<std::size_t>(t - 1)][static_cast<std::size_t>(index)];
    index = parents[static_cast<std::size_t>(
        offsets[static_cast<std::size_t>(t - 1)] + index)];
  }
  return result;
}

OfflineResult solve_bounded(const SlotSource& source,
                            const std::vector<std::vector<int>>& states,
                            BoundedDpStats* stats) {
  validate_columns(source.horizon(), source.max_servers(), states);
  if (const rs::core::PwlProblem* pwl = source.pwl(); pwl != nullptr) {
    if (const int stride = uniform_grid_stride(states); stride > 0) {
      // stats stays untouched on this path: the label recursion enumerates
      // no per-state evaluations or transitions, which is the point.
      return solve_bounded_grid_pwl(
          *pwl, stride, static_cast<int>(states.front().size()) - 1);
    }
  }
  return solve_columns(
      source.max_servers(), source.beta(), states,
      [&source](int t, std::span<const int> xs, std::span<double> out) {
        source.gather(t, xs, out);
      },
      stats);
}

OfflineResult solve_phi_restricted(const SlotSource& source, int k) {
  // 2^k must fit an int; any k past log2(m) already leaves only {0}.
  if (k < 0 || k > 30) {
    throw std::invalid_argument("solve_phi_restricted: k out of [0, 30]");
  }
  const std::vector<int> column =
      rs::core::multiples_of(1 << k, source.max_servers());
  return solve_bounded(
      source,
      std::vector<std::vector<int>>(static_cast<std::size_t>(source.horizon()),
                                    column));
}

}  // namespace rs::offline
