// One read-only view over the four forms an instance can arrive in:
//
//   * a Problem: one CostFunction per slot;
//   * a DenseProblem: materialized value rows f_t(0..m);
//   * a PwlProblem: exact convex-PWL forms, converted once;
//   * an RleProblem: (CostFunction, run length) runs.
//
// Every corridor consumer (compute_bounds, run_lcp), every OfflineSolver
// (DpSolver, LowMemorySolver, GraphSolver, BruteForceSolver,
// BackwardSolver, BinarySearchSolver), the integral cost accounting of
// core/schedule, solve_bounded / solve_phi_restricted and the ratio
// harnesses (measure_ratio, monte_carlo) are written once over this view.  It owns
// nothing — the instance must outlive it — and its constructors are
// implicit, like std::span's, so any of the four binds to a
// `const SlotSource&` as is.  Row consumers visit the form once per call,
// never once per slot: for_each_run loops over the form's native slot
// type, so a consumer's loop body is instantiated per type and stays
// monomorphic.  Point consumers read through gather / at, one visit per
// slot.  The form also fixes the backend of materialized inputs (rows run
// dense, forms run PWL); a caller's backend choice only applies to the
// CostFunction forms.
#pragma once

#include <span>
#include <stdexcept>
#include <type_traits>
#include <variant>

#include "core/convex_pwl.hpp"
#include "core/dense_problem.hpp"
#include "core/problem.hpp"
#include "core/pwl_problem.hpp"
#include "core/rle_problem.hpp"

namespace rs::core {

class SlotSource {
  // Calls fn(instance) on the wrapped form (defined first: the members
  // below deduce their return types through it).
  template <typename Fn>
  decltype(auto) visit(Fn&& fn) const {
    return std::visit([&fn](const auto* src) { return fn(*src); }, src_);
  }

 public:
  SlotSource(const Problem& p) noexcept : src_(&p) {}
  SlotSource(const DenseProblem& d) noexcept : src_(&d) {}
  SlotSource(const PwlProblem& p) noexcept : src_(&p) {}
  SlotSource(const RleProblem& r) noexcept : src_(&r) {}

  int max_servers() const {
    return visit([](const auto& src) { return src.max_servers(); });
  }
  double beta() const {
    return visit([](const auto& src) { return src.beta(); });
  }
  int horizon() const {
    return visit([](const auto& src) { return src.horizon(); });
  }
  /// True for the Problem and RleProblem forms.
  bool has_cost_functions() const noexcept {
    return problem() != nullptr || rle() != nullptr;
  }

  /// The wrapped instance, or nullptr when the source has another form.
  const Problem* problem() const noexcept { return get<Problem>(); }
  const DenseProblem* dense() const noexcept { return get<DenseProblem>(); }
  const PwlProblem* pwl() const noexcept { return get<PwlProblem>(); }
  const RleProblem* rle() const noexcept { return get<RleProblem>(); }

  /// In-order runs: fn(slot, length) with slot a `const CostFunction&`
  /// (Problem, RleProblem), a `std::span<const double>` row (DenseProblem)
  /// or a `const ConvexPwl&` (PwlProblem).  Only an RleProblem yields
  /// lengths above 1.
  template <typename Fn>
  void for_each_run(Fn&& fn) const {
    visit([&fn](const auto& src) {
      if constexpr (std::is_same_v<std::decay_t<decltype(src)>, RleProblem>) {
        for (const RleProblem::Run& run : src.runs()) {
          fn(static_cast<const CostFunction&>(*run.cost), run.length);
        }
      } else {
        for (int t = 1; t <= src.horizon(); ++t) fn(slot(src, t), 1);
      }
    });
  }

  /// for_each_run with every slot as its value row: fn(row, length).
  /// DenseProblem rows are table views; the other forms are evaluated once
  /// per run into `scratch` (m + 1 values, reused by the next run).  Rows
  /// are passed as they are: a consumer whose folds would drop a NaN checks
  /// for it (the dense pass of offline/dp_solver.hpp does, before it steps).
  template <typename Fn>
  void for_each_row(std::span<double> scratch, Fn&& fn) const {
    for_each_run([&](const auto& slot, int length) {
      fn(as_row(slot, scratch), length);
    });
  }

  /// The value row f_t(0..m) of slot t (1-based): a table view for a
  /// DenseProblem, else evaluated into `scratch` (m + 1 values).
  std::span<const double> row(int t, std::span<double> scratch) const {
    return visit(
        [&](const auto& src) { return as_row(slot(src, t), scratch); });
  }

  /// f_t over the ascending states `xs` into out[0, |xs|) (1 <= t <= T):
  /// table lookups on a DenseProblem, one walk of the form on a PwlProblem
  /// (ConvexPwl::eval_at_sorted), and on the CostFunction forms one
  /// eval_row when xs is all of {0,..,m}, else f_t.at per state — so a
  /// sparse gather stays sublinear in m.  A table and its cost functions
  /// yield the same bits.  Throws std::out_of_range when a state lies
  /// outside [0, m], on every form.
  void gather(int t, std::span<const int> xs, std::span<double> out) const {
    visit([&](const auto& src) {
      if (!xs.empty() && (xs.front() < 0 || xs.back() > src.max_servers())) {
        throw std::out_of_range("SlotSource::gather: state out of [0, m]");
      }
      gather_slot(slot(src, t), xs, out);
    });
  }

  /// f_t(x), the one-state gather.
  double at(int t, int x) const {
    double value = 0.0;
    gather(t, {&x, 1}, {&value, 1});
    return value;
  }

 private:
  template <typename T>
  const T* get() const noexcept {
    const T* const* src = std::get_if<const T*>(&src_);
    return src != nullptr ? *src : nullptr;
  }

  static const CostFunction& slot(const Problem& p, int t) { return p.f(t); }
  static std::span<const double> slot(const DenseProblem& d, int t) {
    return d.row(t);
  }
  static const ConvexPwl& slot(const PwlProblem& p, int t) {
    return p.form(t);
  }
  static const CostFunction& slot(const RleProblem& r, int t) {
    return r.f(t);
  }

  static std::span<const double> as_row(std::span<const double> row,
                                        std::span<double> /*scratch*/) {
    return row;
  }
  std::span<const double> as_row(const CostFunction& f,
                                 std::span<double> scratch) const {
    f.eval_row(max_servers(), scratch);
    return scratch;
  }
  std::span<const double> as_row(const ConvexPwl& f,
                                 std::span<double> scratch) const {
    f.materialize(max_servers(), scratch);
    return scratch;
  }

  static void gather_slot(std::span<const double> row,
                          std::span<const int> xs, std::span<double> out) {
    for (std::size_t i = 0; i < xs.size(); ++i) {
      out[i] = row[static_cast<std::size_t>(xs[i])];
    }
  }
  void gather_slot(const CostFunction& f, std::span<const int> xs,
                   std::span<double> out) const {
    const int m = max_servers();
    bool full = xs.size() == static_cast<std::size_t>(m) + 1;
    for (std::size_t i = 0; full && i < xs.size(); ++i) {
      full = xs[i] == static_cast<int>(i);
    }
    if (full) {
      f.eval_row(m, out);  // one virtual call for the whole row
      return;
    }
    for (std::size_t i = 0; i < xs.size(); ++i) out[i] = f.at(xs[i]);
  }
  static void gather_slot(const ConvexPwl& f, std::span<const int> xs,
                          std::span<double> out) {
    f.eval_at_sorted(xs, out);
  }

  std::variant<const Problem*, const DenseProblem*, const PwlProblem*,
               const RleProblem*>
      src_;
};

}  // namespace rs::core
