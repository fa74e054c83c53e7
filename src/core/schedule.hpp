// Schedules and exact cost evaluation.
//
// A schedule X = (x_1,..,x_T) assigns the number of active servers per slot
// with the convention x_0 = x_{T+1} = 0.  This header provides the cost
// decompositions used throughout the paper:
//
//   C(X)      = Σ_t f_t(x_t) + β Σ_t (x_t − x_{t−1})⁺              (eq. 1)
//   C^L_τ(X)  = operating + power-UP switching cost up to τ        (eq. 11)
//   C^U_τ(X)  = operating + power-DOWN switching cost up to τ      (eq. 12)
//   C_sym(X)  = Σ_t f_t(x_t) + (β/2) Σ_{t=1}^{T+1} |x_t − x_{t−1}| (Section 5)
//
// For closed schedules C_sym == C because power-ups equal power-downs.
// Fractional (continuous-setting) schedules evaluate through the continuous
// extension f̄_t of eq. (3).
#pragma once

#include <vector>

#include "core/problem.hpp"
#include "core/slot_source.hpp"

namespace rs::core {

/// Integral schedule; index t-1 holds x_t.
using Schedule = std::vector<int>;

/// Fractional schedule of the continuous setting; index t-1 holds x̄_t.
using FractionalSchedule = std::vector<double>;

// --- integral costs ---------------------------------------------------------
//
// One definition per function, over any input form (core/slot_source.hpp):
// f_t(x_t) is f_t.at on a Problem or RleProblem, a table lookup on a
// DenseProblem and the form's value on a PwlProblem.  The sums run in one
// fixed order (Kahan operating sum + Kahan switching sum), so the result is
// bitwise the same for a Problem, its table and its runs; a PwlProblem
// agrees up to its conversion contract (DESIGN.md §8).  A state outside
// [0, m] throws std::out_of_range on every form.

/// True iff 0 <= x_t <= m for all t and the schedule length equals T.
bool is_within_bounds(const SlotSource& source, const Schedule& x);

/// True iff within bounds and all visited states have finite operating cost
/// (e.g. respects x_t >= λ_t in the restricted model).
bool is_feasible(const SlotSource& source, const Schedule& x);

/// R_τ(X): operating cost of the first `tau` slots (default: all T).
double operating_cost(const SlotSource& source, const Schedule& x,
                      int tau = -1);

/// S^L_τ(X) = β Σ_{t<=τ} (x_t − x_{t−1})⁺, switching paid on power-up.
double switching_cost_up(const SlotSource& source, const Schedule& x,
                         int tau = -1);

/// S^U_τ(X) = β Σ_{t<=τ} (x_{t−1} − x_t)⁺, switching paid on power-down.
double switching_cost_down(const SlotSource& source, const Schedule& x,
                           int tau = -1);

/// C^L_τ(X) = R_τ + S^L_τ (eq. 11); for τ = T this is the objective (eq. 1).
double cost_up_to(const SlotSource& source, const Schedule& x, int tau = -1);

/// C^U_τ(X) = R_τ + S^U_τ (eq. 12).
double cost_down_up_to(const SlotSource& source, const Schedule& x,
                       int tau = -1);

/// The objective C(X) of eq. (1).
double total_cost(const SlotSource& source, const Schedule& x);

/// Section-5 symmetric accounting: Σ f + (β/2) Σ_{t=1}^{T+1} |Δx|, charging
/// half of β per unit in each direction and closing the schedule at 0.
double total_cost_symmetric(const SlotSource& source, const Schedule& x);

/// C_{[a,b]}(X) of Section 2.3: Σ_{t=a}^{b} f_t(x_t) + β Σ_{t=a+1}^{b}
/// (x_t − x_{t−1})⁺ with f_0 := 0 (a may be 0).
double interval_cost(const SlotSource& source, const Schedule& x, int a,
                     int b);

// --- fractional costs -------------------------------------------------------
//
// On the Problem only: fractional states interpolate between integer values
// through the continuous extension of eq. (3).

double operating_cost(const Problem& p, const FractionalSchedule& x,
                      int tau = -1);
double switching_cost_up(const Problem& p, const FractionalSchedule& x,
                         int tau = -1);
double total_cost(const Problem& p, const FractionalSchedule& x);
double total_cost_symmetric(const Problem& p, const FractionalSchedule& x);

/// Round every entry down / up (Lemma 4 operands).
Schedule floor_schedule(const FractionalSchedule& x);
Schedule ceil_schedule(const FractionalSchedule& x);

/// Exact fractional copy of an integral schedule.
FractionalSchedule to_fractional(const Schedule& x);

}  // namespace rs::core
