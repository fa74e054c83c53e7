// Instance transforms used by the offline algorithm (Section 2), the
// restricted model (eq. 2), and the prediction-window lower bound
// (Theorem 10).
#pragma once

#include <functional>
#include <vector>

#include "core/problem.hpp"

namespace rs::core {

/// Smallest power of two >= n (n >= 1).
int next_power_of_two(int n);

/// The state set M_k = {n in [m]_0 : n mod 2^k = 0} of the Φ_k transform.
std::vector<int> multiples_of(int step, int m);

/// Ψ_l rescaling (Section 2.3): (T, m/2^l, β·2^l, f'_t(x) = f_t(x·2^l)).
/// Requires 0 <= l <= 30 and 2^l to divide m (else std::invalid_argument).
Problem psi_scale(const Problem& p, int l);

/// Theorem-10 stretching: each f_t is replaced by `factor` consecutive
/// copies of f_t / factor, preserving per-slot totals.  The horizon becomes
/// T·factor.
Problem stretch_problem(const Problem& p, int factor);

// ---------------------------------------------------------------------------
// Restricted model (paper eq. 2)
// ---------------------------------------------------------------------------

/// The restricted model of Lin et al.: a single convex per-server load cost
/// f(z), z in [0,1], shared by all slots; slot t has workload λ_t and the
/// constraint x_t >= λ_t.  Distributing load equally is optimal, so the slot
/// cost is x·f(λ_t/x).
struct RestrictedModel {
  std::function<double(double)> per_server_cost;  // f(z), convex on [0,1]
  int m = 1;
  double beta = 1.0;
};

/// Builds the equivalent general-model instance: f_t(x) = x·f(λ_t/x) with
/// +inf below the constraint.  Requires 0 <= λ_t <= m.
Problem restricted_problem(const RestrictedModel& model,
                           const std::vector<double>& lambdas);

}  // namespace rs::core
