// Unit and property tests for the cost-function families, the convexity
// validator, minimizer searches, and the continuous extension (eq. 3).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/cost_function.hpp"
#include "core/piecewise_linear.hpp"
#include "scenario/fault_plan.hpp"
#include "util/math_util.hpp"
#include "util/rng.hpp"

namespace {

using namespace rs::core;
using rs::util::kInf;

TEST(TableCost, EvaluatesTableAndExtendsLinearly) {
  TableCost f({5.0, 3.0, 2.0, 4.0});
  EXPECT_DOUBLE_EQ(f.at(0), 5.0);
  EXPECT_DOUBLE_EQ(f.at(3), 4.0);
  // extension slope = 4 - 2 = 2
  EXPECT_DOUBLE_EQ(f.at(4), 6.0);
  EXPECT_DOUBLE_EQ(f.at(6), 10.0);
}

TEST(TableCost, EmptyTableThrows) {
  EXPECT_THROW(TableCost({}), std::invalid_argument);
}

TEST(TableCost, NegativeArgumentThrows) {
  TableCost f({1.0});
  EXPECT_THROW(f.at(-1), std::invalid_argument);
}

TEST(TableCost, SingleEntryExtendsFlat) {
  TableCost f({7.0});
  EXPECT_DOUBLE_EQ(f.at(0), 7.0);
  EXPECT_DOUBLE_EQ(f.at(10), 7.0);
}

TEST(AffineAbsCost, MatchesPhiFunctions) {
  // ϕ0(x) = ε|x|, ϕ1(x) = ε|1 - x| with ε = 0.25
  AffineAbsCost phi0(0.25, 0.0);
  AffineAbsCost phi1(0.25, 1.0);
  EXPECT_DOUBLE_EQ(phi0.at(0), 0.0);
  EXPECT_DOUBLE_EQ(phi0.at(4), 1.0);
  EXPECT_DOUBLE_EQ(phi1.at(1), 0.0);
  EXPECT_DOUBLE_EQ(phi1.at(0), 0.25);
  EXPECT_DOUBLE_EQ(phi1.at_real(0.5), 0.125);
}

TEST(AffineAbsCost, NegativeSlopeThrows) {
  EXPECT_THROW(AffineAbsCost(-1.0, 0.0), std::invalid_argument);
}

TEST(QuadraticCost, EvaluatesAndValidates) {
  QuadraticCost f(2.0, 3.0, 1.0);
  EXPECT_DOUBLE_EQ(f.at(3), 1.0);
  EXPECT_DOUBLE_EQ(f.at(5), 9.0);
  EXPECT_THROW(QuadraticCost(-0.1, 0.0), std::invalid_argument);
}

TEST(FunctionCost, WrapsCallable) {
  FunctionCost f([](int x) { return static_cast<double>(x * x); }, "sq");
  EXPECT_DOUBLE_EQ(f.at(4), 16.0);
  EXPECT_EQ(f.name(), "sq");
  EXPECT_THROW(FunctionCost(nullptr), std::invalid_argument);
}

TEST(RestrictedSlotCost, ImplementsPerspectiveWithConstraint) {
  // f(z) = z^2: slot cost x * (λ/x)^2 = λ^2 / x for x >= λ.
  auto f = std::make_shared<const std::function<double(double)>>(
      [](double z) { return z * z; });
  RestrictedSlotCost slot(f, 2.0);
  EXPECT_TRUE(std::isinf(slot.at(1)));  // below λ: infeasible
  EXPECT_DOUBLE_EQ(slot.at(2), 2.0);    // 2 * 1^2
  EXPECT_DOUBLE_EQ(slot.at(4), 1.0);    // 4 * (1/2)^2
  EXPECT_DOUBLE_EQ(slot.lambda(), 2.0);
}

TEST(RestrictedSlotCost, ZeroWorkloadAllowsEmptyCenter) {
  auto f = std::make_shared<const std::function<double(double)>>(
      [](double z) { return 1.0 + z; });  // nonzero idle cost
  RestrictedSlotCost slot(f, 0.0);
  EXPECT_DOUBLE_EQ(slot.at(0), 0.0);
  EXPECT_DOUBLE_EQ(slot.at(3), 3.0);  // 3 * f(0)
}

TEST(RestrictedSlotCost, NegativeWorkloadThrows) {
  auto f = std::make_shared<const std::function<double(double)>>(
      [](double) { return 0.0; });
  EXPECT_THROW(RestrictedSlotCost(f, -1.0), std::invalid_argument);
}

TEST(LinearLoadSlotCost, ClosedFormMatchesRestrictedPerspective) {
  // f(z) = base + rate·z, so x·f(λ/x) = base·x + rate·λ on x >= λ — the
  // LinearLoadSlotCost closed form must agree with RestrictedSlotCost over
  // the same tariff everywhere (both +inf below λ).
  const double base = 0.75;
  const double rate = 1.5;
  const double lambda = 3.3;
  auto f = std::make_shared<const std::function<double(double)>>(
      [base, rate](double z) { return base + rate * z; });
  const RestrictedSlotCost opaque(f, lambda);
  const LinearLoadSlotCost linear(base, rate, lambda);
  for (int x = 0; x <= 12; ++x) {
    if (std::isinf(opaque.at(x))) {
      EXPECT_TRUE(std::isinf(linear.at(x))) << "x=" << x;
    } else {
      EXPECT_NEAR(linear.at(x), opaque.at(x), 1e-12) << "x=" << x;
    }
  }
  EXPECT_TRUE(linear.is_convex());
  EXPECT_DOUBLE_EQ(linear.base(), base);
  EXPECT_DOUBLE_EQ(linear.rate(), rate);
  EXPECT_DOUBLE_EQ(linear.lambda(), lambda);
}

TEST(LinearLoadSlotCost, EvalRowBitIdenticalToAt) {
  const LinearLoadSlotCost slot(0.3, 2.0, 4.7);
  const int m = 11;
  std::vector<double> row(static_cast<std::size_t>(m) + 1);
  slot.eval_row(m, row);
  for (int x = 0; x <= m; ++x) {
    EXPECT_EQ(row[static_cast<std::size_t>(x)], slot.at(x)) << "x=" << x;
  }
}

TEST(LinearLoadSlotCost, ZeroWorkloadAllowsEmptyCenter) {
  const LinearLoadSlotCost slot(1.25, 3.0, 0.0);
  EXPECT_DOUBLE_EQ(slot.at(0), 0.0);
  EXPECT_DOUBLE_EQ(slot.at(4), 5.0);  // base·x, no load term
  const CostFunctionReport report = validate_cost_function(slot, 9);
  EXPECT_TRUE(report.ok());
}

TEST(LinearLoadSlotCost, WorkloadBeyondCapacityIsAllInfinite) {
  const LinearLoadSlotCost slot(1.0, 1.0, 100.5);
  for (int x = 0; x <= 8; ++x) EXPECT_TRUE(std::isinf(slot.at(x)));
  const auto form = slot.as_convex_pwl(8);
  ASSERT_TRUE(form.has_value());
  EXPECT_TRUE(form->is_infinite());
}

TEST(LinearLoadSlotCost, RejectsInvalidParameters) {
  EXPECT_THROW(LinearLoadSlotCost(-1.0, 0.0, 0.0), std::invalid_argument);
  EXPECT_THROW(LinearLoadSlotCost(0.0, -1.0, 0.0), std::invalid_argument);
  EXPECT_THROW(LinearLoadSlotCost(0.0, 0.0, -1.0), std::invalid_argument);
  EXPECT_THROW(LinearLoadSlotCost(0.0, 0.0, std::nan("")),
               std::invalid_argument);
  EXPECT_THROW(LinearLoadSlotCost(1.0, 1.0, 2.0).at(-1),
               std::invalid_argument);
}

TEST(RestrictedSlotCost, PerspectiveIsConvex) {
  // Perspective of several convex f's must validate as convex with an inf
  // prefix at x < λ.
  for (double lambda : {0.0, 0.5, 1.0, 2.5, 7.0}) {
    auto f = std::make_shared<const std::function<double(double)>>(
        [](double z) { return 0.3 + z * z + 0.5 * z; });
    RestrictedSlotCost slot(f, lambda);
    const CostFunctionReport report = validate_cost_function(slot, 16);
    EXPECT_TRUE(report.ok()) << "lambda=" << lambda;
    EXPECT_EQ(report.first_finite,
              lambda == 0.0 ? 0 : static_cast<int>(std::ceil(lambda)));
  }
}

TEST(ScaledCost, ScalesValues) {
  auto base = std::make_shared<AffineAbsCost>(1.0, 0.0);
  ScaledCost f(base, 0.5);
  EXPECT_DOUBLE_EQ(f.at(4), 2.0);
  EXPECT_DOUBLE_EQ(f.at_real(1.5), 0.75);
  EXPECT_THROW(ScaledCost(base, -1.0), std::invalid_argument);
  EXPECT_THROW(ScaledCost(nullptr, 1.0), std::invalid_argument);
}

TEST(StrideCost, ImplementsPsiComposition) {
  auto base = std::make_shared<QuadraticCost>(1.0, 0.0);
  StrideCost f(base, 4);
  EXPECT_DOUBLE_EQ(f.at(3), 144.0);  // (3*4)^2
  EXPECT_THROW(StrideCost(base, 0), std::invalid_argument);
}

TEST(PaddedCost, KeepsBaseAndDominatesAbove) {
  auto base = std::make_shared<TableCost>(std::vector<double>{4.0, 1.0, 3.0});
  PaddedCost f(base, 2);
  EXPECT_DOUBLE_EQ(f.at(0), 4.0);
  EXPECT_DOUBLE_EQ(f.at(2), 3.0);
  // extension slope = max(3-1, 0) + 1 = 3
  EXPECT_DOUBLE_EQ(f.at(3), 6.0);
  EXPECT_DOUBLE_EQ(f.at(5), 12.0);
  // padded region is strictly increasing => states > m dominated
  EXPECT_GT(f.at(3), f.at(2));
}

TEST(PaddedCost, PaddedFunctionStaysConvex) {
  rs::util::Rng rng(99);
  for (int trial = 0; trial < 20; ++trial) {
    // Random convex table via random non-decreasing slopes.
    const int m = 5;
    std::vector<double> values(m + 1);
    values[0] = rng.uniform(0.0, 5.0);
    double slope = rng.uniform(-3.0, 0.0);
    for (int x = 1; x <= m; ++x) {
      slope += rng.uniform(0.0, 2.0);
      values[x] = values[x - 1] + slope;
    }
    const double shift = *std::min_element(values.begin(), values.end());
    for (double& v : values) v -= std::min(shift, 0.0);
    auto base = std::make_shared<TableCost>(values);
    PaddedCost padded(base, m);
    EXPECT_TRUE(validate_cost_function(padded, 2 * m).ok());
  }
}

TEST(Validate, AcceptsConvexRejectsConcave) {
  TableCost convex({3.0, 1.0, 0.0, 0.5, 2.0});
  EXPECT_TRUE(validate_cost_function(convex, 4).ok());

  TableCost concave({0.0, 2.0, 3.0, 3.5, 3.6});  // slopes decreasing
  EXPECT_FALSE(validate_cost_function(concave, 4).convex);
}

TEST(Validate, RejectsNegative) {
  TableCost f({1.0, -0.5, 2.0});
  EXPECT_FALSE(validate_cost_function(f, 2).non_negative);
}

TEST(Validate, InfPrefixAndSuffixAllowed) {
  TableCost f({kInf, kInf, 1.0, 0.5, 2.0, kInf});
  const CostFunctionReport report = validate_cost_function(f, 5);
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.first_finite, 2);
  EXPECT_EQ(report.last_finite, 4);
}

TEST(Validate, GapInFiniteRangeRejected) {
  TableCost f({1.0, kInf, 1.0});
  const CostFunctionReport report = validate_cost_function(f, 2);
  EXPECT_FALSE(report.contiguous_finite_range);
  EXPECT_FALSE(report.ok());
}

TEST(Validate, AllInfiniteReported) {
  TableCost f({kInf, kInf});
  const CostFunctionReport report = validate_cost_function(f, 1);
  EXPECT_FALSE(report.finite_somewhere);
  EXPECT_FALSE(report.ok());
}

TEST(Validate, NanRejected) {
  TableCost f({0.0, std::nan(""), 1.0});
  EXPECT_FALSE(validate_cost_function(f, 2).ok());
}

TEST(Minimizers, ScanFindsSmallestAndLargest) {
  TableCost f({4.0, 2.0, 2.0, 2.0, 5.0});
  EXPECT_EQ(smallest_minimizer_scan(f, 4), 1);
  EXPECT_EQ(largest_minimizer_scan(f, 4), 3);
}

TEST(Minimizers, ConvexBinarySearchMatchesScan) {
  rs::util::Rng rng(123);
  for (int trial = 0; trial < 50; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(1, 64));
    const double center = rng.uniform(-2.0, m + 2.0);
    const double curvature = rng.uniform(0.1, 3.0);
    QuadraticCost f(curvature, center);
    EXPECT_EQ(smallest_minimizer_convex(f, m), smallest_minimizer_scan(f, m))
        << "m=" << m << " center=" << center;
  }
}

TEST(Minimizers, ConvexSearchHandlesFlatRegions) {
  TableCost f({5.0, 3.0, 3.0, 3.0, 4.0});
  EXPECT_EQ(smallest_minimizer_convex(f, 4), 1);
}

TEST(Minimizers, ConvexSearchHandlesInfPrefix) {
  TableCost f({kInf, kInf, 4.0, 2.0, 3.0});
  EXPECT_EQ(smallest_minimizer_convex(f, 4), 3);
  EXPECT_EQ(smallest_minimizer_scan(f, 4), 3);
}

TEST(Interpolation, MatchesEquationThree) {
  TableCost f({2.0, 0.0, 4.0});
  // f̄(x) = (⌈x⌉-x) f(⌊x⌋) + (x-⌊x⌋) f(⌈x⌉)
  EXPECT_DOUBLE_EQ(interpolate(f, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(interpolate(f, 0.25), 1.5);
  EXPECT_DOUBLE_EQ(interpolate(f, 1.5), 2.0);
  EXPECT_DOUBLE_EQ(interpolate(f, 2.0), 4.0);
}

TEST(Interpolation, DefaultAtRealAgreesWithInterpolate) {
  TableCost f({3.0, 1.0, 2.0, 6.0});
  for (double x = 0.0; x <= 3.0; x += 0.125) {
    EXPECT_DOUBLE_EQ(f.at_real(x), interpolate(f, x));
  }
}

TEST(Interpolation, ExactOverridesCoincideOnIntegerBreakpoints) {
  // AffineAbs with integer center: closed form equals interpolation.
  AffineAbsCost f(0.5, 2.0, 0.25);
  for (double x = 0.0; x <= 5.0; x += 0.25) {
    EXPECT_NEAR(f.at_real(x), interpolate(f, x), 1e-12);
  }
}

TEST(Interpolation, InfinityPropagates) {
  TableCost f({kInf, 1.0, 2.0});
  EXPECT_TRUE(std::isinf(interpolate(f, 0.5)));
  EXPECT_DOUBLE_EQ(interpolate(f, 1.0), 1.0);
}

TEST(Interpolation, NegativeArgumentThrows) {
  TableCost f({1.0});
  EXPECT_THROW(f.at_real(-0.5), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Value keys: equal full keys mean bitwise-equal results
// ---------------------------------------------------------------------------

// A keyed family built from a flat parameter list; `integral` marks the
// entries that are integers (perturbed by +1, the rest by one ULP).
struct KeyedFamily {
  const char* name;
  std::vector<double> params;
  std::vector<bool> integral;
  std::function<CostPtr(const std::vector<double>&)> make;
};

std::vector<KeyedFamily> keyed_families() {
  const auto affine = [](double slope, double center) {
    return std::make_shared<AffineAbsCost>(slope, center, 0.0);
  };
  return {
      {"table", {3.0, 1.0, 0.5, 1.0, 4.0}, {},
       [](const std::vector<double>& p) -> CostPtr {
         return std::make_shared<TableCost>(p);
       }},
      {"affine_abs", {0.75, 2.5, 0.25}, {},
       [](const std::vector<double>& p) -> CostPtr {
         return std::make_shared<AffineAbsCost>(p[0], p[1], p[2]);
       }},
      {"quadratic", {0.5, 3.25, 1.0}, {},
       [](const std::vector<double>& p) -> CostPtr {
         return std::make_shared<QuadraticCost>(p[0], p[1], p[2]);
       }},
      {"linear_load", {1.0, 0.5, 2.5}, {},
       [](const std::vector<double>& p) -> CostPtr {
         return std::make_shared<LinearLoadSlotCost>(p[0], p[1], p[2]);
       }},
      {"piecewise_linear", {0.0, 4.0, 1.5, 1.0, 4.0, 1.0, 6.5, 6.0}, {},
       [](const std::vector<double>& p) -> CostPtr {
         std::vector<Breakpoint> bps;
         for (std::size_t i = 0; i + 1 < p.size(); i += 2) {
           bps.push_back({p[i], p[i + 1]});
         }
         return std::make_shared<PiecewiseLinearCost>(std::move(bps));
       }},
      {"sum", {0.5, 2.0, 0.25, 3.0, 4.5}, {},
       [](const std::vector<double>& p) -> CostPtr {
         return std::make_shared<SumCost>(std::vector<CostPtr>{
             std::make_shared<AffineAbsCost>(p[0], p[1], p[2]),
             make_shortfall_hinge(p[3], p[4])});
       }},
      {"scaled", {1.5, 1.0, 3.0}, {},
       [affine](const std::vector<double>& p) -> CostPtr {
         return std::make_shared<ScaledCost>(affine(p[1], p[2]), p[0]);
       }},
      {"stride", {2.0, 1.0, 5.0}, {true, false, false},
       [affine](const std::vector<double>& p) -> CostPtr {
         return std::make_shared<StrideCost>(affine(p[1], p[2]),
                                             static_cast<int>(p[0]));
       }},
      {"padded", {5.0, 1.0, 2.0}, {true, false, false},
       [affine](const std::vector<double>& p) -> CostPtr {
         return std::make_shared<PaddedCost>(affine(p[1], p[2]),
                                             static_cast<int>(p[0]));
       }},
  };
}

void expect_bitwise_equal(const CostFunction& a, const CostFunction& b,
                          const std::string& label) {
  for (int m : {1, 5, 12, 33}) {
    for (int x = 0; x <= m + 2; ++x) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(a.at(x)),
                std::bit_cast<std::uint64_t>(b.at(x)))
          << label << " at(" << x << ")";
    }
    std::vector<double> row_a(static_cast<std::size_t>(m) + 1);
    std::vector<double> row_b(row_a.size());
    a.eval_row(m, row_a);
    b.eval_row(m, row_b);
    EXPECT_EQ(std::memcmp(row_a.data(), row_b.data(),
                          row_a.size() * sizeof(double)),
              0)
        << label << " eval_row(" << m << ")";
    for (int budget : {kUnboundedBreakpoints, compact_pwl_budget_for(m), 2}) {
      const std::optional<ConvexPwl> form_a = a.as_convex_pwl(m, budget);
      const std::optional<ConvexPwl> form_b = b.as_convex_pwl(m, budget);
      ASSERT_EQ(form_a.has_value(), form_b.has_value()) << label;
      if (form_a) {
        EXPECT_TRUE(form_a->bitwise_equal(*form_b))
            << label << " as_convex_pwl(" << m << ", " << budget << ")";
      }
    }
  }
  for (double x : {0.0, 0.25, 1.5, 2.75, 7.125}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.at_real(x)),
              std::bit_cast<std::uint64_t>(b.at_real(x)))
        << label << " at_real(" << x << ")";
  }
  EXPECT_EQ(a.is_convex(), b.is_convex()) << label;
}

TEST(ValueKey, EqualParametersGiveEqualKeysAndBitwiseResults) {
  for (const KeyedFamily& family : keyed_families()) {
    const CostPtr a = family.make(family.params);
    const CostPtr b = family.make(family.params);
    ASSERT_NE(a.get(), b.get());
    const std::optional<ValueKey> key = a->value_key();
    ASSERT_TRUE(key.has_value()) << family.name;
    EXPECT_EQ(key, b->value_key()) << family.name;
    expect_bitwise_equal(*a, *b, family.name);
  }
}

TEST(ValueKey, ChangingAnySingleParameterChangesTheKey) {
  for (const KeyedFamily& family : keyed_families()) {
    const std::optional<ValueKey> base =
        family.make(family.params)->value_key();
    for (std::size_t i = 0; i < family.params.size(); ++i) {
      std::vector<double> changed = family.params;
      const bool integral = i < family.integral.size() && family.integral[i];
      changed[i] = integral ? changed[i] + 1.0
                            : std::nextafter(changed[i], 1e300);
      EXPECT_NE(family.make(changed)->value_key(), base)
          << family.name << " parameter " << i;
    }
  }
  // Distinct families with the same parameter words never collide.
  EXPECT_NE(AffineAbsCost(1.0, 2.0, 0.5).value_key(),
            QuadraticCost(1.0, 2.0, 0.5).value_key());
}

TEST(ValueKey, SignedZerosKeyApart) {
  EXPECT_NE(AffineAbsCost(1.0, 0.0, 0.0).value_key(),
            AffineAbsCost(1.0, -0.0, 0.0).value_key());
  EXPECT_NE(TableCost({0.0, 1.0}).value_key(),
            TableCost({-0.0, 1.0}).value_key());
  // Labels are not values: they never split a key.
  EXPECT_EQ(TableCost({0.0, 1.0}, "a").value_key(),
            TableCost({0.0, 1.0}, "b").value_key());
}

TEST(ValueKey, OpaqueFamiliesAndDecoratorsOverThemHaveNoKey) {
  const CostPtr function = std::make_shared<FunctionCost>(
      [](int x) { return static_cast<double>(x); });
  const CostPtr restricted = std::make_shared<RestrictedSlotCost>(
      std::make_shared<const std::function<double(double)>>(
          [](double z) { return 1.0 + z; }),
      2.0);
  const CostPtr keyed = std::make_shared<AffineAbsCost>(1.0, 2.0);
  const std::vector<CostPtr> opaque = {
      function,
      restricted,
      rs::scenario::make_poisoned_cost(keyed, rs::scenario::PoisonKind::kNaN),
      std::make_shared<SumCost>(std::vector<CostPtr>{keyed, function}),
      std::make_shared<ScaledCost>(restricted, 2.0),
      std::make_shared<StrideCost>(function, 2),
      std::make_shared<PaddedCost>(function, 4),
  };
  for (const CostPtr& f : opaque) {
    EXPECT_FALSE(f->value_key().has_value()) << f->name();
  }
}

}  // namespace
