// The convex piecewise-linear backend (core/convex_pwl.hpp) and its
// equivalence with the dense-row backend.
//
// Three layers of evidence:
//   * unit tests of the ConvexPwl operations against O(m²) brute-force
//     references (the relax min-convolutions, add, argmin, all-infinite
//     operands) and of the builder edge cases (duplicate slopes, merge
//     epsilon, budget, non-convex rejection);
//   * conversion tests: CostFunction::as_convex_pwl agrees with at() for
//     every family and decorator that claims a compact form, and declines
//     exactly where documented;
//   * backend equivalence: the PWL-backed tracker / LCP / windowed LCP /
//     DP fast path reproduce the dense backend's bounds, schedules and
//     costs — bit-identically on integer-valued instances (all FP
//     arithmetic is exact there, including tie-breaking on cost plateaus),
//     and within 1e-9 on the random double families (DESIGN.md §8).
#include <gtest/gtest.h>

#include <cmath>
#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "rightsizer/rightsizer.hpp"

namespace {

using rs::core::ConvexPwl;
using rs::core::ConvexPwlBuilder;
using rs::core::CostPtr;
using rs::core::Problem;
using rs::core::Schedule;
using rs::offline::WorkFunctionTracker;
using rs::util::kInf;
using rs::workload::InstanceFamily;
using Backend = rs::offline::WorkFunctionTracker::Backend;

// O(m²) references for the two relax operators, straight from eqs. 11/12.
std::vector<double> brute_relax(const std::vector<double>& w, double beta,
                                bool charge_up) {
  const int m = static_cast<int>(w.size()) - 1;
  std::vector<double> out(w.size(), kInf);
  for (int x = 0; x <= m; ++x) {
    for (int xp = 0; xp <= m; ++xp) {
      const double move =
          charge_up
              ? (xp <= x ? beta * (x - xp) : 0.0)
              : (xp >= x ? beta * (xp - x) : 0.0);
      out[static_cast<std::size_t>(x)] =
          std::min(out[static_cast<std::size_t>(x)],
                   w[static_cast<std::size_t>(xp)] + move);
    }
  }
  return out;
}

// Integer-valued convex tables: every operation downstream stays exact in
// double arithmetic, so the PWL and dense backends must agree bit for bit
// (including tie-breaking on exact plateaus).
Problem integer_instance(rs::util::Rng& rng, int T, int m, double beta) {
  std::vector<CostPtr> fs;
  for (int t = 0; t < T; ++t) {
    std::vector<double> values(static_cast<std::size_t>(m) + 1);
    double v = static_cast<double>(rng.uniform_int(0, 6));
    double slope = static_cast<double>(rng.uniform_int(0, 4)) - 2.0;
    values[0] = v;
    for (int x = 1; x <= m; ++x) {
      slope += static_cast<double>(rng.uniform_int(0, 2));
      v += slope;
      values[static_cast<std::size_t>(x)] = std::max(v, 0.0);
      v = values[static_cast<std::size_t>(x)];
    }
    fs.push_back(std::make_shared<rs::core::TableCost>(std::move(values)));
  }
  return Problem(m, beta, std::move(fs));
}

CostPtr sla_cost(double shortfall_slope, double excess_slope, double knee_lo,
                 double knee_hi, double base) {
  return std::make_shared<rs::core::SumCost>(std::vector<CostPtr>{
      rs::core::make_shortfall_hinge(shortfall_slope, knee_lo),
      rs::core::make_hinge(excess_slope, knee_hi),
      std::make_shared<rs::core::QuadraticCost>(0.0, 0.0, base)});
}

}  // namespace

// --- ConvexPwl operations ----------------------------------------------------

TEST(ConvexPwl, PointConstantAndValueAt) {
  const ConvexPwl point = ConvexPwl::point(3, 2.5);
  EXPECT_EQ(point.value_at(3), 2.5);
  EXPECT_TRUE(std::isinf(point.value_at(2)));
  EXPECT_TRUE(std::isinf(point.value_at(4)));
  EXPECT_EQ(point.argmin().lo, 3);
  EXPECT_EQ(point.argmin().hi, 3);

  const ConvexPwl flat = ConvexPwl::constant(1, 5, 4.0);
  for (int x = 1; x <= 5; ++x) EXPECT_EQ(flat.value_at(x), 4.0);
  EXPECT_TRUE(std::isinf(flat.value_at(0)));
  EXPECT_EQ(flat.argmin().lo, 1);  // smallest minimizer of a plateau
  EXPECT_EQ(flat.argmin().hi, 5);  // largest
  EXPECT_EQ(flat.argmin().value, 4.0);

  const ConvexPwl none = ConvexPwl::infinite();
  EXPECT_TRUE(none.is_infinite());
  EXPECT_TRUE(std::isinf(none.value_at(0)));
}

TEST(ConvexPwl, RelaxMatchesBruteForceOnRandomConvexTables) {
  rs::util::Rng rng(7);
  for (int trial = 0; trial < 40; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(1, 14));
    const double beta = rng.uniform(0.1, 4.0);
    const rs::core::TableCost table(rs::workload::random_convex_table(rng, m));
    const auto form = table.as_convex_pwl(m);
    ASSERT_TRUE(form.has_value());
    std::vector<double> reference(static_cast<std::size_t>(m) + 1);
    table.eval_row(m, reference);

    ConvexPwl up = *form;
    up.relax_charge_up(beta, 0, m);
    const std::vector<double> up_expected =
        brute_relax(reference, beta, /*charge_up=*/true);
    ConvexPwl down = *form;
    down.relax_charge_down(beta, 0, m);
    const std::vector<double> down_expected =
        brute_relax(reference, beta, /*charge_up=*/false);
    for (int x = 0; x <= m; ++x) {
      EXPECT_NEAR(up.value_at(x), up_expected[static_cast<std::size_t>(x)],
                  1e-9)
          << "up x=" << x << " trial=" << trial;
      EXPECT_NEAR(down.value_at(x), down_expected[static_cast<std::size_t>(x)],
                  1e-9)
          << "down x=" << x << " trial=" << trial;
    }
  }
}

TEST(ConvexPwl, RelaxOnRestrictedDomainsExtendsCorrectly) {
  // Domain [2, 4], then relax to [0, 6]: flat/β extensions per accounting.
  ConvexPwlBuilder builder;
  builder.start(2, 5.0);
  builder.run(-1.0, 3);  // 5 -> 4
  builder.run(2.0, 4);   // 4 -> 6
  const auto f = builder.finish(rs::core::kUnboundedBreakpoints);
  ASSERT_TRUE(f.has_value());

  ConvexPwl up = *f;
  up.relax_charge_up(1.5, 0, 6);
  // Left: free power-down => flat at the minimum (4 at x=3).
  EXPECT_NEAR(up.value_at(0), 4.0, 1e-12);
  EXPECT_NEAR(up.value_at(3), 4.0, 1e-12);
  // Right: slope clipped to β = 1.5 and extended.
  EXPECT_NEAR(up.value_at(4), 5.5, 1e-12);
  EXPECT_NEAR(up.value_at(6), 8.5, 1e-12);

  ConvexPwl down = *f;
  down.relax_charge_down(1.5, 0, 6);
  // Left: power-up charge => slope −β from the domain edge (clip of the
  // −1 slope stays, the approach to x=2 costs 1.5/step).
  EXPECT_NEAR(down.value_at(2), 5.0, 1e-12);
  EXPECT_NEAR(down.value_at(0), 8.0, 1e-12);
  // Right: free power-down looking up => flat at the minimum.
  EXPECT_NEAR(down.value_at(6), 4.0, 1e-12);
}

TEST(ConvexPwl, AddIntersectsDomainsAndHandlesInfinite) {
  const auto a = rs::core::TableCost({kInf, 2.0, 3.0, 5.0}).as_convex_pwl(3);
  const auto b = rs::core::TableCost({1.0, 1.0, 4.0, kInf}).as_convex_pwl(3);
  ASSERT_TRUE(a && b);
  ConvexPwl sum = *a;
  sum.add(*b);
  EXPECT_TRUE(std::isinf(sum.value_at(0)));
  EXPECT_EQ(sum.value_at(1), 3.0);
  EXPECT_EQ(sum.value_at(2), 7.0);
  EXPECT_TRUE(std::isinf(sum.value_at(3)));

  // Disjoint domains: the sum is infeasible everywhere.
  ConvexPwl left = ConvexPwl::point(0, 1.0);
  left.add(ConvexPwl::point(2, 1.0));
  EXPECT_TRUE(left.is_infinite());

  // The all-infinite operand absorbs (min-convolution/add satellite case).
  ConvexPwl c = *a;
  c.add(ConvexPwl::infinite());
  EXPECT_TRUE(c.is_infinite());
  c.relax_charge_up(1.0, 0, 3);  // relaxing +inf stays +inf
  EXPECT_TRUE(c.is_infinite());
  ConvexPwl d = ConvexPwl::infinite();
  d.add(*a);
  EXPECT_TRUE(d.is_infinite());
}

TEST(ConvexPwl, AddMatchesBruteForceOnRandomPairs) {
  rs::util::Rng rng(8);
  for (int trial = 0; trial < 30; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(1, 12));
    std::vector<double> va = rs::workload::random_convex_table(rng, m);
    std::vector<double> vb = rs::workload::random_convex_table(rng, m);
    // Random infeasible prefix/suffix to exercise domain intersection.
    const int prefix = static_cast<int>(rng.uniform_int(0, m / 2 + 1));
    for (int x = 0; x < prefix; ++x) va[static_cast<std::size_t>(x)] = kInf;
    const int cut = static_cast<int>(rng.uniform_int(m / 2, m));
    for (int x = cut + 1; x <= m; ++x) vb[static_cast<std::size_t>(x)] = kInf;
    const auto a = rs::core::TableCost(va).as_convex_pwl(m);
    const auto b = rs::core::TableCost(vb).as_convex_pwl(m);
    ASSERT_TRUE(a && b);
    ConvexPwl sum = *a;
    sum.add(*b);
    for (int x = 0; x <= m; ++x) {
      const double expected = va[static_cast<std::size_t>(x)] +
                              vb[static_cast<std::size_t>(x)];
      if (std::isinf(expected)) {
        EXPECT_TRUE(std::isinf(sum.value_at(x))) << "x=" << x;
      } else {
        EXPECT_NEAR(sum.value_at(x), expected, 1e-9) << "x=" << x;
      }
    }
  }
}

TEST(ConvexPwl, AddMergesIncrementsPositionByPosition) {
  using Increments = ConvexPwl::Increments;
  const ConvexPwl f = ConvexPwl::from_parts(0, 10, 4.0, -3.0,
                                            {{2, 1.0}, {5, 1.0}, {8, 1.0}});
  const ConvexPwl g = ConvexPwl::from_parts(
      0, 10, 0.5, 0.5, {{1, 0.25}, {5, 0.5}, {6, 0.125}, {9, 2.0}});
  // Fresh positions land in order around the shared one, which sums.
  ConvexPwl sum = f;
  sum.add(g);
  EXPECT_EQ(sum.first_slope(), -2.5);
  EXPECT_EQ(sum.slope_increments(),
            (Increments{{1, 0.25}, {2, 1.0}, {5, 1.5}, {6, 0.125}, {8, 1.0},
                        {9, 2.0}}));
  // Dyadic values: every sum is exact.
  for (int x = 0; x <= 10; ++x) {
    EXPECT_EQ(sum.value_at(x), f.value_at(x) + g.value_at(x)) << "x=" << x;
  }
  // A self-add doubles every increment in place.
  ConvexPwl twice = f;
  twice.add(twice);
  EXPECT_EQ(twice.slope_increments(),
            (Increments{{2, 2.0}, {5, 2.0}, {8, 2.0}}));
  // A narrower operand restricts the domain first: the increment at the
  // new lo folds into the first slope, the one at the new hi drops.
  const ConvexPwl narrow =
      ConvexPwl::from_parts(2, 8, 0.0, 0.0, {{3, 0.5}, {7, 0.25}});
  ConvexPwl clipped = f;
  clipped.add(narrow);
  EXPECT_EQ(clipped.lo(), 2);
  EXPECT_EQ(clipped.hi(), 8);
  EXPECT_EQ(clipped.slope_increments(),
            (Increments{{3, 0.5}, {5, 1.0}, {7, 0.25}}));
  for (int x = 2; x <= 8; ++x) {
    EXPECT_EQ(clipped.value_at(x), f.value_at(x) + narrow.value_at(x))
        << "x=" << x;
  }
}

// --- builder edge cases (satellite) -----------------------------------------

TEST(ConvexPwlBuilder, MergesDuplicateSlopes) {
  ConvexPwlBuilder builder;
  builder.start(0, 1.0);
  builder.run(0.5, 2);
  builder.run(0.5, 5);  // duplicate slope: merged, no breakpoint
  builder.run(2.0, 7);
  const auto f = builder.finish(rs::core::kUnboundedBreakpoints);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->breakpoints(), 1);  // only the 0.5 -> 2.0 change
  EXPECT_NEAR(f->value_at(5), 3.5, 1e-12);
  EXPECT_NEAR(f->value_at(7), 7.5, 1e-12);
}

TEST(ConvexPwlBuilder, MergeEpsilonAbsorbsRoundingDips) {
  // A slope dip of ~1 ulp is rounding noise from independently computed
  // slopes: merged, not rejected.
  ConvexPwlBuilder builder;
  builder.start(0, 0.0);
  builder.run(1.0, 2);
  builder.run(1.0 - 1e-15, 4);
  builder.run(3.0, 5);
  const auto f = builder.finish(rs::core::kUnboundedBreakpoints);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->breakpoints(), 1);

  // A genuine dip (far beyond the merge epsilon) is non-convex: rejected.
  ConvexPwlBuilder bad;
  bad.start(0, 0.0);
  bad.run(1.0, 2);
  bad.run(0.5, 4);
  EXPECT_FALSE(bad.finish(rs::core::kUnboundedBreakpoints).has_value());
}

TEST(ConvexPwlBuilder, NearZeroSlopePairsUseMixedTolerance) {
  // Audit regression (the 1e-12 merge epsilon at a zero crossing): a
  // purely *relative* tolerance degenerates for adjacent slopes straddling
  // zero — scale ~1e-13 would shrink the tolerance below the dip and
  // reject rounding noise as concavity.  The builder's tolerance is mixed
  // (relative with an absolute floor at slope magnitude 1), so sub-epsilon
  // dips across zero merge...
  ConvexPwlBuilder across_zero;
  across_zero.start(0, 1.0);
  across_zero.run(-2.0, 2);
  across_zero.run(1e-13, 4);
  across_zero.run(-1e-13, 6);  // dip of 2e-13 < 1e-12: rounding noise
  across_zero.run(3.0, 8);
  const auto merged = across_zero.finish(rs::core::kUnboundedBreakpoints);
  ASSERT_TRUE(merged.has_value());
  // ...and the merged plateau keeps the earlier run's slope.
  EXPECT_NEAR(merged->value_at(6), merged->value_at(2), 1e-11);

  // A genuine near-zero dip (beyond the absolute floor) still rejects.
  ConvexPwlBuilder genuine;
  genuine.start(0, 1.0);
  genuine.run(1e-13, 2);
  genuine.run(-1e-6, 4);
  EXPECT_FALSE(genuine.finish(rs::core::kUnboundedBreakpoints).has_value());

  // Large slopes stay on the relative side: a dip far above the absolute
  // floor but within 1e-12 of the slope magnitude merges.
  ConvexPwlBuilder large;
  large.start(0, 0.0);
  large.run(1e9, 2);
  large.run(1e9 - 1e-4, 4);  // dip 1e-4 < 1e-12 · 1e9 = 1e-3
  EXPECT_TRUE(large.finish(rs::core::kUnboundedBreakpoints).has_value());
  ConvexPwlBuilder large_reject;
  large_reject.start(0, 0.0);
  large_reject.run(1e9, 2);
  large_reject.run(1e9 - 1e-2, 4);  // dip 1e-2 > 1e-3: genuine
  EXPECT_FALSE(
      large_reject.finish(rs::core::kUnboundedBreakpoints).has_value());
}

TEST(ConvexPwlBuilder, RejectsNaNAndEnforcesBudget) {
  ConvexPwlBuilder builder;
  builder.start(0, std::nan(""));
  EXPECT_FALSE(builder.finish(rs::core::kUnboundedBreakpoints).has_value());

  ConvexPwlBuilder stairs;
  stairs.start(0, 0.0);
  for (int x = 0; x < 10; ++x) stairs.run(static_cast<double>(x), x + 1);
  EXPECT_FALSE(stairs.finish(4).has_value());  // 9 breakpoints > 4
  ConvexPwlBuilder stairs2;
  stairs2.start(0, 0.0);
  for (int x = 0; x < 10; ++x) stairs2.run(static_cast<double>(x), x + 1);
  EXPECT_TRUE(stairs2.finish(9).has_value());
}

TEST(PiecewiseLinearCost, EvalRowMatchesAt) {
  // The hoisted row fills (added for the dense arm of bench_scaling) must
  // keep the bit-identical eval_row contract.
  rs::util::Rng rng(97);
  for (int trial = 0; trial < 10; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(0, 20));
    const double knee = rng.uniform(-2.0, m + 2.0);
    const std::vector<CostPtr> functions = {
        rs::core::make_hinge(rng.uniform(0.0, 2.0), knee),
        rs::core::make_shortfall_hinge(rng.uniform(0.0, 2.0), knee),
        sla_cost(1.5, 0.75, knee, knee + 2.0, 0.25),
        std::make_shared<rs::core::PiecewiseLinearCost>(
            std::vector<rs::core::Breakpoint>{{0.5, 3.0}}),  // constant
    };
    for (const CostPtr& f : functions) {
      std::vector<double> row(static_cast<std::size_t>(m) + 1);
      f->eval_row(m, row);
      for (int x = 0; x <= m; ++x) {
        EXPECT_EQ(row[static_cast<std::size_t>(x)], f->at(x))
            << f->name() << " x=" << x << " m=" << m;
      }
    }
  }
}

TEST(PiecewiseLinearCost, RejectsZeroLengthSegments) {
  // Zero-length segments (duplicate breakpoint x) are rejected at
  // construction; so are decreasing x values.
  EXPECT_THROW(rs::core::PiecewiseLinearCost(
                   {{1.0, 0.0}, {1.0, 2.0}, {3.0, 4.0}}),
               std::invalid_argument);
  EXPECT_THROW(rs::core::PiecewiseLinearCost({{2.0, 0.0}, {1.0, 1.0}}),
               std::invalid_argument);
}

// --- conversions per family --------------------------------------------------

namespace {

void expect_matches_at(const rs::core::CostFunction& f, int m,
                       double tolerance, const std::string& label) {
  const auto form = f.as_convex_pwl(m);
  ASSERT_TRUE(form.has_value()) << label;
  for (int x = 0; x <= m; ++x) {
    const double expected = f.at(x);
    const double actual = form->value_at(x);
    if (std::isinf(expected)) {
      EXPECT_TRUE(std::isinf(actual)) << label << " x=" << x;
    } else if (tolerance == 0.0) {
      EXPECT_EQ(actual, expected) << label << " x=" << x;
    } else {
      EXPECT_NEAR(actual, expected,
                  tolerance * std::max(1.0, std::fabs(expected)))
          << label << " x=" << x;
    }
  }
}

}  // namespace

TEST(ConvexPwlConversion, MatchesAtAcrossFamilies) {
  const int m = 17;
  expect_matches_at(rs::core::TableCost({3.0, 1.0, 2.5, 7.0}), m, 1e-12,
                    "table+extension");
  expect_matches_at(rs::core::TableCost({kInf, kInf, 1.0, 2.0, 4.0}), 4, 0.0,
                    "inf prefix");
  expect_matches_at(rs::core::TableCost({1.0, 2.0, kInf, kInf}), 3, 0.0,
                    "inf suffix");
  expect_matches_at(rs::core::AffineAbsCost(0.75, 4.3, 0.2), m, 1e-12,
                    "affine_abs fractional");
  expect_matches_at(rs::core::AffineAbsCost(2.0, 6.0, 1.0), m, 0.0,
                    "affine_abs integral");
  expect_matches_at(rs::core::QuadraticCost(0.31, 6.7, 1.1), m, 1e-12,
                    "quadratic");
  expect_matches_at(rs::core::QuadraticCost(0.0, 3.0, 2.5), m, 0.0,
                    "quadratic curvature 0");
  expect_matches_at(*sla_cost(1.5, 0.75, 4.0, 9.0, 2.0), m, 1e-12, "sla sum");
  expect_matches_at(*rs::core::make_hinge(1.25, 7.5), m, 1e-12, "hinge");
  expect_matches_at(*rs::core::make_shortfall_hinge(2.0, 5.0), m, 0.0,
                    "shortfall hinge");
  expect_matches_at(rs::core::LinearLoadSlotCost(0.8, 1.7, 4.6), m, 1e-12,
                    "linear load fractional");
  expect_matches_at(rs::core::LinearLoadSlotCost(2.0, 3.0, 5.0), m, 0.0,
                    "linear load integral");
  expect_matches_at(rs::core::LinearLoadSlotCost(1.0, 2.0, 0.0), m, 0.0,
                    "linear load idle");
  // Zero breakpoints: the whole feasible range is one affine segment, so
  // the family always fits the compact budget regardless of m.
  EXPECT_EQ(rs::core::LinearLoadSlotCost(0.8, 1.7, 4.6)
                .as_convex_pwl(m, 1)
                ->breakpoints(),
            0);
}

TEST(ConvexPwlConversion, MatchesAtThroughDecoratorChains) {
  rs::util::Rng rng(19);
  for (int stride : {1, 2, 3}) {
    const int m = 11;
    auto table = std::make_shared<rs::core::TableCost>(
        rs::workload::random_convex_table(rng, m * stride));
    auto padded = std::make_shared<rs::core::PaddedCost>(table, m * stride);
    auto strided = std::make_shared<rs::core::StrideCost>(padded, stride);
    const rs::core::ScaledCost scaled(strided, 0.5);
    expect_matches_at(scaled, m, 1e-9, "scaled(stride(padded(table)))");
    EXPECT_TRUE(scaled.is_convex());
    // Padding shorter than the requested row exercises the extension kink.
    const rs::core::PaddedCost short_padded(table, m / 2);
    expect_matches_at(short_padded, m, 1e-9, "short padded");
  }
}

TEST(ConvexPwlConversion, DeclinesWhereDocumented) {
  const int m = 12;
  // Opaque callables and the restricted slot model have no compact form.
  EXPECT_FALSE(rs::core::FunctionCost([](int x) { return 1.0 * x; })
                   .as_convex_pwl(m)
                   .has_value());
  auto load = std::make_shared<const std::function<double(double)>>(
      [](double z) { return 1.0 + z * z; });
  const rs::core::RestrictedSlotCost restricted(load, 3.3);
  EXPECT_FALSE(restricted.as_convex_pwl(m).has_value());
  EXPECT_TRUE(restricted.is_convex());  // convex by contract, just not PWL

  // Non-convex tables decline (and report so via is_convex).
  const rs::core::TableCost bumpy({0.0, 2.0, 1.0, 3.0});
  EXPECT_FALSE(bumpy.as_convex_pwl(3).has_value());
  EXPECT_FALSE(bumpy.is_convex());
  EXPECT_TRUE(rs::core::TableCost({0.0, 1.0, 3.0}).is_convex());

  // Budget: a quadratic needs one breakpoint per state.
  const rs::core::QuadraticCost quad(0.5, 6.0);
  EXPECT_FALSE(quad.as_convex_pwl(100, 32).has_value());
  EXPECT_TRUE(quad.as_convex_pwl(100, 128).has_value());

  // An all-infinite slot converts to the infinite function.
  const auto all_inf = rs::core::TableCost({kInf, kInf, kInf}).as_convex_pwl(2);
  ASSERT_TRUE(all_inf.has_value());
  EXPECT_TRUE(all_inf->is_infinite());
}

// --- tracker backend equivalence ---------------------------------------------

TEST(PwlTracker, MatchesDenseBackendAcrossFamilies) {
  for (InstanceFamily family : rs::workload::all_instance_families()) {
    for (const auto& [T, m, seed] :
         {std::tuple<int, int, int>{18, 7, 101}, {9, 16, 102}, {25, 3, 103}}) {
      rs::util::Rng rng(static_cast<std::uint64_t>(seed));
      const Problem p =
          rs::workload::random_instance(rng, family, T, m, rng.uniform(0.3, 3.0));
      WorkFunctionTracker pwl(m, p.beta(), Backend::kPwl);
      WorkFunctionTracker dense(m, p.beta(), Backend::kDense);
      for (int t = 1; t <= T; ++t) {
        pwl.advance(p.f(t));
        dense.advance(p.f(t));
        ASSERT_TRUE(pwl.using_pwl());
        // The tie rule makes the corridor backend-independent on every
        // family, exact cost plateaus (kFlatRegions) included.
        EXPECT_EQ(pwl.x_lower(), dense.x_lower())
            << rs::workload::family_name(family) << " t=" << t;
        EXPECT_EQ(pwl.x_upper(), dense.x_upper())
            << rs::workload::family_name(family) << " t=" << t;
        for (int x = 0; x <= m; ++x) {
          const double dl = dense.chat_lower(x);
          const double du = dense.chat_upper(x);
          if (std::isinf(dl)) {
            EXPECT_TRUE(std::isinf(pwl.chat_lower(x))) << "x=" << x;
          } else {
            EXPECT_NEAR(pwl.chat_lower(x), dl, 1e-9 * std::max(1.0, dl))
                << "x=" << x;
          }
          if (std::isinf(du)) {
            EXPECT_TRUE(std::isinf(pwl.chat_upper(x))) << "x=" << x;
          } else {
            EXPECT_NEAR(pwl.chat_upper(x), du, 1e-9 * std::max(1.0, du))
                << "x=" << x;
          }
        }
      }
    }
  }
}

TEST(PwlTracker, BitIdenticalOnIntegerInstances) {
  rs::util::Rng rng(31);
  for (int trial = 0; trial < 12; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(3, 20));
    const int m = static_cast<int>(rng.uniform_int(1, 12));
    const Problem p = integer_instance(rng, T, m, 2.0);
    WorkFunctionTracker pwl(m, 2.0, Backend::kPwl);
    WorkFunctionTracker dense(m, 2.0, Backend::kDense);
    for (int t = 1; t <= T; ++t) {
      pwl.advance(p.f(t));
      dense.advance(p.f(t));
      EXPECT_EQ(pwl.x_lower(), dense.x_lower()) << "t=" << t;
      EXPECT_EQ(pwl.x_upper(), dense.x_upper()) << "t=" << t;
      for (int x = 0; x <= m; ++x) {
        EXPECT_EQ(pwl.chat_lower(x), dense.chat_lower(x))
            << "t=" << t << " x=" << x;
        EXPECT_EQ(pwl.chat_upper(x), dense.chat_upper(x))
            << "t=" << t << " x=" << x;
      }
    }
  }
}

TEST(PwlTracker, HybridFallsBackMidStreamAndStaysConsistent) {
  // Compact slots, then an opaque FunctionCost (no PWL form), then compact
  // again: the auto tracker materializes Ĉ and latches dense; bounds keep
  // matching the all-dense reference.
  rs::util::Rng rng(43);
  const int m = 9;
  const double beta = 1.5;
  std::vector<CostPtr> fs;
  for (int t = 0; t < 4; ++t) {
    fs.push_back(std::make_shared<rs::core::AffineAbsCost>(
        rng.uniform(0.2, 1.0), static_cast<double>(rng.uniform_int(0, m))));
  }
  fs.push_back(std::make_shared<rs::core::FunctionCost>(
      [](int x) { return 0.3 * x + 1.0; }, "opaque"));
  for (int t = 0; t < 4; ++t) {
    fs.push_back(std::make_shared<rs::core::AffineAbsCost>(
        rng.uniform(0.2, 1.0), static_cast<double>(rng.uniform_int(0, m))));
  }
  const Problem p(m, beta, std::move(fs));
  EXPECT_FALSE(rs::core::admits_compact_pwl(p));

  WorkFunctionTracker hybrid(m, beta);  // kAuto
  WorkFunctionTracker dense(m, beta, Backend::kDense);
  for (int t = 1; t <= p.horizon(); ++t) {
    hybrid.advance(p.f(t));
    dense.advance(p.f(t));
    EXPECT_EQ(hybrid.using_pwl(), t < 5) << "t=" << t;
    EXPECT_EQ(hybrid.x_lower(), dense.x_lower()) << "t=" << t;
    EXPECT_EQ(hybrid.x_upper(), dense.x_upper()) << "t=" << t;
    for (int x = 0; x <= m; ++x) {
      EXPECT_NEAR(hybrid.chat_lower(x), dense.chat_lower(x), 1e-9)
          << "t=" << t << " x=" << x;
    }
  }
}

TEST(PwlTracker, InfeasibleInstanceMirrorsDenseCorridor) {
  // An all-infinite slot makes every label +inf; the dense scans leave the
  // corridor at (0, m) from then on, and so must the PWL backend.
  const int m = 4;
  WorkFunctionTracker pwl(m, 1.0, Backend::kPwl);
  WorkFunctionTracker dense(m, 1.0, Backend::kDense);
  const rs::core::TableCost fine({1.0, 0.5, 2.0, 3.5, 5.0});
  const rs::core::TableCost dead({kInf, kInf, kInf, kInf, kInf});
  const std::vector<const rs::core::CostFunction*> slots = {&fine, &dead,
                                                            &fine};
  for (const rs::core::CostFunction* f : slots) {
    pwl.advance(*f);
    dense.advance(*f);
    EXPECT_EQ(pwl.x_lower(), dense.x_lower());
    EXPECT_EQ(pwl.x_upper(), dense.x_upper());
  }
  EXPECT_TRUE(std::isinf(pwl.chat_lower(0)));
  EXPECT_EQ(pwl.x_lower(), 0);
  EXPECT_EQ(pwl.x_upper(), m);
}

TEST(PwlTracker, ForcedBackendsValidateTheirInputs) {
  WorkFunctionTracker forced(4, 1.0, Backend::kPwl);
  EXPECT_THROW(forced.advance(std::vector<double>{0, 1, 2, 3, 4}),
               std::logic_error);
  const rs::core::FunctionCost opaque([](int x) { return 1.0 * x; });
  EXPECT_THROW(forced.advance(opaque), std::invalid_argument);

  // Forced-kPwl windowed LCP names the non-compact cost the same way.
  rs::online::Lcp forced_window(Backend::kPwl);
  forced_window.reset(rs::online::OnlineContext{4, 1.0});
  const CostPtr opaque_ptr = std::make_shared<rs::core::FunctionCost>(
      [](int x) { return 1.0 * x; });
  EXPECT_THROW(forced_window.decide(opaque_ptr, {}), std::invalid_argument);

  // chat vectors force the dense backend (documented) — fine on kAuto.
  rs::util::Rng rng(5);
  const Problem p = rs::workload::random_instance(
      rng, InstanceFamily::kAffineAbs, 5, 6, 1.0);
  WorkFunctionTracker auto_tracker(6, 1.0);
  for (int t = 1; t <= 5; ++t) auto_tracker.advance(p.f(t));
  EXPECT_TRUE(auto_tracker.using_pwl());
  const std::vector<double>& row = auto_tracker.chat_lower_vector();
  EXPECT_FALSE(auto_tracker.using_pwl());
  for (int x = 0; x <= 6; ++x) {
    EXPECT_EQ(row[static_cast<std::size_t>(x)], auto_tracker.chat_lower(x));
  }
}

// --- LCP / windowed LCP / DP equivalence -------------------------------------

TEST(PwlBackend, LcpSchedulesMatchDenseAcrossFamilies) {
  for (InstanceFamily family : rs::workload::all_instance_families()) {
    rs::util::Rng rng(211 + static_cast<std::uint64_t>(family));
    for (int trial = 0; trial < 4; ++trial) {
      const int T = static_cast<int>(rng.uniform_int(1, 30));
      const int m = static_cast<int>(rng.uniform_int(1, 12));
      const Problem p =
          rs::workload::random_instance(rng, family, T, m, rng.uniform(0.2, 3.0));
      // Forced kPwl: the auto budget would (rightly) route small dense
      // tables to the dense backend, which would make this comparison
      // vacuous for half the families.
      rs::online::Lcp pwl_lcp(Backend::kPwl);
      rs::online::Lcp dense_lcp(Backend::kDense);
      EXPECT_EQ(rs::online::run_online(pwl_lcp, p),
                rs::online::run_online(dense_lcp, p))
          << rs::workload::family_name(family);
    }
  }
}

TEST(PwlBackend, LcpWindowMatchesDenseOnIntegerTieInstances) {
  // Exact plateaus everywhere: integer values make both backends' tie
  // decisions exact, so the windowed corridors must coincide bit for bit.
  rs::util::Rng rng(53);
  for (int trial = 0; trial < 10; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(4, 18));
    const int m = static_cast<int>(rng.uniform_int(2, 10));
    const Problem p = integer_instance(rng, T, m, 1.0);
    for (int window : {0, 1, 3}) {
      // Forced kPwl keeps the PWL pass engaged even where the auto budget
      // would prefer the dense rows for these table costs.
      rs::online::Lcp pwl_lcp(Backend::kPwl);
      rs::online::Lcp dense_lcp(Backend::kDense);
      EXPECT_EQ(rs::online::run_online(pwl_lcp, p, window),
                rs::online::run_online(dense_lcp, p, window))
          << "trial=" << trial << " w=" << window;
    }
  }
}

TEST(PwlBackend, LcpWindowMatchesDenseOnSlaInstances) {
  // Integer parameters keep every windowed sum exact, so the corridors
  // must coincide bit for bit even on the hinges' exact-0 plateaus
  // (fractional parameters: the zoo suite of test_scenario_zoo, and
  // value-wise CompletionCostsMatchDensePass).
  rs::util::Rng rng(59);
  for (int trial = 0; trial < 6; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(5, 25));
    const int m = static_cast<int>(rng.uniform_int(4, 14));
    std::vector<CostPtr> fs;
    for (int t = 0; t < T; ++t) {
      const double knee = static_cast<double>(rng.uniform_int(1, m - 1));
      fs.push_back(sla_cost(static_cast<double>(rng.uniform_int(1, 3)),
                            static_cast<double>(rng.uniform_int(1, 2)), knee,
                            knee + static_cast<double>(rng.uniform_int(1, 3)),
                            static_cast<double>(rng.uniform_int(0, 2))));
    }
    const Problem p(m, static_cast<double>(rng.uniform_int(1, 3)),
                    std::move(fs));
    ASSERT_TRUE(rs::core::admits_compact_pwl(p));
    for (int window : {1, 4}) {
      rs::online::Lcp auto_lcp;
      rs::online::Lcp dense_lcp(Backend::kDense);
      EXPECT_EQ(rs::online::run_online(auto_lcp, p, window),
                rs::online::run_online(dense_lcp, p, window))
          << "trial=" << trial << " w=" << window;
    }
  }
}

TEST(PwlBackend, CompletionCostsMatchDensePass) {
  rs::util::Rng rng(61);
  for (int trial = 0; trial < 10; ++trial) {
    const int m = static_cast<int>(rng.uniform_int(2, 12));
    const double beta = rng.uniform(0.3, 2.0);
    const int w = static_cast<int>(rng.uniform_int(1, 5));
    std::vector<CostPtr> window;
    std::vector<ConvexPwl> window_pwl;
    for (int j = 0; j < w; ++j) {
      const double knee = rng.uniform(0.0, static_cast<double>(m));
      window.push_back(sla_cost(rng.uniform(0.5, 2.0), rng.uniform(0.2, 1.0),
                                knee, knee + 1.0, rng.uniform(0.0, 0.5)));
      window_pwl.push_back(*window.back()->as_convex_pwl(m));
    }
    for (bool charge_up : {true, false}) {
      const std::vector<double> dense = rs::online::completion_costs(
          window, m, beta, charge_up);
      const ConvexPwl pwl = rs::online::completion_costs_pwl(
          window_pwl, m, beta, charge_up);
      for (int x = 0; x <= m; ++x) {
        EXPECT_NEAR(pwl.value_at(x), dense[static_cast<std::size_t>(x)], 1e-9)
            << "x=" << x << " up=" << charge_up;
      }
    }
  }
  // All-infinite window row: both passes saturate to +inf.
  const auto dead = rs::core::TableCost({kInf, kInf, kInf}).as_convex_pwl(2);
  ASSERT_TRUE(dead.has_value());
  const std::vector<ConvexPwl> dead_window = {*dead};
  EXPECT_TRUE(rs::online::completion_costs_pwl(dead_window, 2, 1.0, true)
                  .is_infinite());
}

TEST(PwlBackend, DpConvexAutoMatchesDenseSolver) {
  const rs::offline::DpSolver dense_dp;  // kDense
  const rs::offline::DpSolver fast_dp(rs::offline::DpSolver::Backend::kConvexAuto);
  // Every random family (the non-compact ones run the convex path on its
  // dense fallback) plus every trace-zoo kind.
  std::vector<std::pair<std::string, Problem>> inputs;
  for (InstanceFamily family : rs::workload::all_instance_families()) {
    rs::util::Rng rng(307 + static_cast<std::uint64_t>(family));
    for (int trial = 0; trial < 3; ++trial) {
      const int T = static_cast<int>(rng.uniform_int(1, 25));
      const int m = static_cast<int>(rng.uniform_int(1, 10));
      inputs.emplace_back(
          rs::workload::family_name(family),
          rs::workload::random_instance(rng, family, T, m,
                                        rng.uniform(0.3, 2.5)));
    }
  }
  // A final slot that tilts a free power-down plateau by 2^-43 per server:
  // the tie rule puts x^L at 0, 1000·2^-43 above the minimum at x = 1000.
  {
    std::vector<std::vector<double>> rows(2, std::vector<double>(1001));
    for (int x = 0; x <= 1000; ++x) {
      rows[0][static_cast<std::size_t>(x)] = 2.0 * (1000 - x);
      rows[1][static_cast<std::size_t>(x)] = 5.0 - std::ldexp(1.0, -43) * x;
    }
    inputs.emplace_back("near-flat final slot",
                        rs::core::make_table_problem(1000, 1.0, rows));
  }
  rs::scenario::ZooParams zoo;
  zoo.servers = 16;
  zoo.horizon = 192;
  for (const rs::scenario::Scenario& scenario :
       rs::scenario::make_zoo(zoo, 3)) {
    inputs.emplace_back(scenario.name, scenario.problem);
  }
  for (const auto& [name, p] : inputs) {
    SCOPED_TRACE(name);
    const double expected = dense_dp.solve_cost(p);
    const rs::offline::OfflineResult fast = fast_dp.solve(p);
    EXPECT_NEAR(fast.cost, expected, 1e-9 * std::max(1.0, expected));
    EXPECT_NEAR(fast_dp.solve_cost(p), fast.cost, 1e-12);
    // The reported cost is min Ĉ^L_T exactly — never Ĉ^L at the tie-ruled
    // x^L, which may sit up to one tolerance above it.
    WorkFunctionTracker tracker(p.max_servers(), p.beta());
    for (int t = 1; t <= p.horizon(); ++t) tracker.advance(p.f(t));
    if (p.horizon() > 0) {
      double min_label = kInf;
      for (int x = 0; x <= p.max_servers(); ++x) {
        min_label = std::min(min_label, tracker.chat_lower(x));
      }
      EXPECT_EQ(fast.cost, min_label);
      EXPECT_EQ(tracker.chat_min(), min_label);
    }
    // The fast schedule is the Lemma-11 one; it must price to the
    // optimal cost.
    EXPECT_NEAR(rs::core::total_cost(p, fast.schedule), expected,
                1e-9 * std::max(1.0, expected));
    // And coincide with the backward solver's dense construction.
    EXPECT_EQ(fast.schedule,
              rs::offline::backward_schedule(
                  rs::offline::compute_bounds(p, Backend::kDense)));
  }
}

TEST(PwlBackend, DpConvexAutoBitIdenticalOnIntegerInstances) {
  rs::util::Rng rng(71);
  const rs::offline::DpSolver dense_dp;
  const rs::offline::DpSolver fast_dp(rs::offline::DpSolver::Backend::kConvexAuto);
  for (int trial = 0; trial < 10; ++trial) {
    const int T = static_cast<int>(rng.uniform_int(1, 15));
    const int m = static_cast<int>(rng.uniform_int(1, 10));
    const Problem p = integer_instance(rng, T, m, 3.0);
    EXPECT_EQ(fast_dp.solve_cost(p), dense_dp.solve_cost(p)) << trial;
  }
}

TEST(PwlBackend, DpConvexAutoHandlesEdgeInstances) {
  const rs::offline::DpSolver fast_dp(rs::offline::DpSolver::Backend::kConvexAuto);
  const Problem empty(4, 1.0, {});
  EXPECT_EQ(fast_dp.solve(empty).cost, 0.0);
  EXPECT_TRUE(fast_dp.solve(empty).schedule.empty());

  const Problem tiny = rs::core::make_table_problem(0, 1.0, {{2.0}, {3.0}});
  const rs::offline::OfflineResult r = fast_dp.solve(tiny);
  EXPECT_EQ(r.cost, 5.0);
  EXPECT_EQ(r.schedule, Schedule({0, 0}));

  const Problem infeasible = rs::core::make_table_problem(
      2, 1.0, {{1.0, 1.0, 1.0}, {kInf, kInf, kInf}});
  const rs::offline::OfflineResult dead = fast_dp.solve(infeasible);
  EXPECT_TRUE(std::isinf(dead.cost));
  EXPECT_TRUE(dead.schedule.empty());
}

TEST(PwlBackend, BreakpointCountStaysSmallOnCompactFamilies) {
  // The scaling claim in miniature: K stays bounded (and far below m) as
  // the tracker runs, because the relax clips retire drifting slopes.
  rs::util::Rng rng(83);
  const int m = 4096;
  const double beta = 3.0;
  WorkFunctionTracker tracker(m, beta, Backend::kPwl);
  int max_breakpoints = 0;
  for (int t = 0; t < 200; ++t) {
    const rs::core::AffineAbsCost f(rng.uniform(0.2, 1.0),
                                    rng.uniform(0.0, static_cast<double>(m)));
    tracker.advance(f);
    max_breakpoints = std::max(max_breakpoints, tracker.breakpoint_count());
  }
  EXPECT_GT(max_breakpoints, 0);
  EXPECT_LT(max_breakpoints, 64) << "K should be m-independent and small";
}
