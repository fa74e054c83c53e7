// The deep invariant auditor (util/audit.hpp; DESIGN.md §13).
//
// Two halves.  Positive: every healthy state the library produces passes
// its own deep checks (the checks themselves must not false-alarm, or the
// audited CI job is noise).  Negative: each catalogued invariant, when
// violated through the test-only corruption hooks, raises AuditError
// naming exactly that invariant and the probing site — proving the checks
// can actually see the corruption classes they claim to (a laundered NaN,
// a crossed corridor, an illegal tenant-ladder move, a torn envelope).
//
// The deep-check functions are compiled in every build configuration
// (only the RS_AUDIT call sites are gated), so this suite runs in the
// plain tier-1 build too, not just under RIGHTSIZER_AUDIT=ON.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/checkpoint_store.hpp"
#include "core/convex_pwl.hpp"
#include "core/cost_function.hpp"
#include "core/dense_problem.hpp"
#include "core/problem.hpp"
#include "fleet/tenant.hpp"
#include "offline/work_function.hpp"
#include "util/audit.hpp"

namespace {

using rs::core::ConvexPwl;
using rs::core::ConvexPwlTestAccess;
using rs::core::CostPtr;
using rs::core::DenseProblem;
using rs::core::DenseProblemTestAccess;
using rs::core::Problem;
using rs::fleet::TenantConfig;
using rs::fleet::TenantSession;
using rs::fleet::TenantSessionTestAccess;
using rs::fleet::TenantState;
using rs::offline::WorkFunctionTracker;
using rs::offline::WorkFunctionTrackerTestAccess;
using rs::util::audit::AuditError;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

// Runs `corrupt_and_audit` and asserts it raises AuditError carrying
// exactly `invariant`; returns the caught error's message for extra
// assertions.
template <typename Fn>
std::string expect_audit(const char* invariant, Fn&& corrupt_and_audit) {
  try {
    corrupt_and_audit();
  } catch (const AuditError& e) {
    EXPECT_EQ(e.invariant(), invariant);
    EXPECT_FALSE(e.site().empty());
    return e.what();
  }
  ADD_FAILURE() << "no AuditError raised; expected invariant '" << invariant
                << "'";
  return {};
}

// ---------------------------------------------------------------------------
// AuditError plumbing
// ---------------------------------------------------------------------------

TEST(AuditError, CarriesInvariantSiteAndDetail) {
  try {
    rs::util::audit::fail("some-invariant", "Some::site", "the detail");
    FAIL() << "fail() returned";
  } catch (const AuditError& e) {
    EXPECT_EQ(e.invariant(), "some-invariant");
    EXPECT_EQ(e.site(), "Some::site");
    const std::string what = e.what();
    EXPECT_NE(what.find("some-invariant"), std::string::npos);
    EXPECT_NE(what.find("Some::site"), std::string::npos);
    EXPECT_NE(what.find("the detail"), std::string::npos);
  }
}

TEST(AuditError, RequirePassesOnTrue) {
  EXPECT_NO_THROW(rs::util::audit::require(true, "x", "y"));
  EXPECT_NO_THROW(rs::util::audit::require_with(
      true, "x", "y", [] { return std::string("never built"); }));
}

// ---------------------------------------------------------------------------
// ConvexPwl representation invariants
// ---------------------------------------------------------------------------

ConvexPwl healthy_pwl() {
  return ConvexPwl::from_parts(0, 4, 1.0, -0.5, {{2, 1.0}, {3, 0.25}});
}

TEST(AuditConvexPwl, HealthyRepresentationsPass) {
  EXPECT_NO_THROW(rs::core::audit_convex_pwl(healthy_pwl(), "test"));
  EXPECT_NO_THROW(rs::core::audit_convex_pwl(ConvexPwl::infinite(), "test"));
  EXPECT_NO_THROW(rs::core::audit_convex_pwl(ConvexPwl::point(3, 2.0), "test"));
}

TEST(AuditConvexPwl, FlagsInvertedDomain) {
  expect_audit("pwl-domain-ordered", [] {
    ConvexPwl f = healthy_pwl();
    ConvexPwlTestAccess::lo(f) = 9;
    rs::core::audit_convex_pwl(f, "test");
  });
}

TEST(AuditConvexPwl, FlagsNaNAnchor) {
  expect_audit("pwl-anchor-finite", [] {
    ConvexPwl f = healthy_pwl();
    ConvexPwlTestAccess::v_lo(f) = kNaN;
    rs::core::audit_convex_pwl(f, "test");
  });
}

TEST(AuditConvexPwl, FlagsNaNSlope) {
  expect_audit("pwl-slope-finite", [] {
    ConvexPwl f = healthy_pwl();
    ConvexPwlTestAccess::slope0(f) = kNaN;
    rs::core::audit_convex_pwl(f, "test");
  });
}

TEST(AuditConvexPwl, FlagsSlopedPointDomain) {
  expect_audit("pwl-point-domain-flat", [] {
    ConvexPwl f = ConvexPwl::point(2, 1.0);
    ConvexPwlTestAccess::slope0(f) = 1.0;
    rs::core::audit_convex_pwl(f, "test");
  });
}

TEST(AuditConvexPwl, FlagsBreakpointOutsideDomain) {
  expect_audit("pwl-breakpoint-in-domain", [] {
    ConvexPwl f = healthy_pwl();
    auto& increments = ConvexPwlTestAccess::dslope(f);
    increments.insert(increments.begin(), {0, 1.0});  // must be in (lo, hi)
    rs::core::audit_convex_pwl(f, "test");
  });
}

TEST(AuditConvexPwl, FlagsNonPositiveIncrement) {
  expect_audit("pwl-increment-positive", [] {
    ConvexPwl f = healthy_pwl();
    ConvexPwlTestAccess::dslope(f).front().second = -0.5;  // concave kink at 2
    rs::core::audit_convex_pwl(f, "test");
  });
}

TEST(AuditConvexPwl, FlagsUnsortedOrRepeatedBreakpoints) {
  expect_audit("pwl-breakpoints-ascending", [] {
    ConvexPwl f = healthy_pwl();
    auto& increments = ConvexPwlTestAccess::dslope(f);
    std::swap(increments[0], increments[1]);  // positions 3, 2
    rs::core::audit_convex_pwl(f, "test");
  });
  expect_audit("pwl-breakpoints-ascending", [] {
    ConvexPwl f = healthy_pwl();
    ConvexPwlTestAccess::dslope(f)[1].first = 2;  // positions 2, 2
    rs::core::audit_convex_pwl(f, "test");
  });
}

// ---------------------------------------------------------------------------
// WorkFunctionTracker corridor invariants
// ---------------------------------------------------------------------------

// |x - 2|-shaped slot cost: argmin interior, all values exact in double.
CostPtr vee_cost() {
  return std::make_shared<rs::core::AffineAbsCost>(1.0, 2.0, 0.0);
}

WorkFunctionTracker advanced_tracker(WorkFunctionTracker::Backend backend,
                                     int slots = 3) {
  WorkFunctionTracker tracker(4, 1.0, backend);
  const CostPtr f = vee_cost();
  for (int t = 0; t < slots; ++t) tracker.advance(*f);
  return tracker;
}

TEST(AuditWorkFunction, HealthyTrackersPassOnBothBackends) {
  for (const auto backend : {WorkFunctionTracker::Backend::kDense,
                             WorkFunctionTracker::Backend::kAuto}) {
    WorkFunctionTracker tracker = advanced_tracker(backend);
    EXPECT_NO_THROW(tracker.audit_invariants("test"));
    // Repeated audits must agree with the monotone watermark bookkeeping.
    tracker.advance(*vee_cost());
    EXPECT_NO_THROW(tracker.audit_invariants("test"));
  }
}

TEST(AuditWorkFunction, FlagsCrossedCorridor) {
  expect_audit("corridor-ordered", [] {
    WorkFunctionTracker tracker =
        advanced_tracker(WorkFunctionTracker::Backend::kDense);
    WorkFunctionTrackerTestAccess::x_lower(tracker) =
        WorkFunctionTrackerTestAccess::x_upper(tracker) + 1;
    tracker.audit_invariants("test");
  });
}

TEST(AuditWorkFunction, FlagsCorridorOutOfRange) {
  expect_audit("corridor-in-range", [] {
    WorkFunctionTracker tracker =
        advanced_tracker(WorkFunctionTracker::Backend::kDense);
    WorkFunctionTrackerTestAccess::x_upper(tracker) = 99;
    tracker.audit_invariants("test");
  });
}

TEST(AuditWorkFunction, FlagsLaunderedNaNLabel) {
  expect_audit("labels-nan-free", [] {
    WorkFunctionTracker tracker =
        advanced_tracker(WorkFunctionTracker::Backend::kDense);
    WorkFunctionTrackerTestAccess::dense_lower(tracker)[1] = kNaN;
    tracker.audit_invariants("test");
  });
}

TEST(AuditWorkFunction, FlagsNegativeLabel) {
  expect_audit("labels-nonnegative", [] {
    WorkFunctionTracker tracker =
        advanced_tracker(WorkFunctionTracker::Backend::kDense);
    WorkFunctionTrackerTestAccess::dense_lower(tracker)[0] = -1.0;
    tracker.audit_invariants("test");
  });
}

TEST(AuditWorkFunction, FlagsStaleCorridorAgainstLabels) {
  const std::string what = expect_audit("corridor-argmin", [] {
    WorkFunctionTracker tracker =
        advanced_tracker(WorkFunctionTracker::Backend::kDense);
    // The vee cost pins the corridor strictly inside [0, m]; widening the
    // tracked upper end to m no longer matches the label re-scan.
    WorkFunctionTrackerTestAccess::x_upper(tracker) = 4;
    tracker.audit_invariants("test");
  });
  EXPECT_NE(what.find("rescan"), std::string::npos);
}

// ---------------------------------------------------------------------------
// DenseProblem row invariants
// ---------------------------------------------------------------------------

Problem small_problem() {
  std::vector<CostPtr> fs{vee_cost(), vee_cost(),
                          std::make_shared<rs::core::AffineAbsCost>(2.0, 1.0,
                                                                    0.0)};
  return Problem(4, 1.0, std::move(fs));
}

TEST(AuditDenseProblem, HealthyEagerTablePasses) {
  const DenseProblem dense(small_problem());
  EXPECT_NO_THROW(dense.audit_rows("test"));
}

TEST(AuditDenseProblem, NaNRowsAreDeliberatelyLegal) {
  // Poisoned instances travel the dense path so the solvers' poison
  // accumulators can classify them — the auditor must not reject them here.
  DenseProblem dense(small_problem());
  DenseProblemTestAccess::values(dense)[2] = kNaN;
  EXPECT_NO_THROW(dense.audit_rows("test"));
}

TEST(AuditDenseProblem, FlagsNegativeCostValue) {
  expect_audit("dense-row-nonnegative", [] {
    DenseProblem dense(small_problem());
    DenseProblemTestAccess::values(dense)[3] = -0.25;
    dense.audit_rows("test");
  });
}

// ---------------------------------------------------------------------------
// Checkpoint envelope self-check
// ---------------------------------------------------------------------------

TEST(AuditCheckpoint, SealedEnvelopeRoundTrips) {
  rs::core::CheckpointWriter writer;
  writer.u32(7);
  writer.f64(3.5);
  const std::vector<std::uint8_t> bytes =
      writer.seal(rs::core::kTrackerCheckpointKind);
  EXPECT_NO_THROW(rs::core::audit_envelope(
      bytes, rs::core::kTrackerCheckpointKind, "test"));
}

TEST(AuditCheckpoint, FlagsBitFlippedPayload) {
  rs::core::CheckpointWriter writer;
  writer.u64(0xDEADBEEFull);
  std::vector<std::uint8_t> bytes =
      writer.seal(rs::core::kTrackerCheckpointKind);
  bytes.back() ^= 0x01;  // payload corruption -> CRC mismatch
  const std::string what =
      expect_audit("checkpoint-envelope-roundtrip", [&] {
        rs::core::audit_envelope(bytes, rs::core::kTrackerCheckpointKind,
                                 "test");
      });
  EXPECT_NE(what.find("checksum"), std::string::npos);
}

TEST(AuditCheckpoint, FlagsKindMismatch) {
  rs::core::CheckpointWriter writer;
  writer.u32(1);
  const std::vector<std::uint8_t> bytes =
      writer.seal(rs::core::kTrackerCheckpointKind);
  expect_audit("checkpoint-envelope-roundtrip", [&] {
    rs::core::audit_envelope(bytes, rs::core::kLcpCheckpointKind, "test");
  });
}

// ---------------------------------------------------------------------------
// Tenant ladder legality and session consistency
// ---------------------------------------------------------------------------

TEST(AuditTenant, TransitionTableMatchesTheLadder) {
  using S = TenantState;
  const S all[] = {S::kHealthy, S::kDegraded, S::kRecovering,
                   S::kQuarantined};
  for (const S from : all) {
    for (const S to : all) {
      bool expected = true;
      if (from != to) {
        if (from == S::kQuarantined) expected = false;  // terminal
        if (from == S::kDegraded && to == S::kHealthy) {
          expected = false;  // the dense pin is permanent
        }
      }
      EXPECT_EQ(rs::fleet::tenant_transition_legal(from, to), expected)
          << rs::fleet::to_string(from) << " -> " << rs::fleet::to_string(to);
    }
  }
}

TEST(AuditTenant, IllegalTransitionRaisesTypedError) {
  EXPECT_NO_THROW(rs::fleet::audit_tenant_transition(
      TenantState::kHealthy, TenantState::kRecovering, "test"));
  const std::string what = expect_audit("tenant-transition-legal", [] {
    rs::fleet::audit_tenant_transition(TenantState::kQuarantined,
                                       TenantState::kHealthy, "test");
  });
  EXPECT_NE(what.find("quarantined"), std::string::npos);
  EXPECT_NE(what.find("healthy"), std::string::npos);
}

TenantConfig tenant_config(std::string name) {
  TenantConfig config;
  config.name = std::move(name);
  config.m = 4;
  config.beta = 1.0;
  config.cost_of = [](double lambda) -> CostPtr {
    return std::make_shared<rs::core::AffineAbsCost>(1.0, lambda, 0.0);
  };
  return config;
}

// A session with three decided slots (heap-held: TenantSession owns a
// mutex and is neither copyable nor movable).
std::unique_ptr<TenantSession> decided_session(const char* name) {
  auto session = std::make_unique<TenantSession>(tenant_config(name), 0);
  rs::core::CheckpointStore store;
  for (const double lambda : {1.0, 3.0, 2.0}) {
    EXPECT_TRUE(session->offer(lambda));
    EXPECT_GT(session->step(store), 0);
  }
  return session;
}

TEST(AuditTenant, HealthySessionPasses) {
  const auto session = decided_session("healthy");
  EXPECT_NO_THROW(session->audit_invariants("test"));
}

TEST(AuditTenant, LegalLadderMovesPassThroughAuditedSetter) {
  const auto session = decided_session("ladder");
  EXPECT_NO_THROW(TenantSessionTestAccess::set_state_audited(
      *session, TenantState::kRecovering, "test"));
  EXPECT_NO_THROW(TenantSessionTestAccess::set_state_audited(
      *session, TenantState::kHealthy, "test"));
  expect_audit("tenant-transition-legal", [&] {
    TenantSessionTestAccess::state(*session) = TenantState::kDegraded;
    TenantSessionTestAccess::set_state_audited(*session, TenantState::kHealthy,
                                               "test");
  });
}

TEST(AuditTenant, FlagsQuarantineWithoutReason) {
  expect_audit("tenant-quarantine-reason", [] {
    const auto session = decided_session("no-reason");
    TenantSessionTestAccess::state(*session) = TenantState::kQuarantined;
    session->audit_invariants("test");
  });
}

TEST(AuditTenant, FlagsReasonWithoutQuarantine) {
  expect_audit("tenant-quarantine-reason", [] {
    const auto session = decided_session("ghost-reason");
    TenantSessionTestAccess::stats(*session).quarantine_reason = "ghost";
    session->audit_invariants("test");
  });
}

TEST(AuditTenant, FlagsDegradedWithoutStickyFlag) {
  expect_audit("tenant-degraded-flag", [] {
    const auto session = decided_session("degraded");
    TenantSessionTestAccess::state(*session) = TenantState::kDegraded;
    session->audit_invariants("test");
  });
}

TEST(AuditTenant, FlagsTrajectoryShapeMismatch) {
  expect_audit("tenant-trajectory-shape", [] {
    const auto session = decided_session("shape");
    TenantSessionTestAccess::lower(*session).pop_back();
    session->audit_invariants("test");
  });
}

TEST(AuditTenant, FlagsStepsAccountingDrift) {
  expect_audit("tenant-steps-accounting", [] {
    const auto session = decided_session("drift");
    TenantSessionTestAccess::stats(*session).steps += 1;
    session->audit_invariants("test");
  });
}

TEST(AuditTenant, FlagsDecisionOutsideCorridor) {
  const std::string what = expect_audit("tenant-decision-in-corridor", [] {
    const auto session = decided_session("escape");
    TenantSessionTestAccess::schedule(*session)[1] = 99;
    session->audit_invariants("test");
  });
  EXPECT_NE(what.find("slot 2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Gating
// ---------------------------------------------------------------------------

TEST(AuditGating, RsAuditMatchesBuildConfiguration) {
#ifdef RIGHTSIZER_AUDIT
  EXPECT_TRUE(rs::util::audit::kEnabled);
  bool ran = false;
  RS_AUDIT(ran = true);
  EXPECT_TRUE(ran);
#else
  EXPECT_FALSE(rs::util::audit::kEnabled);
  bool ran = false;
  RS_AUDIT(ran = true);
  EXPECT_FALSE(ran) << "RS_AUDIT must not evaluate its argument when off";
#endif
}

}  // namespace
