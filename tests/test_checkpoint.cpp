// Crash-safe checkpoint/restore tests: the CRC-32 against a byte-wise
// reference and golden hashes that pin the sealed formats byte for byte,
// container-level rejection of every malformed input (truncation, bit
// flips, wrong kind, trailing bytes), the store under concurrent puts, and
// the kill-and-resume property — a session snapshotted at any slot t,
// destroyed, and restored continues bitwise-identically (schedule, corridor
// bounds, cost) to the uninterrupted run, on both backends, including
// LCP snapshotted mid-prediction-window and trackers snapshotted
// mid-advance_repeated.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/checkpoint.hpp"
#include "core/checkpoint_store.hpp"
#include "core/convex_pwl.hpp"
#include "core/cost_function.hpp"
#include "core/problem.hpp"
#include "core/schedule.hpp"
#include "fleet/tenant.hpp"
#include "offline/work_function.hpp"
#include "online/lcp.hpp"
#include "scenario/trace_zoo.hpp"
#include "util/fault_injection.hpp"
#include "util/math_util.hpp"
#include "util/rng.hpp"
#include "workload/random_instance.hpp"

namespace {

using rs::core::CheckpointCorruptionError;
using rs::core::CheckpointError;
using rs::core::CheckpointFormatError;
using rs::core::CheckpointMismatchError;
using rs::core::CheckpointReader;
using rs::core::CheckpointWriter;
using rs::core::ConvexPwl;
using rs::core::Problem;
using rs::offline::WorkFunctionTracker;
using rs::online::Lcp;
using rs::online::OnlineContext;
using rs::online::Lcp;
using rs::util::corrupt_bit;
using rs::util::truncate_bytes;
using Backend = WorkFunctionTracker::Backend;

// A small convex-PWL-friendly instance (hinge slot costs).
Problem hinge_problem(int m, double beta, int horizon, std::uint64_t seed) {
  rs::util::Rng rng(seed);
  std::vector<rs::core::CostPtr> fs;
  fs.reserve(static_cast<std::size_t>(horizon));
  for (int t = 0; t < horizon; ++t) {
    const double center = rng.uniform(0.0, static_cast<double>(m));
    fs.push_back(std::make_shared<rs::core::AffineAbsCost>(
        rng.uniform(0.5, 3.0), center, rng.uniform(0.0, 2.0)));
  }
  return Problem(m, beta, std::move(fs));
}

Problem table_problem(int m, double beta, int horizon, std::uint64_t seed) {
  rs::util::Rng rng(seed);
  return rs::workload::random_instance(
      rng, rs::workload::InstanceFamily::kConvexTable, horizon, m, beta);
}

// ---------------------------------------------------------------------------
// CRC-32 and format pins
// ---------------------------------------------------------------------------

// The textbook bit-serial-table CRC-32 (reflected 0xEDB88320), one byte
// per step: the reference the library's sliced CRC must match.
std::uint32_t crc32_bytewise(std::span<const std::uint8_t> bytes) {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  std::uint32_t crc = 0xFFFFFFFFu;
  for (const std::uint8_t byte : bytes) {
    crc = table[(crc ^ byte) & 0xFFu] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
  std::uint64_t hash = 0xCBF29CE484222325ull;
  for (const std::uint8_t byte : bytes) {
    hash ^= byte;
    hash *= 0x100000001B3ull;
  }
  return hash;
}

TEST(Crc32, StandardCheckValue) {
  const std::string check = "123456789";
  const std::span<const std::uint8_t> bytes(
      reinterpret_cast<const std::uint8_t*>(check.data()), check.size());
  EXPECT_EQ(rs::core::crc32(bytes), 0xCBF43926u);
  EXPECT_EQ(rs::core::crc32({}), 0u);
}

TEST(Crc32, MatchesBytewiseReferenceAtEveryLengthAndOffset) {
  rs::util::Rng rng(0xC4C32ull);
  std::vector<std::uint8_t> buffer(300 + 8);
  for (std::uint8_t& byte : buffer) {
    byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  }
  const std::span<const std::uint8_t> all(buffer);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t length = 0; length <= 300; ++length) {
      const std::span<const std::uint8_t> slice = all.subspan(offset, length);
      ASSERT_EQ(rs::core::crc32(slice), crc32_bytewise(slice))
          << "offset " << offset << ", length " << length;
    }
  }
}

// Integer-valued hinge costs keep every label exact in double, so the
// sealed bytes below are the same on any conforming platform.
rs::core::CostPtr integer_hinge(int t) {
  return std::make_shared<rs::core::AffineAbsCost>(
      1.0 + static_cast<double>(t % 3), static_cast<double>((5 * t + 2) % 9),
      static_cast<double>(t % 2));
}

// FNV-1a 64 of each checkpoint kind's bytes after 24 slots, recorded
// before the sliced CRC replaced the byte-wise one: the payload layout and
// the header (CRC included) must not move by a single byte.
TEST(CheckpointFormat, GoldenBytesOfTrackerLcpAndTenantSeals) {
  constexpr int kM = 8;
  constexpr double kBeta = 2.0;
  constexpr int kSlots = 24;

  WorkFunctionTracker pwl(kM, kBeta, Backend::kPwl);
  WorkFunctionTracker dense(kM, kBeta, Backend::kDense);
  Lcp lcp(Backend::kAuto);
  lcp.reset(OnlineContext{kM, kBeta});
  rs::fleet::TenantConfig config;
  config.name = "golden";
  config.m = kM;
  config.beta = kBeta;
  config.cost_of = [](double lambda) {
    return integer_hinge(static_cast<int>(lambda));
  };
  rs::fleet::TenantSession tenant(config, 0);
  rs::core::CheckpointStore store;
  for (int t = 1; t <= kSlots; ++t) {
    const rs::core::CostPtr f = integer_hinge(t);
    pwl.advance(*f);
    dense.advance(*f);
    lcp.decide(f, {});
    ASSERT_TRUE(tenant.offer(static_cast<double>(t)));
    ASSERT_EQ(tenant.step(store), 1);
  }
  const std::vector<std::uint8_t> tracker_pwl = pwl.snapshot();
  const std::vector<std::uint8_t> tracker_dense = dense.snapshot();
  const std::vector<std::uint8_t> session = lcp.snapshot();
  const std::vector<std::uint8_t> sealed = tenant.snapshot_bytes();
  EXPECT_EQ(fnv1a64(tracker_pwl), 0x5C61B312588D3498ull);
  EXPECT_EQ(fnv1a64(tracker_dense), 0xBD16F73302D5F273ull);
  EXPECT_EQ(fnv1a64(session), 0xC0FB11EC7CF66F13ull);
  EXPECT_EQ(fnv1a64(sealed), 0xBFAF9AF37A886E48ull);
}

// ---------------------------------------------------------------------------
// Container
// ---------------------------------------------------------------------------

TEST(CheckpointContainer, WriterReaderRoundTrip) {
  CheckpointWriter w;
  w.u8(7);
  w.u32(123456u);
  w.u64(0xDEADBEEFCAFEBABEull);
  w.i32(-42);
  w.i64(-1234567890123ll);
  w.f64(3.141592653589793);
  w.f64(rs::util::kInf);
  w.f64(-0.0);
  const std::vector<std::uint8_t> sealed =
      w.seal(rs::core::kTrackerCheckpointKind);

  EXPECT_EQ(rs::core::checkpoint_kind(sealed), rs::core::kTrackerCheckpointKind);

  CheckpointReader r(sealed, rs::core::kTrackerCheckpointKind);
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.u32(), 123456u);
  EXPECT_EQ(r.u64(), 0xDEADBEEFCAFEBABEull);
  EXPECT_EQ(r.i32(), -42);
  EXPECT_EQ(r.i64(), -1234567890123ll);
  EXPECT_EQ(r.f64(), 3.141592653589793);
  EXPECT_TRUE(std::isinf(r.f64()));
  // -0.0 must survive as a bit pattern, not collapse to +0.0.
  EXPECT_TRUE(std::signbit(r.f64()));
  EXPECT_NO_THROW(r.finish());
}

TEST(CheckpointContainer, RejectsWrongKind) {
  CheckpointWriter w;
  w.u32(1);
  const std::vector<std::uint8_t> sealed =
      w.seal(rs::core::kTrackerCheckpointKind);
  EXPECT_THROW(CheckpointReader(sealed, rs::core::kLcpCheckpointKind),
               CheckpointFormatError);
}

TEST(CheckpointContainer, RejectsEveryTruncation) {
  CheckpointWriter w;
  w.u32(99);
  w.f64(2.5);
  const std::vector<std::uint8_t> sealed =
      w.seal(rs::core::kTrackerCheckpointKind);
  for (std::size_t keep = 0; keep < sealed.size(); ++keep) {
    const std::vector<std::uint8_t> cut = truncate_bytes(sealed, keep);
    EXPECT_THROW(CheckpointReader(cut, rs::core::kTrackerCheckpointKind),
                 CheckpointError)
        << "keep=" << keep;
  }
}

TEST(CheckpointContainer, RejectsEveryBitFlip) {
  CheckpointWriter w;
  w.u32(42);
  w.f64(1.75);
  const std::vector<std::uint8_t> sealed =
      w.seal(rs::core::kTrackerCheckpointKind);
  for (std::uint64_t bit = 0; bit < sealed.size() * 8; ++bit) {
    const std::vector<std::uint8_t> bad = corrupt_bit(sealed, bit);
    EXPECT_THROW(
        {
          CheckpointReader r(bad, rs::core::kTrackerCheckpointKind);
          r.u32();
          r.f64();
          r.finish();
        },
        CheckpointError)
        << "bit=" << bit;
  }
}

TEST(CheckpointContainer, RejectsTrailingPayloadBytes) {
  CheckpointWriter w;
  w.u32(5);
  w.u8(1);  // one byte the reader below never consumes
  const std::vector<std::uint8_t> sealed =
      w.seal(rs::core::kTrackerCheckpointKind);
  CheckpointReader r(sealed, rs::core::kTrackerCheckpointKind);
  EXPECT_EQ(r.u32(), 5u);
  EXPECT_THROW(r.finish(), CheckpointFormatError);
}

TEST(CheckpointContainer, FileRoundTrip) {
  CheckpointWriter w;
  w.f64(6.25);
  const std::vector<std::uint8_t> sealed =
      w.seal(rs::core::kLcpCheckpointKind);
  const std::string path = ::testing::TempDir() + "/rs_checkpoint.bin";
  rs::core::write_checkpoint_file(path, sealed);
  EXPECT_EQ(rs::core::read_checkpoint_file(path), sealed);
}

// ---------------------------------------------------------------------------
// Crash-safe file writes (temp -> fsync -> atomic rename)
// ---------------------------------------------------------------------------

TEST(CheckpointFile, AtomicWriteLeavesNoTempAndOverwriteStaysValid) {
  CheckpointWriter w1;
  w1.u32(1);
  const std::vector<std::uint8_t> first =
      w1.seal(rs::core::kTrackerCheckpointKind);
  CheckpointWriter w2;
  w2.u32(2);
  w2.f64(9.5);
  const std::vector<std::uint8_t> second =
      w2.seal(rs::core::kTrackerCheckpointKind);

  const std::string path = ::testing::TempDir() + "/rs_atomic.ckpt";
  rs::core::write_checkpoint_file(path, first);
  // The staging file must be gone once the write returns.
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(rs::core::read_checkpoint_file(path), first);

  // Overwriting replaces the content in one step; the old envelope never
  // coexists with a half-written new one under the same name.
  rs::core::write_checkpoint_file(path, second);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  EXPECT_EQ(rs::core::read_checkpoint_file(path), second);
}

TEST(CheckpointFile, TruncationAtEveryByteRejected) {
  // Simulates a crash mid-write under the *non*-atomic discipline: a file
  // holding any strict prefix of the envelope must be rejected by the
  // reader with a typed error — this is what the rename-into-place write
  // guarantees can only ever happen to the .tmp staging file.
  CheckpointWriter w;
  w.u32(77);
  w.f64(0.5);
  const std::vector<std::uint8_t> sealed =
      w.seal(rs::core::kLcpCheckpointKind);
  const std::string path = ::testing::TempDir() + "/rs_truncated.ckpt";
  for (std::size_t keep = 0; keep < sealed.size(); ++keep) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(sealed.data()),
                static_cast<std::streamsize>(keep));
    }
    const std::vector<std::uint8_t> bytes = rs::core::read_checkpoint_file(path);
    ASSERT_EQ(bytes.size(), keep);
    EXPECT_THROW(CheckpointReader(bytes, rs::core::kLcpCheckpointKind),
                 CheckpointError)
        << "keep=" << keep;
  }
}

// ---------------------------------------------------------------------------
// CheckpointStore
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> sealed_payload(std::uint32_t kind, std::uint32_t v) {
  CheckpointWriter w;
  w.u32(v);
  return w.seal(kind);
}

TEST(CheckpointStore, MemoryRoundTripAndReplace) {
  rs::core::CheckpointStore store;
  EXPECT_FALSE(store.persistent());
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.latest("a").has_value());

  const auto first = sealed_payload(rs::core::kTenantCheckpointKind, 1);
  const auto second = sealed_payload(rs::core::kTenantCheckpointKind, 2);
  store.put("a", first);
  EXPECT_TRUE(store.contains("a"));
  EXPECT_EQ(store.latest("a"), first);
  store.put("a", second);  // replaces, never appends
  EXPECT_EQ(store.size(), 1u);
  EXPECT_EQ(store.latest("a"), second);
  EXPECT_EQ(store.path_of("a"), "");  // memory-only
}

// Four threads put on one shared key and on a key of their own while
// reading both back: every latest() is exactly one of the envelopes put
// under that key, and each own key ends on its thread's last put.
TEST(CheckpointStore, ConcurrentPutsKeepWholeEnvelopes) {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kPuts = 200;
  rs::core::CheckpointStore store;
  const auto envelope = [](std::uint32_t thread, std::uint32_t i) {
    return sealed_payload(rs::core::kTenantCheckpointKind,
                          thread * kPuts + i);
  };
  // The value an envelope of this test carries, or kPuts * kThreads when
  // it is none of them.
  const auto value_of = [&](const std::vector<std::uint8_t>& bytes) {
    CheckpointReader reader(bytes, rs::core::kTenantCheckpointKind);
    const std::uint32_t v = reader.u32();
    reader.finish();
    return bytes == envelope(v / kPuts, v % kPuts) ? v : kThreads * kPuts;
  };
  std::vector<std::uint32_t> bad_reads(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::uint32_t k = 0; k < kThreads; ++k) {
    threads.emplace_back([&, k] {
      const std::string own = "own-" + std::to_string(k);
      for (std::uint32_t i = 0; i < kPuts; ++i) {
        store.put("shared", envelope(k, i));
        store.put(own, envelope(k, i));
        const auto shared = store.latest("shared");
        if (!shared || value_of(*shared) >= kThreads * kPuts) ++bad_reads[k];
        if (store.latest(own) != envelope(k, i)) ++bad_reads[k];
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::uint32_t k = 0; k < kThreads; ++k) {
    EXPECT_EQ(bad_reads[k], 0u) << "thread " << k;
    EXPECT_EQ(store.latest("own-" + std::to_string(k)),
              envelope(k, kPuts - 1));
  }
  const auto shared = store.latest("shared");
  ASSERT_TRUE(shared.has_value());
  const std::uint32_t last = value_of(*shared);
  ASSERT_LT(last, kThreads * kPuts);
  EXPECT_EQ(last % kPuts, kPuts - 1);  // some thread's final put won
  EXPECT_EQ(store.size(), kThreads + 1);
}

TEST(CheckpointStore, RejectsGarbageAndEmptyKeyAtPut) {
  rs::core::CheckpointStore store;
  EXPECT_THROW(store.put("k", {0xDE, 0xAD, 0xBE, 0xEF}),
               CheckpointFormatError);
  EXPECT_THROW(store.put("k", {}), CheckpointFormatError);
  EXPECT_THROW(store.put("", sealed_payload(rs::core::kLcpCheckpointKind, 1)),
               std::invalid_argument);
  EXPECT_EQ(store.size(), 0u);  // nothing recorded by the failed puts
}

TEST(CheckpointStore, DiskMirrorSurvivesProcessRestart) {
  const std::string dir = ::testing::TempDir() + "/rs_store_restart";
  std::filesystem::remove_all(dir);
  const auto bytes = sealed_payload(rs::core::kTenantCheckpointKind, 42);
  {
    rs::core::CheckpointStore store(dir);
    EXPECT_TRUE(store.persistent());
    store.put("tenant-0", bytes);
    EXPECT_TRUE(std::filesystem::exists(store.path_of("tenant-0")));
  }
  // A fresh store over the same directory — the "restarted process" — must
  // serve the previous save from disk.
  rs::core::CheckpointStore resumed(dir);
  EXPECT_FALSE(resumed.contains("tenant-0"));  // not in memory yet
  EXPECT_EQ(resumed.latest("tenant-0"), bytes);
  EXPECT_TRUE(resumed.contains("tenant-0"));  // cached on the way through
}

TEST(CheckpointStore, CorruptDiskFileYieldsNullopt) {
  const std::string dir = ::testing::TempDir() + "/rs_store_corrupt";
  std::filesystem::remove_all(dir);
  rs::core::CheckpointStore writer(dir);
  writer.put("t", sealed_payload(rs::core::kLcpCheckpointKind, 7));
  {
    std::ofstream out(writer.path_of("t"), std::ios::binary | std::ios::trunc);
    out << "not a checkpoint";
  }
  rs::core::CheckpointStore resumed(dir);
  EXPECT_FALSE(resumed.latest("t").has_value());  // latest *good* or nothing
}

TEST(CheckpointStore, SanitizeKeyKeepsSafeBytesOnly) {
  EXPECT_EQ(rs::core::CheckpointStore::sanitize_key("tenant-3.v1_X"),
            "tenant-3.v1_X");
  EXPECT_EQ(rs::core::CheckpointStore::sanitize_key("a/b c:d"), "a_b_c_d");
  const std::string dir = ::testing::TempDir() + "/rs_store_keys";
  rs::core::CheckpointStore store(dir);
  EXPECT_EQ(store.path_of("a/b"), dir + "/a_b.ckpt");
}

// ---------------------------------------------------------------------------
// ConvexPwl::from_parts
// ---------------------------------------------------------------------------

TEST(ConvexPwlParts, RoundTripReproducesShapeAndValues) {
  const rs::core::AffineAbsCost cost(1.5, 3.0, 0.25);
  const std::optional<ConvexPwl> form = cost.as_convex_pwl(10);
  ASSERT_TRUE(form.has_value());
  const ConvexPwl rebuilt = ConvexPwl::from_parts(
      form->lo(), form->hi(), form->value_lo(), form->first_slope(),
      form->slope_increments());
  EXPECT_TRUE(rebuilt.same_shape(*form));
  for (int x = -1; x <= 11; ++x) {
    EXPECT_EQ(rebuilt.value_at(x), form->value_at(x)) << "x=" << x;
  }
}

TEST(ConvexPwlParts, RejectsBrokenInvariants) {
  EXPECT_THROW(ConvexPwl::from_parts(3, 2, 0.0, 0.0, {}),
               std::invalid_argument);
  EXPECT_THROW(ConvexPwl::from_parts(0, 4, std::nan(""), 0.0, {}),
               std::invalid_argument);
  EXPECT_THROW(ConvexPwl::from_parts(0, 4, 0.0, rs::util::kInf, {}),
               std::invalid_argument);
  // Point domain with a slope.
  EXPECT_THROW(ConvexPwl::from_parts(2, 2, 0.0, 1.0, {}),
               std::invalid_argument);
  // Increment at the domain edge / outside.
  EXPECT_THROW(ConvexPwl::from_parts(0, 4, 0.0, 1.0, {{0, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(ConvexPwl::from_parts(0, 4, 0.0, 1.0, {{4, 1.0}}),
               std::invalid_argument);
  // Non-positive / non-finite increments (concavity or rubbish).
  EXPECT_THROW(ConvexPwl::from_parts(0, 4, 0.0, 1.0, {{2, -1.0}}),
               std::invalid_argument);
  EXPECT_THROW(ConvexPwl::from_parts(0, 4, 0.0, 1.0, {{2, 0.0}}),
               std::invalid_argument);
  EXPECT_THROW(ConvexPwl::from_parts(0, 4, 0.0, 1.0, {{2, std::nan("")}}),
               std::invalid_argument);
  // Positions out of order, or repeated.
  EXPECT_THROW(ConvexPwl::from_parts(0, 6, 0.0, 1.0, {{3, 1.0}, {2, 1.0}}),
               std::invalid_argument);
  EXPECT_THROW(ConvexPwl::from_parts(0, 6, 0.0, 1.0, {{2, 1.0}, {2, 0.5}}),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// WorkFunctionTracker
// ---------------------------------------------------------------------------

// A forced-PWL tracker payload at τ = 3 whose Ĉ^L is the form on [0, 8]
// with W(0) = 4, first slope −1 and the given slope increments, written in
// the given order.
std::vector<std::uint8_t> pwl_tracker_payload(
    const std::vector<std::pair<int, double>>& increments) {
  CheckpointWriter w;
  w.i32(8);    // m
  w.f64(2.0);  // beta
  w.u8(static_cast<std::uint8_t>(Backend::kPwl));
  w.u8(1);     // Mode::kPwl
  w.i64(3);    // tau
  w.u8(0);     // finite form
  w.i32(0);
  w.i32(8);
  w.f64(4.0);
  w.f64(-1.0);
  w.u32(static_cast<std::uint32_t>(increments.size()));
  for (const auto& [position, increment] : increments) {
    w.i32(position);
    w.f64(increment);
  }
  return w.seal(rs::core::kTrackerCheckpointKind);
}

TEST(TrackerCheckpoint, DecoderSortsIncrementsWrittenOutOfOrder) {
  const WorkFunctionTracker ascending = WorkFunctionTracker::restore(
      pwl_tracker_payload({{2, 0.5}, {5, 1.0}, {6, 0.25}}));
  const WorkFunctionTracker descending = WorkFunctionTracker::restore(
      pwl_tracker_payload({{6, 0.25}, {5, 1.0}, {2, 0.5}}));
  EXPECT_TRUE(descending.chat_lower_pwl().bitwise_equal(
      ascending.chat_lower_pwl()));
  EXPECT_EQ(descending.x_lower(), ascending.x_lower());
  EXPECT_EQ(descending.x_upper(), ascending.x_upper());
  // Re-encoding writes the canonical ascending order.
  EXPECT_EQ(descending.snapshot(), ascending.snapshot());
  EXPECT_EQ(ascending.snapshot(),
            pwl_tracker_payload({{2, 0.5}, {5, 1.0}, {6, 0.25}}));
}

TEST(TrackerCheckpoint, DecoderRejectsDuplicateIncrementPositions) {
  EXPECT_THROW(
      WorkFunctionTracker::restore(pwl_tracker_payload({{2, 0.5}, {2, 1.0}})),
      CheckpointFormatError);
  EXPECT_THROW(WorkFunctionTracker::restore(
                   pwl_tracker_payload({{5, 1.0}, {2, 0.5}, {5, 1.0}})),
               CheckpointFormatError);
}


// Advances `full` and `split` in lockstep after restoring `split` from a
// snapshot taken at `split_at`, asserting bitwise-equal bounds and chat
// values at every remaining slot.
void expect_tracker_resume_bitwise(const Problem& p, Backend backend,
                                   int split_at) {
  WorkFunctionTracker full(p.max_servers(), p.beta(), backend);
  WorkFunctionTracker warm(p.max_servers(), p.beta(), backend);
  for (int t = 1; t <= split_at; ++t) {
    full.advance(p.f(t));
    warm.advance(p.f(t));
  }
  const std::vector<std::uint8_t> bytes = warm.snapshot();
  // The restored tracker continues; `warm` is abandoned (the "crash").
  WorkFunctionTracker resumed = WorkFunctionTracker::restore(bytes);
  EXPECT_EQ(resumed.tau(), split_at);
  for (int t = split_at + 1; t <= p.horizon(); ++t) {
    full.advance(p.f(t));
    resumed.advance(p.f(t));
    ASSERT_EQ(resumed.x_lower(), full.x_lower()) << "t=" << t;
    ASSERT_EQ(resumed.x_upper(), full.x_upper()) << "t=" << t;
    for (int x = 0; x <= p.max_servers(); ++x) {
      ASSERT_EQ(resumed.chat_lower(x), full.chat_lower(x))
          << "t=" << t << " x=" << x;
      ASSERT_EQ(resumed.chat_upper(x), full.chat_upper(x))
          << "t=" << t << " x=" << x;
    }
  }
}

TEST(TrackerCheckpoint, DenseResumeBitwise) {
  const Problem p = table_problem(9, 1.75, 40, 11);
  for (int split : {1, 7, 20, 39}) {
    expect_tracker_resume_bitwise(p, Backend::kDense, split);
  }
}

TEST(TrackerCheckpoint, PwlResumeBitwise) {
  const Problem p = hinge_problem(12, 2.5, 40, 12);
  for (int split : {1, 7, 20, 39}) {
    expect_tracker_resume_bitwise(p, Backend::kPwl, split);
  }
}

TEST(TrackerCheckpoint, AutoResumeBitwise) {
  const Problem p = hinge_problem(12, 2.5, 40, 13);
  for (int split : {1, 20}) {
    expect_tracker_resume_bitwise(p, Backend::kAuto, split);
  }
}

TEST(TrackerCheckpoint, FreshTrackerSnapshotRestores) {
  const Problem p = hinge_problem(6, 1.5, 10, 14);
  WorkFunctionTracker fresh(p.max_servers(), p.beta(), Backend::kAuto);
  WorkFunctionTracker resumed = WorkFunctionTracker::restore(fresh.snapshot());
  EXPECT_EQ(resumed.tau(), 0);
  WorkFunctionTracker reference(p.max_servers(), p.beta(), Backend::kAuto);
  for (int t = 1; t <= p.horizon(); ++t) {
    reference.advance(p.f(t));
    resumed.advance(p.f(t));
    ASSERT_EQ(resumed.x_lower(), reference.x_lower()) << "t=" << t;
    ASSERT_EQ(resumed.x_upper(), reference.x_upper()) << "t=" << t;
  }
}

// Snapshot taken *inside* a constant run replayed via advance_repeated: the
// resumed tracker finishes the run and the bounds match the uninterrupted
// replay bitwise (the PWL shape fixpoint pins bounds exactly; dense skips
// nothing).  Chat values may differ at ULP level across a resume-split
// fixpoint jump, so only bounds (and hence schedules) are pinned here.
void expect_repeated_resume_bounds(Backend backend) {
  const int m = 10;
  const double beta = 2.0;
  const auto cost = std::make_shared<rs::core::AffineAbsCost>(1.0, 6.0, 0.5);
  const int run = 24;

  WorkFunctionTracker full(m, beta, backend);
  std::vector<int> xl_full(run), xu_full(run);
  full.advance_repeated(*cost, run, xl_full, xu_full);

  for (int split : {1, 3, 12, 23}) {
    WorkFunctionTracker warm(m, beta, backend);
    std::vector<int> xl(run), xu(run);
    warm.advance_repeated(*cost, split,
                          std::span<int>(xl.data(), static_cast<std::size_t>(split)),
                          std::span<int>(xu.data(), static_cast<std::size_t>(split)));
    WorkFunctionTracker resumed = WorkFunctionTracker::restore(warm.snapshot());
    ASSERT_EQ(resumed.tau(), split);
    const int rest = run - split;
    resumed.advance_repeated(
        *cost, rest,
        std::span<int>(xl.data() + split, static_cast<std::size_t>(rest)),
        std::span<int>(xu.data() + split, static_cast<std::size_t>(rest)));
    EXPECT_EQ(resumed.tau(), run);
    for (int i = 0; i < run; ++i) {
      ASSERT_EQ(xl[static_cast<std::size_t>(i)],
                xl_full[static_cast<std::size_t>(i)])
          << "backend=" << static_cast<int>(backend) << " split=" << split
          << " i=" << i;
      ASSERT_EQ(xu[static_cast<std::size_t>(i)],
                xu_full[static_cast<std::size_t>(i)])
          << "backend=" << static_cast<int>(backend) << " split=" << split
          << " i=" << i;
    }
  }
}

TEST(TrackerCheckpoint, MidAdvanceRepeatedResumeDense) {
  expect_repeated_resume_bounds(Backend::kDense);
}

TEST(TrackerCheckpoint, MidAdvanceRepeatedResumePwl) {
  expect_repeated_resume_bounds(Backend::kPwl);
}

TEST(TrackerCheckpoint, EveryBitFlipRejectedTyped) {
  const Problem p = hinge_problem(8, 2.0, 12, 15);
  WorkFunctionTracker pwl(p.max_servers(), p.beta(), Backend::kPwl);
  WorkFunctionTracker dense(p.max_servers(), p.beta(), Backend::kDense);
  for (int t = 1; t <= 5; ++t) {
    pwl.advance(p.f(t));
    dense.advance(p.f(t));
  }
  for (const WorkFunctionTracker* tracker : {&pwl, &dense}) {
    const std::vector<std::uint8_t> bytes = tracker->snapshot();
    for (std::uint64_t bit = 0; bit < bytes.size() * 8; ++bit) {
      const std::vector<std::uint8_t> bad = corrupt_bit(bytes, bit);
      EXPECT_THROW(WorkFunctionTracker::restore(bad), CheckpointError)
          << "bit=" << bit;
    }
    for (std::size_t keep = 0; keep < bytes.size(); keep += 7) {
      EXPECT_THROW(WorkFunctionTracker::restore(truncate_bytes(bytes, keep)),
                   CheckpointError)
          << "keep=" << keep;
    }
  }
}

// ---------------------------------------------------------------------------
// Lcp sessions: kill-and-resume across the whole zoo
// ---------------------------------------------------------------------------

rs::scenario::ZooParams zoo_params() {
  rs::scenario::ZooParams params;
  params.servers = 16;
  params.horizon = 192;
  params.slots_per_day = 96;
  params.peak = 11.0;
  params.quantize_levels = 10;
  params.adversary_eps = 0.25;
  return params;
}

// Replays `p` through an Lcp session, crashing at `split` (snapshot ->
// destroy -> restore into a brand-new session) and returns the schedule,
// per-step bounds, and cost.
struct SessionRun {
  rs::core::Schedule schedule;
  std::vector<int> lower;
  std::vector<int> upper;
  double cost = 0.0;
};

SessionRun run_lcp_with_crash(const Problem& p, Backend backend,
                              int split /* 0 = uninterrupted */) {
  const OnlineContext context{p.max_servers(), p.beta()};
  SessionRun run;
  auto session = std::make_unique<Lcp>(backend);
  session->reset(context);
  std::vector<std::uint8_t> bytes;
  for (int t = 1; t <= p.horizon(); ++t) {
    if (split != 0 && t == split + 1) {
      bytes = session->snapshot();
      session.reset();  // the crash
      session = std::make_unique<Lcp>(backend);
      session->restore(context, bytes);
    }
    const rs::core::CostPtr f = p.f_ptr(t);
    run.schedule.push_back(session->decide(f, {}));
    run.lower.push_back(session->last_lower());
    run.upper.push_back(session->last_upper());
  }
  run.cost = rs::core::total_cost(p, run.schedule);
  return run;
}

TEST(LcpCheckpoint, KillAndResumeBitwiseAcrossZooAndBackends) {
  const std::vector<rs::scenario::Scenario> zoo =
      rs::scenario::make_zoo(zoo_params(), 2026);
  for (const rs::scenario::Scenario& scenario : zoo) {
    SCOPED_TRACE(scenario.name);
    const Problem& p = scenario.problem;
    const bool pwl_ok = rs::core::admits_compact_pwl(p);
    for (Backend backend : {Backend::kDense, Backend::kPwl, Backend::kAuto}) {
      if (backend == Backend::kPwl && !pwl_ok) continue;
      SCOPED_TRACE(static_cast<int>(backend));
      const SessionRun clean = run_lcp_with_crash(p, backend, 0);
      for (int split : {1, p.horizon() / 3, p.horizon() - 1}) {
        const SessionRun crashed = run_lcp_with_crash(p, backend, split);
        ASSERT_EQ(crashed.schedule, clean.schedule) << "split=" << split;
        ASSERT_EQ(crashed.lower, clean.lower) << "split=" << split;
        ASSERT_EQ(crashed.upper, clean.upper) << "split=" << split;
        ASSERT_EQ(crashed.cost, clean.cost) << "split=" << split;
      }
    }
  }
}

// Lcp::snapshot() bytes sealed while the tracker still kept Ĉ^U: the
// nested tracker payload is the two-label layout (stored corridor, Ĉ^L and
// Ĉ^U; kind kLegacyTrackerCheckpointKind).  Both sessions ran m = 5,
// β = 1.5 over the first three slots of legacy_fixture_costs(), on the auto
// backend (PWL forms) and on the dense backend (label rows).
constexpr const char* kLegacyAutoLcpHex =
    "5253434b0100000002000000ce00000000000000dd804d760002000000010000"
    "000400000001b8000000000000005253434b0100000001000000a00000000000"
    "000062743afd05000000000000000000f83f0001030000000000000001000000"
    "040000000000000000050000000000000000801b409a9999999999d9bf030000"
    "00010000009a9999999999e93f02000000989999999999c93f04000000cdcccc"
    "ccccccf43f0000000000050000000000000000801b40666666666666febf0300"
    "0000010000009a9999999999e93f02000000989999999999c93f04000000cdcc"
    "ccccccccf43f";
constexpr const char* kLegacyDenseLcpHex =
    "5253434b0100000002000000ac0000000000000025776cb80102000000010000"
    "00040000000196000000000000005253434b01000000010000007e0000000000"
    "00008d758f4b05000000000000000000f83f0102030000000000000001000000"
    "040000000000000000801b406666666666e619400000000000801b4066666666"
    "66e61d4066666666662620403333333333f323400000000000801b4066666666"
    "66e61340ffffffffffff0e40cccccccccccc07409a99999999990040cdcccccc"
    "cccc0340";

std::vector<std::uint8_t> from_hex(const std::string& hex) {
  std::vector<std::uint8_t> bytes;
  for (std::size_t i = 0; i + 1 < hex.size(); i += 2) {
    bytes.push_back(
        static_cast<std::uint8_t>(std::stoi(hex.substr(i, 2), nullptr, 16)));
  }
  return bytes;
}

std::vector<rs::core::CostPtr> legacy_fixture_costs() {
  return {std::make_shared<rs::core::AffineAbsCost>(0.7, 2.0, 0.25),
          std::make_shared<rs::core::AffineAbsCost>(1.3, 4.0, 0.5),
          std::make_shared<rs::core::AffineAbsCost>(0.4, 1.0, 0.125),
          std::make_shared<rs::core::AffineAbsCost>(0.9, 3.0, 0.0),
          std::make_shared<rs::core::AffineAbsCost>(0.2, 5.0, 1.0),
          std::make_shared<rs::core::AffineAbsCost>(1.1, 0.0, 0.3)};
}

TEST(LcpCheckpoint, LegacyTwoLabelPayloadsStillRestore) {
  const std::vector<rs::core::CostPtr> costs = legacy_fixture_costs();
  const OnlineContext context{5, 1.5};
  for (const auto& [backend, hex] :
       {std::pair<Backend, const char*>{Backend::kAuto, kLegacyAutoLcpHex},
        {Backend::kDense, kLegacyDenseLcpHex}}) {
    SCOPED_TRACE(static_cast<int>(backend));
    Lcp restored(backend);
    restored.restore(context, from_hex(hex));
    Lcp reference(backend);
    reference.reset(context);
    for (std::size_t t = 0; t < 3; ++t) reference.decide(costs[t], {});
    // Ĉ^U is dropped and the corridor recomputed: re-sealing yields the
    // one-label layout, bit for bit what a fresh session writes.
    EXPECT_EQ(restored.snapshot(), reference.snapshot());
    for (std::size_t t = 3; t < costs.size(); ++t) {
      ASSERT_EQ(restored.decide(costs[t], {}), reference.decide(costs[t], {}))
          << "t=" << t;
      ASSERT_EQ(restored.last_lower(), reference.last_lower());
      ASSERT_EQ(restored.last_upper(), reference.last_upper());
    }
  }
}

TEST(LcpCheckpoint, RestoreRejectsMismatchedTarget) {
  const Problem p = hinge_problem(10, 2.0, 20, 16);
  Lcp session(Backend::kAuto);
  session.reset(OnlineContext{10, 2.0});
  for (int t = 1; t <= 10; ++t) session.decide(p.f_ptr(t), {});
  const std::vector<std::uint8_t> bytes = session.snapshot();

  Lcp target(Backend::kAuto);
  EXPECT_THROW(target.restore(OnlineContext{11, 2.0}, bytes),
               CheckpointMismatchError);  // wrong m
  EXPECT_THROW(target.restore(OnlineContext{10, 2.5}, bytes),
               CheckpointMismatchError);  // wrong beta
  Lcp wrong_backend(Backend::kDense);
  EXPECT_THROW(wrong_backend.restore(OnlineContext{10, 2.0}, bytes),
               CheckpointMismatchError);  // wrong session backend
  // A tracker checkpoint is not a session checkpoint.
  WorkFunctionTracker tracker(10, 2.0, Backend::kDense);
  EXPECT_THROW(target.restore(OnlineContext{10, 2.0}, tracker.snapshot()),
               CheckpointFormatError);
  // After all those rejections the target must still be usable.
  target.restore(OnlineContext{10, 2.0}, bytes);
  EXPECT_EQ(target.last_lower(), session.last_lower());
  EXPECT_EQ(target.last_upper(), session.last_upper());
}

TEST(LcpCheckpoint, CorruptedSessionBytesRejected) {
  const Problem p = table_problem(6, 1.5, 12, 17);
  Lcp session(Backend::kDense);
  session.reset(OnlineContext{6, 1.5});
  for (int t = 1; t <= 8; ++t) session.decide(p.f_ptr(t), {});
  const std::vector<std::uint8_t> bytes = session.snapshot();
  Lcp target(Backend::kDense);
  for (std::uint64_t bit = 0; bit < bytes.size() * 8; bit += 5) {
    EXPECT_THROW(
        target.restore(OnlineContext{6, 1.5}, corrupt_bit(bytes, bit)),
        CheckpointError)
        << "bit=" << bit;
  }
}

// ---------------------------------------------------------------------------
// LCP with a prediction window: mid-window resume
// ---------------------------------------------------------------------------

SessionRun run_windowed_with_crash(const Problem& p, Backend backend,
                                   int window, int split) {
  const OnlineContext context{p.max_servers(), p.beta()};
  // Materialize the cost sequence once so lookahead spans are trivial.
  std::vector<rs::core::CostPtr> costs;
  costs.reserve(static_cast<std::size_t>(p.horizon()));
  for (int t = 1; t <= p.horizon(); ++t) costs.push_back(p.f_ptr(t));

  SessionRun run;
  auto session = std::make_unique<Lcp>(backend);
  session->reset(context);
  for (int t = 1; t <= p.horizon(); ++t) {
    if (split != 0 && t == split + 1) {
      const std::vector<std::uint8_t> bytes = session->snapshot();
      session.reset();
      session = std::make_unique<Lcp>(backend);
      session->restore(context, bytes);
    }
    const std::size_t begin = static_cast<std::size_t>(t);
    const std::size_t count =
        std::min(static_cast<std::size_t>(window), costs.size() - begin);
    run.schedule.push_back(session->decide(
        costs[begin - 1],
        std::span<const rs::core::CostPtr>(costs.data() + begin, count)));
    run.lower.push_back(session->last_lower());
    run.upper.push_back(session->last_upper());
  }
  run.cost = rs::core::total_cost(p, run.schedule);
  return run;
}

TEST(LcpWindowCheckpoint, MidWindowResumeBitwise) {
  const int window = 5;
  const Problem hinge = hinge_problem(10, 2.0, 48, 18);
  const Problem table = table_problem(8, 1.5, 48, 19);
  struct Case {
    const Problem* p;
    Backend backend;
  };
  for (const Case& c : {Case{&hinge, Backend::kAuto},
                        Case{&hinge, Backend::kPwl},
                        Case{&table, Backend::kDense}}) {
    SCOPED_TRACE(static_cast<int>(c.backend));
    const SessionRun clean = run_windowed_with_crash(*c.p, c.backend, window, 0);
    // Splits chosen so the prediction window straddles the crash point
    // (every t in [split+1, split+window] was "seen" as lookahead before
    // the crash and is re-revealed after restore with a cold form cache).
    for (int split : {1, 20, c.p->horizon() - 2}) {
      const SessionRun crashed =
          run_windowed_with_crash(*c.p, c.backend, window, split);
      ASSERT_EQ(crashed.schedule, clean.schedule) << "split=" << split;
      ASSERT_EQ(crashed.lower, clean.lower) << "split=" << split;
      ASSERT_EQ(crashed.upper, clean.upper) << "split=" << split;
      ASSERT_EQ(crashed.cost, clean.cost) << "split=" << split;
    }
  }
}

TEST(LcpWindowCheckpoint, RestoreRejectsMismatchedTarget) {
  const Problem p = hinge_problem(10, 2.0, 20, 20);
  Lcp session(Backend::kAuto);
  session.reset(OnlineContext{10, 2.0});
  std::vector<rs::core::CostPtr> costs;
  for (int t = 1; t <= p.horizon(); ++t) costs.push_back(p.f_ptr(t));
  for (int t = 1; t <= 10; ++t) {
    session.decide(costs[static_cast<std::size_t>(t - 1)],
                   std::span<const rs::core::CostPtr>(costs.data() + t,
                                                      std::min(3, 20 - t)));
  }
  const std::vector<std::uint8_t> bytes = session.snapshot();
  Lcp target(Backend::kAuto);
  EXPECT_THROW(target.restore(OnlineContext{9, 2.0}, bytes),
               CheckpointMismatchError);
  EXPECT_THROW(target.restore(OnlineContext{10, 1.0}, bytes),
               CheckpointMismatchError);
  Lcp wrong_backend(Backend::kDense);
  EXPECT_THROW(wrong_backend.restore(OnlineContext{10, 2.0}, bytes),
               CheckpointMismatchError);
}

// Session bytes sealed by the former windowed session class (kind
// kWindowedLcpCheckpointKind, which adds (m, beta) to the Lcp layout),
// taken mid-window: m = 5, β = 1.5, window 2, after the first three slots
// of legacy_fixture_costs(), on the auto backend (PWL forms) and on the
// dense backend (label rows).
constexpr const char* kLegacyWindowedAutoHex =
    "5253434b0100000003000000910000000000000001bcda610005000000000000"
    "000000f83f030000000300000004000000016f000000000000005253434b0100"
    "0000050000005700000000000000ce05704b05000000000000000000f83f0001"
    "03000000000000000000000000050000000000000000801b409a9999999999d9"
    "bf03000000010000009a9999999999e93f02000000989999999999c93f040000"
    "00cdccccccccccf43f";
constexpr const char* kLegacyWindowedDenseHex =
    "5253434b0100000003000000800000000000000024d5f3510105000000000000"
    "000000f83f030000000300000004000000015e000000000000005253434b0100"
    "00000500000046000000000000009177c86905000000000000000000f83f0102"
    "03000000000000000000000000801b406666666666e619400000000000801b40"
    "6666666666e61d4066666666662620403333333333f32340";

TEST(LcpWindowCheckpoint, LegacyWindowedPayloadsRestoreAndResume) {
  const std::vector<rs::core::CostPtr> costs = legacy_fixture_costs();
  const OnlineContext context{5, 1.5};
  const std::size_t window = 2;
  const auto lookahead = [&](std::size_t t) {
    return std::span<const rs::core::CostPtr>(
        costs.data() + t + 1, std::min(window, costs.size() - t - 1));
  };
  for (const auto& [backend, hex] :
       {std::pair<Backend, const char*>{Backend::kAuto,
                                        kLegacyWindowedAutoHex},
        {Backend::kDense, kLegacyWindowedDenseHex}}) {
    SCOPED_TRACE(static_cast<int>(backend));
    const std::vector<std::uint8_t> bytes = from_hex(hex);
    ASSERT_EQ(rs::core::checkpoint_kind(bytes),
              rs::core::kWindowedLcpCheckpointKind);
    Lcp restored(backend);
    restored.restore(context, bytes);
    Lcp reference(backend);
    reference.reset(context);
    for (std::size_t t = 0; t < 3; ++t) {
      reference.decide(costs[t], lookahead(t));
    }
    // Re-sealing writes the one session kind, bit for bit what the
    // uninterrupted session writes.
    EXPECT_EQ(restored.snapshot(), reference.snapshot());
    // The writing session's own continuation, (x, x^L, x^U) per slot.
    const std::vector<std::array<int, 3>> written = {
        {3, 3, 3}, {3, 3, 3}, {3, 0, 3}};
    for (std::size_t t = 3; t < costs.size(); ++t) {
      ASSERT_EQ(restored.decide(costs[t], lookahead(t)),
                reference.decide(costs[t], lookahead(t)))
          << "t=" << t;
      ASSERT_EQ(restored.last_lower(), reference.last_lower());
      ASSERT_EQ(restored.last_upper(), reference.last_upper());
      EXPECT_EQ((std::array<int, 3>{restored.current_state(),
                                    restored.last_lower(),
                                    restored.last_upper()}),
                written[t - 3])
          << "t=" << t;
    }
  }
  // The legacy kind records (m, beta) itself; both are checked.
  Lcp target(Backend::kAuto);
  EXPECT_THROW(target.restore(OnlineContext{6, 1.5},
                              from_hex(kLegacyWindowedAutoHex)),
               CheckpointMismatchError);
  EXPECT_THROW(target.restore(OnlineContext{5, 2.0},
                              from_hex(kLegacyWindowedAutoHex)),
               CheckpointMismatchError);
}

}  // namespace
