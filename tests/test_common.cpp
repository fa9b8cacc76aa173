// Unit tests for src/common: error machinery, aligned buffers, RNG
// statistics and determinism, table rendering, numeric helpers, CRC32C.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string_view>
#include <vector>

#include "common/aligned_buffer.hpp"
#include "common/crc32c.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/types.hpp"
#include "common/wall_clock.hpp"

namespace pstap {
namespace {

// ---------------------------------------------------------------- errors --

TEST(Error, RequireThrowsPreconditionWithContext) {
  try {
    PSTAP_REQUIRE(1 == 2, "one is not two");
    FAIL() << "expected PreconditionError";
  } catch (const PreconditionError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
    EXPECT_NE(what.find("one is not two"), std::string::npos);
    EXPECT_NE(what.find("test_common.cpp"), std::string::npos);
  }
}

TEST(Error, CheckThrowsRuntime) {
  EXPECT_THROW(PSTAP_CHECK(false, "broken invariant"), RuntimeError);
}

TEST(Error, FailThrowsRuntime) {
  EXPECT_THROW(PSTAP_FAIL("unconditional"), RuntimeError);
}

TEST(Error, IoFailIncludesErrno) {
  try {
    PSTAP_IO_FAIL("open failed", 2 /* ENOENT */);
    FAIL() << "expected IoError";
  } catch (const IoError& e) {
    EXPECT_NE(std::string(e.what()).find("errno 2"), std::string::npos);
  }
}

TEST(Error, PassingRequireDoesNotThrow) {
  EXPECT_NO_THROW(PSTAP_REQUIRE(true, "fine"));
  EXPECT_NO_THROW(PSTAP_CHECK(true, "fine"));
}

// ----------------------------------------------------------------- types --

TEST(Types, CeilDivAndRoundUp) {
  EXPECT_EQ(ceil_div(10, 3), 4);
  EXPECT_EQ(ceil_div(9, 3), 3);
  EXPECT_EQ(ceil_div(1, 64), 1);
  EXPECT_EQ(round_up(10, 8), 16);
  EXPECT_EQ(round_up(16, 8), 16);
}

TEST(Types, Pow2Helpers) {
  EXPECT_TRUE(is_pow2(1));
  EXPECT_TRUE(is_pow2(1024));
  EXPECT_FALSE(is_pow2(0));
  EXPECT_FALSE(is_pow2(3));
  EXPECT_EQ(next_pow2(1), 1u);
  EXPECT_EQ(next_pow2(3), 4u);
  EXPECT_EQ(next_pow2(1024), 1024u);
  EXPECT_EQ(next_pow2(1025), 2048u);
}

TEST(Types, DbConversionsRoundTrip) {
  for (double db : {-30.0, 0.0, 3.0, 10.0, 60.0}) {
    EXPECT_NEAR(to_db(from_db(db)), db, 1e-12);
  }
}

// -------------------------------------------------------- aligned buffer --

TEST(AlignedBuffer, AllocatesAligned) {
  AlignedBuffer<cfloat> buf(1000);
  EXPECT_EQ(buf.size(), 1000u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % kDefaultAlignment, 0u);
}

TEST(AlignedBuffer, CustomAlignment) {
  AlignedBuffer<float> buf(16, 4096);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(buf.data()) % 4096, 0u);
}

TEST(AlignedBuffer, RejectsBadAlignment) {
  EXPECT_THROW(AlignedBuffer<float>(4, 48), PreconditionError);   // not pow2
  EXPECT_THROW(AlignedBuffer<double>(4, 4), PreconditionError);   // < alignof
}

TEST(AlignedBuffer, EmptyIsValid) {
  AlignedBuffer<float> buf;
  EXPECT_TRUE(buf.empty());
  AlignedBuffer<float> zero(0);
  EXPECT_TRUE(zero.empty());
}

TEST(AlignedBuffer, MoveTransfersOwnership) {
  AlignedBuffer<int> a(8);
  a[0] = 42;
  int* p = a.data();
  AlignedBuffer<int> b = std::move(a);
  EXPECT_EQ(b.data(), p);
  EXPECT_EQ(b[0], 42);
  EXPECT_EQ(b.size(), 8u);
}

TEST(AlignedBuffer, FillZeroAndIteration) {
  AlignedBuffer<float> buf(64);
  buf.fill_zero();
  for (float v : buf) EXPECT_EQ(v, 0.0f);
  EXPECT_EQ(buf.span().size(), 64u);
}

// ------------------------------------------------------------------- rng --

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng r(8);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  Rng r(9);
  std::vector<int> counts(10, 0);
  const int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) counts[r.uniform_index(10)]++;
  for (int c : counts) {
    EXPECT_GT(c, kDraws / 10 - 600);
    EXPECT_LT(c, kDraws / 10 + 600);
  }
}

TEST(Rng, NormalMomentsAreStandard) {
  Rng r(10);
  const int n = 200000;
  double sum = 0, sum2 = 0;
  for (int i = 0; i < n; ++i) {
    const double x = r.normal();
    sum += x;
    sum2 += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.02);
  EXPECT_NEAR(sum2 / n, 1.0, 0.02);
}

TEST(Rng, ComplexNormalPowerMatchesRequest) {
  Rng r(11);
  const int n = 100000;
  double p = 0;
  for (int i = 0; i < n; ++i) p += std::norm(r.complex_normal(4.0));
  EXPECT_NEAR(p / n, 4.0, 0.1);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(42);
  Rng child = parent.split();
  // The child stream should not replay the parent's outputs.
  Rng parent2(42);
  (void)parent2.next_u64();  // advance past the split draw
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (child.next_u64() == parent2.next_u64());
  EXPECT_LT(same, 2);
}

// ----------------------------------------------------------------- table --

TEST(Table, RendersHeaderAndRows) {
  TablePrinter t("demo");
  t.set_header({"task", "time", "nodes"});
  t.add_row({"doppler", TableCell(1.2345, 3), 16});
  t.add_row({"cfar", TableCell(0.5, 3), 4});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("doppler"), std::string::npos);
  EXPECT_NE(s.find("1.234"), std::string::npos);  // precision 3 -> 1.234 or 1.235
  EXPECT_NE(s.find("16"), std::string::npos);
}

TEST(Table, SeparatorAddsRule) {
  TablePrinter t;
  t.set_header({"a"});
  t.add_row({"x"});
  t.add_separator();
  t.add_row({"y"});
  const std::string s = t.to_string();
  // rules: top, under header, separator, bottom = 4 lines starting with '+'
  int rules = 0;
  std::istringstream is(s);
  std::string line;
  while (std::getline(is, line)) rules += (!line.empty() && line[0] == '+');
  EXPECT_EQ(rules, 4);
}

TEST(Table, RaggedRowsPadToWidestRow) {
  TablePrinter t;
  t.set_header({"c1", "c2"});
  t.add_row({"only-one"});
  t.add_row({"a", "b", "c"});  // wider than the header
  EXPECT_NO_THROW(t.to_string());
  EXPECT_NE(t.to_string().find('c'), std::string::npos);
}

TEST(Table, IntegerCellsRenderWithoutDecimals) {
  TableCell c(42);
  EXPECT_EQ(c.render(), "42");
}

// ----------------------------------------------------------------- clock --

TEST(WallClock, MonotonicNonDecreasing) {
  const Seconds a = monotonic_now();
  const Seconds b = monotonic_now();
  EXPECT_GE(b, a);
}

TEST(WallClock, StopWatchAccumulates) {
  Seconds total = 0;
  {
    StopWatch sw(total);
    volatile double x = 0;
    for (int i = 0; i < 100000; ++i) x = x + 1.0;
  }
  EXPECT_GT(total, 0.0);
}

TEST(WallClock, TimerResets) {
  Timer t;
  volatile double x = 0;
  for (int i = 0; i < 100000; ++i) x = x + 1.0;
  const Seconds before = t.elapsed();
  t.reset();
  EXPECT_LE(t.elapsed(), before + 1.0);
}

// ---------------------------------------------------------------- crc32c --

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> v(n);
  for (auto& b : v) b = static_cast<unsigned char>(rng.next_u64() & 0xFF);
  return v;
}

TEST(Crc32c, KnownAnswer) {
  constexpr std::string_view kCheck = "123456789";
  EXPECT_EQ(crc32c(kCheck.data(), kCheck.size()), 0xE3069283u);
  EXPECT_EQ(detail::crc32c_update_portable(0, kCheck.data(), kCheck.size()),
            0xE3069283u);
  EXPECT_EQ(crc32c(kCheck.data(), 0), 0u);
}

// The hardware path must be the same function as the table loop at every
// length tail (0-7 leftover bytes after the 8-byte steps) and every
// alignment, so checksums recorded by either verify under the other.
TEST(Crc32c, HardwareMatchesPortableAtEveryLengthAndOffset) {
  if (!detail::crc32c_hardware_available()) {
    GTEST_SKIP() << "host has no SSE4.2 crc32 instruction";
  }
  const auto buf = random_bytes(8 + 300, 17);
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 300; ++len) {
      const std::uint32_t seed = static_cast<std::uint32_t>(off * 977 + len);
      ASSERT_EQ(detail::crc32c_update_hardware(seed, buf.data() + off, len),
                detail::crc32c_update_portable(seed, buf.data() + off, len))
          << "offset " << off << " length " << len;
    }
  }
}

TEST(Crc32c, HardwareMatchesPortableOnOneMebibyte) {
  if (!detail::crc32c_hardware_available()) {
    GTEST_SKIP() << "host has no SSE4.2 crc32 instruction";
  }
  const auto buf = random_bytes(1 << 20, 23);
  EXPECT_EQ(detail::crc32c_update_hardware(0, buf.data(), buf.size()),
            detail::crc32c_update_portable(0, buf.data(), buf.size()));
}

TEST(Crc32c, ChainedUpdatesEqualOneShot) {
  const auto buf = random_bytes(70000, 29);
  const std::uint32_t whole = crc32c(buf.data(), buf.size());
  EXPECT_EQ(whole, detail::crc32c_update_portable(0, buf.data(), buf.size()));
  // Split points off every alignment, including empty spans.
  for (const std::size_t step : std::vector<std::size_t>{1, 3, 8, 13, 4096, 65536}) {
    std::uint32_t crc = 0;
    for (std::size_t pos = 0; pos < buf.size(); pos += step) {
      crc = crc32c_update(crc, buf.data() + pos, std::min(step, buf.size() - pos));
      crc = crc32c_update(crc, buf.data() + pos, 0);
    }
    EXPECT_EQ(crc, whole) << "step " << step;
  }
}

}  // namespace
}  // namespace pstap
