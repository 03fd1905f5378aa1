// Unit tests for the common/ utilities: rng distributions, byte streams,
// statistics, and the dense linear solver.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "common/crc32c.h"
#include "common/linalg.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"

namespace aic {
namespace {

TEST(Check, ThrowsWithMessage) {
  EXPECT_THROW(AIC_CHECK(1 == 2), CheckError);
  try {
    AIC_CHECK_MSG(false, "context " << 42);
    FAIL() << "should have thrown";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("context 42"), std::string::npos);
  }
}

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (a() == b());
  EXPECT_LT(equal, 3);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformU64Unbiased) {
  Rng rng(9);
  const std::uint64_t n = 7;
  std::vector<int> counts(n, 0);
  const int trials = 70000;
  for (int i = 0; i < trials; ++i) ++counts[rng.uniform_u64(n)];
  for (auto c : counts) {
    EXPECT_NEAR(double(c), trials / double(n), 5.0 * std::sqrt(trials / 7.0));
  }
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(11);
  const double lambda = 0.25;
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.exponential(lambda));
  EXPECT_NEAR(s.mean(), 1.0 / lambda, 0.1);
}

TEST(Rng, NormalMoments) {
  Rng rng(13);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(rng.normal(5.0, 2.0));
  EXPECT_NEAR(s.mean(), 5.0, 0.1);
  EXPECT_NEAR(s.stddev(), 2.0, 0.1);
}

TEST(Rng, PoissonMean) {
  Rng rng(17);
  RunningStats small, large;
  for (int i = 0; i < 20000; ++i) small.add(double(rng.poisson(3.0)));
  for (int i = 0; i < 20000; ++i) large.add(double(rng.poisson(100.0)));
  EXPECT_NEAR(small.mean(), 3.0, 0.1);
  EXPECT_NEAR(large.mean(), 100.0, 1.0);
}

TEST(Rng, ZipfLikePrefersLowIndices) {
  Rng rng(19);
  int low = 0, high = 0;
  for (int i = 0; i < 10000; ++i) {
    auto k = rng.zipf_like(100, 0.9);
    if (k < 10) ++low;
    if (k >= 90) ++high;
  }
  EXPECT_GT(low, high * 5);
}

TEST(Rng, ForkIndependence) {
  Rng parent(23);
  Rng child = parent.fork();
  // Child stream should not replicate the parent stream.
  int equal = 0;
  for (int i = 0; i < 100; ++i) equal += (parent() == child());
  EXPECT_LT(equal, 3);
}

TEST(Bytes, FixedWidthRoundTrip) {
  Bytes buf;
  ByteWriter w(buf);
  w.u8(0xAB);
  w.u16(0xBEEF);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFULL);
  w.f64(3.14159);
  ByteReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xBEEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFULL);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, VarintRoundTripBoundaries) {
  const std::uint64_t values[] = {0,    1,    127,        128,
                                  129,  255,  16383,      16384,
                                  1u << 21,   (1ull << 35) + 7,
                                  ~0ull};
  Bytes buf;
  ByteWriter w(buf);
  for (auto v : values) w.varint(v);
  ByteReader r(buf);
  for (auto v : values) EXPECT_EQ(r.varint(), v);
  EXPECT_TRUE(r.done());
}

TEST(Bytes, VarintSizes) {
  Bytes buf;
  ByteWriter w(buf);
  w.varint(127);
  EXPECT_EQ(buf.size(), 1u);
  w.varint(128);
  EXPECT_EQ(buf.size(), 3u);
}

TEST(Bytes, ReaderUnderrunThrows) {
  Bytes buf = {0x01};
  ByteReader r(buf);
  r.u8();
  EXPECT_THROW(r.u8(), CheckError);
}

TEST(Bytes, RawSpans) {
  Bytes buf;
  ByteWriter w(buf);
  Bytes payload = {1, 2, 3, 4, 5};
  w.raw(payload);
  ByteReader r(buf);
  auto s = r.raw(5);
  EXPECT_EQ(Bytes(s.begin(), s.end()), payload);
}

TEST(Stats, RunningMoments) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.stddev(), 2.138, 1e-3);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Stats, MergeEqualsSequential) {
  Rng rng(29);
  RunningStats all, a, b;
  for (int i = 0; i < 1000; ++i) {
    double x = rng.normal();
    all.add(x);
    (i % 2 ? a : b).add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
}

TEST(Stats, Percentile) {
  std::vector<double> xs = {5, 1, 4, 2, 3};
  EXPECT_DOUBLE_EQ(percentile_of(xs, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(percentile_of(xs, 0.25), 2.0);
}

TEST(Stats, Correlation) {
  std::vector<double> xs = {1, 2, 3, 4, 5};
  std::vector<double> ys = {2, 4, 6, 8, 10};
  std::vector<double> zs = {10, 8, 6, 4, 2};
  EXPECT_NEAR(correlation_of(xs, ys), 1.0, 1e-12);
  EXPECT_NEAR(correlation_of(xs, zs), -1.0, 1e-12);
}

TEST(Linalg, SolveKnownSystem) {
  Matrix a(2, 2);
  a(0, 0) = 2;
  a(0, 1) = 1;
  a(1, 0) = 1;
  a(1, 1) = 3;
  std::vector<double> x;
  ASSERT_TRUE(solve_linear(a, {5, 10}, x));
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 3.0, 1e-12);
}

TEST(Linalg, SolveSingularFails) {
  Matrix a(2, 2);
  a(0, 0) = 1;
  a(0, 1) = 2;
  a(1, 0) = 2;
  a(1, 1) = 4;
  std::vector<double> x;
  EXPECT_FALSE(solve_linear(a, {1, 2}, x));
}

TEST(Linalg, SolveRandomSystemsRoundTrip) {
  Rng rng(31);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t n = 1 + rng.uniform_u64(8);
    Matrix a(n, n);
    std::vector<double> truth(n);
    for (std::size_t i = 0; i < n; ++i) {
      truth[i] = rng.normal();
      for (std::size_t j = 0; j < n; ++j) a(i, j) = rng.normal();
      a(i, i) += double(n);  // diagonally dominant => well conditioned
    }
    std::vector<double> b(n, 0.0);
    for (std::size_t i = 0; i < n; ++i)
      for (std::size_t j = 0; j < n; ++j) b[i] += a(i, j) * truth[j];
    std::vector<double> x;
    ASSERT_TRUE(solve_linear(a, b, x));
    for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(x[i], truth[i], 1e-8);
  }
}

TEST(Linalg, LeastSquaresRecoversPlantedModel) {
  Rng rng(37);
  const std::size_t n = 200, p = 3;
  Matrix x(n, p);
  std::vector<double> beta_true = {2.0, -1.5, 0.5};
  std::vector<double> y(n);
  for (std::size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (std::size_t j = 0; j < p; ++j) {
      x(i, j) = rng.normal();
      acc += x(i, j) * beta_true[j];
    }
    y[i] = acc + 0.01 * rng.normal();
  }
  std::vector<double> beta;
  ASSERT_TRUE(least_squares(x, y, beta));
  for (std::size_t j = 0; j < p; ++j) EXPECT_NEAR(beta[j], beta_true[j], 0.02);
  EXPECT_LT(residual_sum_squares(x, y, beta), 0.05 * double(n));
}

TEST(Linalg, MatrixMultiplyIdentity) {
  Rng rng(41);
  Matrix m(3, 3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) m(i, j) = rng.normal();
  Matrix p = m * Matrix::identity(3);
  for (std::size_t i = 0; i < 3; ++i)
    for (std::size_t j = 0; j < 3; ++j) EXPECT_DOUBLE_EQ(p(i, j), m(i, j));
}

TEST(Table, RendersAlignedAndCsv) {
  TextTable t("demo");
  t.set_header({"name", "value"});
  t.add_row({"alpha", TextTable::num(1.5, 1)});
  t.add_row({"beta", TextTable::pct(0.25, 0)});
  std::ostringstream os;
  t.print(os);
  t.print_csv(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("demo"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("1.5"), std::string::npos);
  EXPECT_NE(s.find("25%"), std::string::npos);
  EXPECT_NE(s.find("alpha,1.5"), std::string::npos);
}

TEST(Table, MismatchedRowThrows) {
  TextTable t("demo");
  t.set_header({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), CheckError);
}

TEST(Crc32c, MatchesKnownVectors) {
  // RFC 3720 / published CRC-32C check values.
  const std::string check = "123456789";
  EXPECT_EQ(crc32c(ByteSpan(reinterpret_cast<const std::uint8_t*>(
                                check.data()),
                            check.size())),
            0xE3069283u);
  EXPECT_EQ(crc32c({}), 0x00000000u);
  const Bytes zeros(32, 0);
  EXPECT_EQ(crc32c(zeros), 0x8A9136AAu);
  const Bytes ffs(32, 0xFF);
  EXPECT_EQ(crc32c(ffs), 0x62A8AB43u);
}

TEST(Crc32c, StreamingMatchesOneShot) {
  Rng rng(11);
  Bytes data(1000);
  for (auto& b : data) b = std::uint8_t(rng());
  const std::uint32_t oneshot = crc32c(data);
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                            std::size_t{500}, data.size()}) {
    std::uint32_t st = kCrc32cInit;
    st = crc32c_update(st, ByteSpan(data).subspan(0, split));
    st = crc32c_update(st, ByteSpan(data).subspan(split));
    EXPECT_EQ(crc32c_finalize(st), oneshot) << "split " << split;
  }
}

TEST(Crc32c, SensitiveToEverySingleBitFlip) {
  Rng rng(12);
  Bytes data(64);
  for (auto& b : data) b = std::uint8_t(rng());
  const std::uint32_t base = crc32c(data);
  for (std::size_t i = 0; i < data.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = data;
      flipped[i] ^= std::uint8_t(1u << bit);
      EXPECT_NE(crc32c(flipped), base) << "byte " << i << " bit " << bit;
    }
  }
}

// ---- the dispatched updaters against each other ----

using Crc32cUpdater = std::uint32_t (*)(std::uint32_t, ByteSpan);

/// One bit per step: the definition both updaters must reproduce.
std::uint32_t crc32c_bitwise(std::uint32_t state, ByteSpan data) {
  for (std::uint8_t b : data) {
    state ^= b;
    for (int bit = 0; bit < 8; ++bit)
      state = (state >> 1) ^ (0x82F63B78u & (0u - (state & 1u)));
  }
  return state;
}

/// `update` must match the bitwise definition on every length 0-256 at
/// every start offset 0-7, on random streaming splits of 1 MiB, and on the
/// RFC 3720 (B.4) and "123456789" check values.
void expect_matches_definition(Crc32cUpdater update) {
  Rng rng(13);
  Bytes small(256 + 8);
  for (auto& b : small) b = std::uint8_t(rng());
  for (std::size_t off = 0; off < 8; ++off) {
    for (std::size_t len = 0; len <= 256; ++len) {
      const ByteSpan span = ByteSpan(small).subspan(off, len);
      ASSERT_EQ(update(kCrc32cInit, span), crc32c_bitwise(kCrc32cInit, span))
          << "offset " << off << " length " << len;
    }
  }

  Bytes big(1 << 20);
  for (auto& b : big) b = std::uint8_t(rng());
  const std::uint32_t whole = crc32c_bitwise(kCrc32cInit, big);
  for (int round = 0; round < 4; ++round) {
    std::uint32_t state = kCrc32cInit;
    std::size_t at = 0;
    while (at < big.size()) {
      // Piece lengths from 0 to ~64 KiB, odd sizes and empty pieces too.
      const std::size_t len = std::min<std::size_t>(
          big.size() - at, rng.uniform_u64(std::uint64_t(1) << (round * 4 + 4)));
      state = update(state, ByteSpan(big).subspan(at, len));
      at += len;
    }
    ASSERT_EQ(state, whole) << "streaming round " << round;
  }

  auto check = [&](const Bytes& data, std::uint32_t expected) {
    EXPECT_EQ(crc32c_finalize(update(kCrc32cInit, data)), expected);
  };
  check(Bytes(32, 0x00), 0x8A9136AAu);
  check(Bytes(32, 0xFF), 0x62A8AB43u);
  Bytes ramp(32);
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = std::uint8_t(i);
  check(ramp, 0x46DD794Eu);
  std::reverse(ramp.begin(), ramp.end());
  check(ramp, 0x113FDB5Cu);
  // An iSCSI SCSI Read (10) command PDU.
  const Bytes pdu = {0x01, 0xC0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                     0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00,
                     0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00,
                     0x00, 0x18, 0x28, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
                     0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00};
  check(pdu, 0xD9963A56u);
  check({'1', '2', '3', '4', '5', '6', '7', '8', '9'}, 0xE3069283u);
}

TEST(Crc32c, SliceBy8MatchesDefinition) {
  expect_matches_definition(detail::crc32c_update_slice8);
}

TEST(Crc32c, Sse42MatchesDefinition) {
#if defined(__x86_64__)
  if (!__builtin_cpu_supports("sse4.2")) GTEST_SKIP() << "no SSE4.2";
  expect_matches_definition(detail::crc32c_update_sse42);
#else
  GTEST_SKIP() << "the SSE4.2 path exists on x86-64 only";
#endif
}

TEST(Crc32c, ThreeStreamPathMatchesSliceBy8) {
#if defined(__x86_64__)
  if (!__builtin_cpu_supports("sse4.2")) GTEST_SKIP() << "no SSE4.2";
  // Lengths on both sides of one, two and three rounds of three streams,
  // and of the single-stream tail's word and byte steps, at every start
  // offset 0-7 and from three start registers.
  constexpr std::size_t kRound = 3 * kCrc32cStreamBlock;
  Rng rng(14);
  Bytes data(3 * kRound + 64);
  for (auto& b : data) b = std::uint8_t(rng());
  for (std::size_t rounds = 1; rounds <= 3; ++rounds) {
    for (std::size_t len = rounds * kRound - 9; len <= rounds * kRound + 17;
         ++len) {
      for (std::size_t off = 0; off < 8; ++off) {
        for (std::uint32_t state : {kCrc32cInit, 0u, 0x1EDC6F41u}) {
          const ByteSpan span = ByteSpan(data).subspan(off, len);
          ASSERT_EQ(detail::crc32c_update_sse42(state, span),
                    detail::crc32c_update_slice8(state, span))
              << "offset " << off << " length " << len << " state " << state;
        }
      }
    }
  }
  // One long input: 85 rounds and a tail.
  Bytes big((1 << 20) + 13);
  for (auto& b : big) b = std::uint8_t(rng());
  EXPECT_EQ(detail::crc32c_update_sse42(kCrc32cInit, big),
            crc32c_bitwise(kCrc32cInit, big));
#else
  GTEST_SKIP() << "the SSE4.2 path exists on x86-64 only";
#endif
}

}  // namespace
}  // namespace aic
