// Unit tests for the common substrate: Status, RNG, zipfian, bytes.

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "common/bytes.h"
#include "common/random.h"
#include "common/status.h"
#include "common/units.h"

namespace hotstuff1 {
namespace {

// --- Status -------------------------------------------------------------------

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_TRUE(Status::OK().ok());
  EXPECT_EQ(st.message(), "");
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, UnauthenticatedCarriesItsMessage) {
  const Status st = Status::Unauthenticated("duplicate signer 3");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "duplicate signer 3");
  EXPECT_EQ(st.ToString(), "Unauthenticated: duplicate signer 3");
  std::ostringstream os;
  os << st;
  EXPECT_EQ(os.str(), st.ToString());
}

TEST(StatusTest, CopyAndMovePreserveState) {
  Status a = Status::Unauthenticated("boom");
  Status b = a;  // copy
  EXPECT_EQ(b.ToString(), a.ToString());
  Status c = std::move(a);
  EXPECT_EQ(c.ToString(), "Unauthenticated: boom");
  b = Status::OK();
  EXPECT_TRUE(b.ok());
  b = c;
  EXPECT_EQ(b.message(), "boom");
}

// --- Rng ----------------------------------------------------------------------

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.NextU64() == b.NextU64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(99);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.NextBounded(17), 17u);
  EXPECT_EQ(rng.NextBounded(0), 0u);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.NextInRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RngTest, DoubleIsUnitInterval) {
  Rng rng(7);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);  // mean of U[0,1)
}

TEST(RngTest, BoundedIsRoughlyUniform) {
  Rng rng(5);
  std::vector<int> buckets(10, 0);
  for (int i = 0; i < 100000; ++i) ++buckets[rng.NextBounded(10)];
  for (int b : buckets) EXPECT_NEAR(b, 10000, 500);
}

// --- Zipfian ------------------------------------------------------------------

TEST(ZipfianTest, StaysInRange) {
  ZipfianGenerator zipf(1000, 0.99);
  Rng rng(11);
  for (int i = 0; i < 10000; ++i) EXPECT_LT(zipf.Next(&rng), 1000u);
}

TEST(ZipfianTest, SkewsTowardLowKeys) {
  ZipfianGenerator zipf(10000, 0.99);
  Rng rng(13);
  uint64_t low = 0;
  const int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) {
    if (zipf.Next(&rng) < 100) ++low;  // top 1% of keys
  }
  // Under zipf(0.99), the hottest 1% of keys draw far more than 1% of
  // accesses (typically > 30%).
  EXPECT_GT(low, static_cast<uint64_t>(kSamples) * 25 / 100);
}

// --- bytes / hex / units --------------------------------------------------------

TEST(BytesTest, HexEncode) {
  Bytes b = {0x00, 0x0f, 0xa5, 0xff};
  EXPECT_EQ(HexEncode(b), "000fa5ff");
  EXPECT_EQ(HexEncode(Bytes{}), "");
}

TEST(BytesTest, AppendHelpers) {
  Bytes b;
  AppendU32(&b, 0x01020304);
  ASSERT_EQ(b.size(), 4u);
  EXPECT_EQ(b[0], 0x04);  // little-endian
  AppendU64(&b, 1);
  EXPECT_EQ(b.size(), 12u);
  EXPECT_EQ(b[4], 1);
  Bytes from_str = ToBytes("ab");
  EXPECT_EQ(BytesToString(from_str), "ab");
}

TEST(UnitsTest, Conversions) {
  EXPECT_EQ(Millis(1.5), 1500);
  EXPECT_EQ(Seconds(2), 2'000'000);
  EXPECT_DOUBLE_EQ(ToMillis(2500), 2.5);
  EXPECT_DOUBLE_EQ(ToSeconds(Seconds(3.5)), 3.5);
}

}  // namespace
}  // namespace hotstuff1
