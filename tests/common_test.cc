#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/bytes.h"
#include "common/crc32.h"
#include "common/fixed_point.h"
#include "common/op_counters.h"
#include "common/rng.h"
#include "common/status.h"

namespace pivot {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad input");
}

TEST(StatusTest, AllCodesStringify) {
  for (StatusCode c :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kInternal,
        StatusCode::kNotFound, StatusCode::kUnimplemented, StatusCode::kIoError,
        StatusCode::kProtocolError, StatusCode::kIntegrityError}) {
    EXPECT_STRNE(StatusCodeToString(c), "Unknown");
  }
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_EQ(r.ValueOr(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

Result<int> Doubled(Result<int> in) {
  PIVOT_ASSIGN_OR_RETURN(int v, in);
  return 2 * v;
}

TEST(ResultTest, AssignOrReturnMacro) {
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_EQ(Doubled(Status::Internal("x")).status().code(),
            StatusCode::kInternal);
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.NextU64() == b.NextU64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 17ULL, 1000000007ULL}) {
    for (int i = 0; i < 200; ++i) EXPECT_LT(rng.NextBelow(bound), bound);
  }
}

TEST(RngTest, NextBelowCoversSmallRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.NextBelow(5));
  EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextInRangeInclusive) {
  Rng rng(5);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 500; ++i) {
    int64_t v = rng.NextInRange(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, GaussianMoments) {
  Rng rng(13);
  double sum = 0.0, sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    double g = rng.NextGaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ForkIndependence) {
  Rng parent(42);
  Rng child = parent.Fork();
  // Child stream should differ from parent's continued stream.
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.NextU64() == child.NextU64());
  EXPECT_LT(same, 2);
}

TEST(BytesTest, RoundTripScalars) {
  ByteWriter w;
  w.WriteU8(0xab);
  w.WriteU32(0xdeadbeef);
  w.WriteU64(0x0123456789abcdefULL);
  w.WriteI64(-77);
  w.WriteDouble(3.25);
  w.WriteString("hello");
  w.WriteBytes({1, 2, 3});

  ByteReader r(w.data());
  EXPECT_EQ(r.ReadU8().value(), 0xab);
  EXPECT_EQ(r.ReadU32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.ReadU64().value(), 0x0123456789abcdefULL);
  EXPECT_EQ(r.ReadI64().value(), -77);
  EXPECT_DOUBLE_EQ(r.ReadDouble().value(), 3.25);
  EXPECT_EQ(r.ReadString().value(), "hello");
  EXPECT_EQ(r.ReadBytes().value(), (Bytes{1, 2, 3}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(BytesTest, TruncatedReadFails) {
  ByteWriter w;
  w.WriteU32(5);
  ByteReader r(w.data());
  EXPECT_TRUE(r.ReadU64().status().code() == StatusCode::kOutOfRange);
}

TEST(BytesTest, TruncatedBlobFails) {
  ByteWriter w;
  w.WriteU64(100);  // claims 100 payload bytes that are not present
  ByteReader r(w.data());
  EXPECT_FALSE(r.ReadBytes().ok());
}

TEST(FixedPointTest, RoundTrip) {
  for (double x : {0.0, 1.0, -1.0, 0.5, -0.25, 123.456, -9999.125}) {
    int64_t enc = FixedFromDouble(x);
    EXPECT_NEAR(FixedToDouble(enc), x, std::ldexp(1.0, -kFracBits));
  }
}

TEST(OpCountersTest, SnapshotDelta) {
  OpCounters::Global().Reset();
  OpSnapshot before = OpSnapshot::Take();
  OpCounters::Global().AddCiphertextOp(3);
  OpCounters::Global().AddThresholdDecryption();
  OpCounters::Global().AddSecureOp(10);
  OpCounters::Global().AddSecureComparison(2);
  OpSnapshot delta = OpSnapshot::Take().Delta(before);
  EXPECT_EQ(delta.ce, 3u);
  EXPECT_EQ(delta.cd, 1u);
  EXPECT_EQ(delta.cs, 10u);
  EXPECT_EQ(delta.cc, 2u);
  EXPECT_NE(delta.ToString().find("Ce=3"), std::string::npos);
}

TEST(OpCountersTest, CheckpointTimingsAccumulate) {
  OpCounters::Global().Reset();
  OpSnapshot before = OpSnapshot::Take();
  OpCounters::Global().AddCheckpointWrite(120);
  OpCounters::Global().AddCheckpointWrite(80);
  OpCounters::Global().AddCheckpointRestore(500);
  OpSnapshot delta = OpSnapshot::Take().Delta(before);
  EXPECT_EQ(delta.ckpt_writes, 2u);
  EXPECT_EQ(delta.ckpt_write_us, 200u);
  EXPECT_EQ(delta.ckpt_restores, 1u);
  EXPECT_EQ(delta.ckpt_restore_us, 500u);
  EXPECT_NE(delta.ToString().find("ckpt_writes=2"), std::string::npos);
}

TEST(Crc32Test, KnownVectors) {
  // IEEE CRC-32 reference values ("check" value from the CRC catalogue).
  const uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(Crc32(digits, sizeof(digits)), 0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0x00000000u);
  const uint8_t a[] = {'a'};
  EXPECT_EQ(Crc32(a, 1), 0xE8B7BE43u);
}

TEST(Crc32Test, IncrementalMatchesOneShot) {
  Bytes data(257);
  Rng rng(7);
  for (auto& b : data) b = static_cast<uint8_t>(rng.NextU64());
  const uint32_t oneshot = Crc32(data.data(), data.size());
  uint32_t crc = 0;
  crc = Crc32Update(crc, data.data(), 100);
  crc = Crc32Update(crc, data.data() + 100, 57);
  crc = Crc32Update(crc, data.data() + 157, 100);
  EXPECT_EQ(crc, oneshot);
}

TEST(Crc32Test, DetectsSingleBitFlip) {
  Bytes data(64, 0x5A);
  const uint32_t clean = Crc32(data.data(), data.size());
  data[20] ^= 1u << 3;
  EXPECT_NE(Crc32(data.data(), data.size()), clean);
}

TEST(RngStateTest, SaveRestoreReplaysStream) {
  Rng rng(0x12345);
  for (int i = 0; i < 10; ++i) (void)rng.NextU64();
  const RngState state = rng.SaveState();
  std::vector<uint64_t> expect;
  for (int i = 0; i < 8; ++i) expect.push_back(rng.NextU64());
  const double g = rng.NextGaussian();

  rng.RestoreState(state);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(rng.NextU64(), expect[i]) << i;
  EXPECT_EQ(rng.NextGaussian(), g);
}

TEST(RngStateTest, RestoreIntoDifferentInstanceMatches) {
  Rng a(99);
  (void)a.NextGaussian();  // exercise the cached-gaussian slot
  Rng b(1);
  b.RestoreState(a.SaveState());
  for (int i = 0; i < 16; ++i) EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_EQ(a.NextGaussian(), b.NextGaussian());
}

}  // namespace
}  // namespace pivot
