#include <gtest/gtest.h>

#include "common/sha256.h"
#include "crypto/paillier.h"
#include "crypto/paillier_batch.h"
#include "crypto/threshold_paillier.h"

namespace pivot {
namespace {

// Shared small key so the suite stays fast; 256-bit keys are plenty for
// correctness testing (the protocols enforce larger keys at runtime).
class PaillierTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    rng_ = new Rng(42);
    keys_ = new PaillierKeyPair(GeneratePaillierKeyPair(256, *rng_));
  }
  static void TearDownTestSuite() {
    delete keys_;
    delete rng_;
    keys_ = nullptr;
    rng_ = nullptr;
  }

  static Rng* rng_;
  static PaillierKeyPair* keys_;
};

Rng* PaillierTest::rng_ = nullptr;
PaillierKeyPair* PaillierTest::keys_ = nullptr;

TEST_F(PaillierTest, EncryptDecryptRoundTrip) {
  for (int64_t v : {0LL, 1LL, 2LL, 1234567LL}) {
    Ciphertext c = keys_->pk.Encrypt(BigInt(v), *rng_);
    EXPECT_EQ(keys_->sk.Decrypt(c).value(), BigInt(v));
  }
}

TEST_F(PaillierTest, EncryptLargePlaintext) {
  BigInt m = keys_->pk.n() - BigInt(1);
  Ciphertext c = keys_->pk.Encrypt(m, *rng_);
  EXPECT_EQ(keys_->sk.Decrypt(c).value(), m);
}

TEST_F(PaillierTest, EncryptionIsProbabilistic) {
  Ciphertext c1 = keys_->pk.Encrypt(BigInt(7), *rng_);
  Ciphertext c2 = keys_->pk.Encrypt(BigInt(7), *rng_);
  EXPECT_NE(c1.value, c2.value);
  EXPECT_EQ(keys_->sk.Decrypt(c1).value(), keys_->sk.Decrypt(c2).value());
}

TEST_F(PaillierTest, HomomorphicAdd) {
  Ciphertext a = keys_->pk.Encrypt(BigInt(15), *rng_);
  Ciphertext b = keys_->pk.Encrypt(BigInt(27), *rng_);
  EXPECT_EQ(keys_->sk.Decrypt(keys_->pk.Add(a, b)).value(), BigInt(42));
}

TEST_F(PaillierTest, HomomorphicAddWrapsModN) {
  BigInt m = keys_->pk.n() - BigInt(1);
  Ciphertext a = keys_->pk.Encrypt(m, *rng_);
  Ciphertext b = keys_->pk.Encrypt(BigInt(2), *rng_);
  EXPECT_EQ(keys_->sk.Decrypt(keys_->pk.Add(a, b)).value(), BigInt(1));
}

TEST_F(PaillierTest, ScalarMul) {
  Ciphertext c = keys_->pk.Encrypt(BigInt(9), *rng_);
  EXPECT_EQ(keys_->sk.Decrypt(keys_->pk.ScalarMul(BigInt(5), c)).value(),
            BigInt(45));
  EXPECT_EQ(keys_->sk.Decrypt(keys_->pk.ScalarMul(BigInt(0), c)).value(),
            BigInt(0));
  EXPECT_EQ(keys_->sk.Decrypt(keys_->pk.ScalarMul(BigInt(1), c)).value(),
            BigInt(9));
}

TEST_F(PaillierTest, ScalarMulByNMinus1ActsAsNegation) {
  // The protocols implement homomorphic subtraction by multiplying with a
  // scalar congruent to -1 modulo the share field; at the Paillier layer,
  // multiplying by n-1 negates mod n.
  Ciphertext c = keys_->pk.Encrypt(BigInt(5), *rng_);
  Ciphertext neg = keys_->pk.ScalarMul(keys_->pk.n() - BigInt(1), c);
  EXPECT_EQ(keys_->sk.Decrypt(neg).value(), keys_->pk.n() - BigInt(5));
}

TEST_F(PaillierTest, AddPlain) {
  Ciphertext c = keys_->pk.Encrypt(BigInt(10), *rng_);
  EXPECT_EQ(keys_->sk.Decrypt(keys_->pk.AddPlain(c, BigInt(32))).value(),
            BigInt(42));
}

TEST_F(PaillierTest, DotProduct) {
  // v = (1, 0, 3), u = (10, 20, 30) -> 100
  std::vector<Ciphertext> cts;
  for (int64_t u : {10, 20, 30}) cts.push_back(keys_->pk.Encrypt(BigInt(u), *rng_));
  std::vector<BigInt> v = {BigInt(1), BigInt(0), BigInt(3)};
  EXPECT_EQ(keys_->sk.Decrypt(keys_->pk.DotProduct(v, cts)).value(),
            BigInt(100));
}

TEST_F(PaillierTest, DotProductEmpty) {
  EXPECT_EQ(keys_->sk.Decrypt(keys_->pk.DotProduct({}, {})).value(), BigInt(0));
}

TEST_F(PaillierTest, RerandomizePreservesPlaintext) {
  Ciphertext c = keys_->pk.Encrypt(BigInt(77), *rng_);
  Ciphertext r = keys_->pk.Rerandomize(c, *rng_);
  EXPECT_NE(c.value, r.value);
  EXPECT_EQ(keys_->sk.Decrypt(r).value(), BigInt(77));
}

TEST_F(PaillierTest, IndicatorDotProductMatchesCount) {
  // The core Pivot statistic: dot product of a 0/1 indicator vector with an
  // encrypted 0/1 mask equals the number of overlapping ones.
  std::vector<Ciphertext> mask;
  std::vector<int> alpha = {1, 1, 0, 1, 0, 1};
  for (int a : alpha) mask.push_back(keys_->pk.Encrypt(BigInt(a), *rng_));
  std::vector<BigInt> indicator = {BigInt(1), BigInt(0), BigInt(1),
                                   BigInt(1), BigInt(1), BigInt(0)};
  // Overlap: positions 0 and 3 -> 2.
  EXPECT_EQ(keys_->sk.Decrypt(keys_->pk.DotProduct(indicator, mask)).value(),
            BigInt(2));
}

TEST(PaillierLTest, RejectsNonDivisible) {
  EXPECT_FALSE(PaillierL(BigInt(8), BigInt(3)).ok());
  EXPECT_EQ(PaillierL(BigInt(7), BigInt(3)).value(), BigInt(2));
}

class ThresholdPaillierTest : public ::testing::TestWithParam<int> {};

TEST_P(ThresholdPaillierTest, JointDecryptRoundTrip) {
  const int parties = GetParam();
  Rng rng(100 + parties);
  ThresholdPaillier keys = GenerateThresholdPaillier(256, parties, rng);
  for (int64_t v : {0LL, 1LL, 99999LL}) {
    Ciphertext c = keys.pk.Encrypt(BigInt(v), rng);
    EXPECT_EQ(JointDecrypt(keys, c).value(), BigInt(v));
  }
}

TEST_P(ThresholdPaillierTest, HomomorphismSurvivesThresholdDecryption) {
  const int parties = GetParam();
  Rng rng(200 + parties);
  ThresholdPaillier keys = GenerateThresholdPaillier(256, parties, rng);
  Ciphertext a = keys.pk.Encrypt(BigInt(30), rng);
  Ciphertext b = keys.pk.Encrypt(BigInt(12), rng);
  EXPECT_EQ(JointDecrypt(keys, keys.pk.Add(a, b)).value(), BigInt(42));
}

INSTANTIATE_TEST_SUITE_P(Parties, ThresholdPaillierTest,
                         ::testing::Values(1, 2, 3, 5, 8));

TEST(ThresholdPaillierTestExtra, MissingPartyFailsDecryption) {
  Rng rng(77);
  ThresholdPaillier keys = GenerateThresholdPaillier(256, 3, rng);
  Ciphertext c = keys.pk.Encrypt(BigInt(5), rng);
  std::vector<PartialDecryption> parts = {
      PartialDecrypt(keys.pk, keys.partial_keys[0], c),
      PartialDecrypt(keys.pk, keys.partial_keys[1], c)};
  EXPECT_FALSE(CombinePartialDecryptions(keys.pk, parts, 3).ok());
}

TEST(ThresholdPaillierTestExtra, SubsetOfPartialsYieldsGarbageOrError) {
  // With only m-1 of m partials (padded with a bogus one), the combined
  // value must not decrypt to the true plaintext.
  Rng rng(78);
  ThresholdPaillier keys = GenerateThresholdPaillier(256, 3, rng);
  Ciphertext c = keys.pk.Encrypt(BigInt(5), rng);
  std::vector<PartialDecryption> parts = {
      PartialDecrypt(keys.pk, keys.partial_keys[0], c),
      PartialDecrypt(keys.pk, keys.partial_keys[1], c),
      PartialDecryption{2, BigInt(1)}};  // party 2 replaced by identity
  Result<BigInt> out = CombinePartialDecryptions(keys.pk, parts, 3);
  if (out.ok()) {
    EXPECT_NE(out.value(), BigInt(5));
  }
}

TEST(ThresholdPaillierTestExtra, SharesSumToDecryptionExponent) {
  Rng rng(79);
  ThresholdPaillier keys = GenerateThresholdPaillier(128, 4, rng);
  // Indirect check: decryption works for every permutation order of
  // combination (combination is order-independent).
  Ciphertext c = keys.pk.Encrypt(BigInt(1234), rng);
  std::vector<PartialDecryption> parts;
  for (int i = 3; i >= 0; --i) {
    parts.push_back(PartialDecrypt(keys.pk, keys.partial_keys[i], c));
  }
  EXPECT_EQ(CombinePartialDecryptions(keys.pk, parts, 4).value(), BigInt(1234));
}

// --------------------------------------------------------------------------
// SHA-256 (FIPS 180-4 test vectors)
// --------------------------------------------------------------------------

TEST(Sha256Test, EmptyString) {
  Sha256 h;
  EXPECT_EQ(HexDigest(h.Finish()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  Sha256 h;
  h.Update(std::string("abc"));
  EXPECT_EQ(HexDigest(h.Finish()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  Sha256 h;
  h.Update(std::string("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
  EXPECT_EQ(HexDigest(h.Finish()),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(HexDigest(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Bytes data;
  for (int i = 0; i < 300; ++i) data.push_back(static_cast<uint8_t>(i * 7));
  Sha256 h;
  h.Update(data.data(), 100);
  h.Update(data.data() + 100, 200);
  EXPECT_EQ(h.Finish(), Sha256::Hash(data));
}

// ---------------------------------------------------------------------------
// Batched kernels (crypto/paillier_batch.h): every kernel must be
// bit-identical to its scalar counterpart, for every thread count
// including the degenerate empty and size-1 batches.

class PaillierBatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    Rng rng(4242);
    keys_ = new ThresholdPaillier(GenerateThresholdPaillier(256, 3, rng));
  }
  static void TearDownTestSuite() {
    delete keys_;
    keys_ = nullptr;
  }

  static std::vector<BigInt> SomePlains(size_t count, uint64_t seed) {
    Rng rng(seed);
    std::vector<BigInt> out;
    out.reserve(count);
    for (size_t i = 0; i < count; ++i) {
      out.push_back(BigInt(static_cast<int64_t>(rng.NextU64() % 1000003ULL)));
    }
    return out;
  }

  static std::vector<Ciphertext> SomeCts(const std::vector<BigInt>& plains,
                                         uint64_t seed) {
    Rng rng(seed);
    std::vector<Ciphertext> out;
    out.reserve(plains.size());
    for (const BigInt& m : plains) out.push_back(keys_->pk.Encrypt(m, rng));
    return out;
  }

  static ThresholdPaillier* keys_;
};

ThresholdPaillier* PaillierBatchTest::keys_ = nullptr;

constexpr int kThreadSweep[] = {1, 2, 8};
constexpr size_t kSizeSweep[] = {0, 1, 13};

TEST_F(PaillierBatchTest, EncryptBatchMatchesDerivedScalarPath) {
  // The batch draws one u64 and derives per-item streams; replicate that
  // by hand and check bit-equality for every thread count and size.
  for (size_t count : kSizeSweep) {
    const std::vector<BigInt> plains = SomePlains(count, 7 + count);
    Rng scalar_rng(99);
    std::vector<Ciphertext> expect;
    if (count > 0) {
      const uint64_t base = scalar_rng.NextU64();
      for (size_t i = 0; i < count; ++i) {
        Rng item(DeriveStreamSeed(base, i));
        BigInt r = keys_->pk.SampleUnit(item).value();
        expect.push_back(keys_->pk.EncryptWithRandomness(plains[i], r));
      }
    }
    for (int threads : kThreadSweep) {
      Rng rng(99);
      Result<std::vector<Ciphertext>> got =
          EncryptBatch(keys_->pk, plains, rng, threads);
      ASSERT_TRUE(got.ok()) << "threads=" << threads << " count=" << count;
      ASSERT_EQ(got.value().size(), count);
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(got.value()[i].value, expect[i].value)
            << "threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST_F(PaillierBatchTest, EncryptBatchFromPoolMatchesComputePair) {
  const std::vector<BigInt> plains = SomePlains(13, 11);
  // Expected: pair i from a fresh pool with the same seed, via the plain
  // scalar encryption routine.
  EncRandomnessPool ref(keys_->pk, 555);
  std::vector<Ciphertext> expect;
  for (size_t i = 0; i < plains.size(); ++i) {
    EncRandomnessPool::Pair pair = ref.ComputePair(i);
    expect.push_back(keys_->pk.EncryptWithRandomness(plains[i], pair.r));
  }
  for (int threads : kThreadSweep) {
    EncRandomnessPool pool(keys_->pk, 555);
    if (threads > 1) {
      // Exercise the prefill path too: precompute ahead, then drain.
      pool.PrefillAsync(ThreadPool::Global(), plains.size());
    }
    Result<std::vector<Ciphertext>> got =
        EncryptBatch(keys_->pk, plains, pool, threads);
    ASSERT_TRUE(got.ok()) << "threads=" << threads;
    ASSERT_EQ(got.value().size(), plains.size());
    for (size_t i = 0; i < plains.size(); ++i) {
      EXPECT_EQ(got.value()[i].value, expect[i].value)
          << "threads=" << threads << " i=" << i;
    }
    EXPECT_EQ(pool.next_index(), plains.size());
  }
}

TEST_F(PaillierBatchTest, EncRandomnessPoolDrainMatchesComputePair) {
  EncRandomnessPool pool(keys_->pk, 777);
  EncRandomnessPool ref(keys_->pk, 777);
  // Mixed drain: part cold (misses), part prefetched (hits); the pairs
  // must be identical either way, and the cursor must advance linearly.
  std::vector<EncRandomnessPool::Pair> first = pool.Drain(3);
  pool.PrefillAsync(ThreadPool::Global(), 8);
  std::vector<EncRandomnessPool::Pair> second = pool.Drain(5);
  ASSERT_EQ(first.size(), 3u);
  ASSERT_EQ(second.size(), 5u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(first[i].r, ref.ComputePair(i).r);
    EXPECT_EQ(first[i].rn, ref.ComputePair(i).rn);
  }
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(second[i].r, ref.ComputePair(3 + i).r);
    EXPECT_EQ(second[i].rn, ref.ComputePair(3 + i).rn);
  }
  EXPECT_EQ(pool.next_index(), 8u);
  // Rewind (checkpoint restore) replays the same stream.
  pool.SetNextIndex(3);
  std::vector<EncRandomnessPool::Pair> replay = pool.Drain(5);
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(replay[i].r, second[i].r);
    EXPECT_EQ(replay[i].rn, second[i].rn);
  }
}

TEST_F(PaillierBatchTest, EncRandomnessPoolParallelMissesMatchComputePair) {
  // Misses are computed over ParallelFor chunks; hits and misses
  // interleave (pairs 4-11 prefetched) and every pair must still be the
  // pure (seed, index) derivation, at every fan-out.
  EncRandomnessPool ref(keys_->pk, 555);
  for (int threads : kThreadSweep) {
    EncRandomnessPool pool(keys_->pk, 555);
    pool.Drain(4, threads);
    pool.Prefill(8);
    pool.SetNextIndex(0);
    const std::vector<EncRandomnessPool::Pair> got = pool.Drain(20, threads);
    ASSERT_EQ(got.size(), 20u);
    for (size_t i = 0; i < got.size(); ++i) {
      const EncRandomnessPool::Pair want = ref.ComputePair(i);
      EXPECT_EQ(got[i].r, want.r) << "threads=" << threads << " i=" << i;
      EXPECT_EQ(got[i].rn, want.rn) << "threads=" << threads << " i=" << i;
    }
    EXPECT_EQ(pool.next_index(), 20u);
  }
}

TEST_F(PaillierBatchTest, RerandomizeBatchPreservesPlaintexts) {
  const std::vector<BigInt> plains = SomePlains(9, 21);
  const std::vector<Ciphertext> cts = SomeCts(plains, 22);
  for (int threads : kThreadSweep) {
    Rng rng(1234);
    Result<std::vector<Ciphertext>> out =
        RerandomizeBatch(keys_->pk, cts, rng, threads);
    ASSERT_TRUE(out.ok());
    EncRandomnessPool pool(keys_->pk, 888);
    Result<std::vector<Ciphertext>> out2 =
        RerandomizeBatch(keys_->pk, cts, pool, threads);
    ASSERT_TRUE(out2.ok());
    for (size_t i = 0; i < cts.size(); ++i) {
      EXPECT_NE(out.value()[i].value, cts[i].value);
      EXPECT_NE(out2.value()[i].value, cts[i].value);
      EXPECT_EQ(JointDecrypt(*keys_, out.value()[i]).value(), plains[i]);
      EXPECT_EQ(JointDecrypt(*keys_, out2.value()[i]).value(), plains[i]);
    }
  }
}

TEST_F(PaillierBatchTest, ScalarMulBatchMatchesScalarOp) {
  for (size_t count : kSizeSweep) {
    const std::vector<BigInt> plains = SomePlains(count, 31);
    const std::vector<Ciphertext> cts = SomeCts(plains, 32);
    std::vector<BigInt> scalars = SomePlains(count, 33);
    if (count > 1) {
      scalars[0] = BigInt(0);  // cover the zero / one fast paths
      scalars[1] = BigInt(1);
    }
    std::vector<Ciphertext> expect;
    for (size_t i = 0; i < count; ++i) {
      expect.push_back(keys_->pk.ScalarMul(scalars[i], cts[i]));
    }
    for (int threads : kThreadSweep) {
      Result<std::vector<Ciphertext>> got =
          ScalarMulBatch(keys_->pk, scalars, cts, threads);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got.value().size(), count);
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(got.value()[i].value, expect[i].value)
            << "threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST_F(PaillierBatchTest, ScalarMulBatchRejectsSizeMismatch) {
  const std::vector<Ciphertext> cts = SomeCts(SomePlains(2, 41), 42);
  EXPECT_FALSE(ScalarMulBatch(keys_->pk, {BigInt(1)}, cts, 1).ok());
}

TEST_F(PaillierBatchTest, PreparedDotProductMatchesPlainDotProduct) {
  const std::vector<BigInt> plains = SomePlains(11, 51);
  const std::vector<Ciphertext> cts = SomeCts(plains, 52);
  std::vector<BigInt> weights = SomePlains(11, 53);
  weights[2] = BigInt(0);
  weights[5] = BigInt(1);
  const Ciphertext expect = keys_->pk.DotProduct(weights, cts);
  for (bool tables : {false, true}) {
    PreparedCiphertexts prep(keys_->pk, cts, tables);
    EXPECT_EQ(prep.DotProduct(weights).value, expect.value)
        << "tables=" << tables;
  }
  // Empty vector: both paths give an encryption-of-zero identity.
  PreparedCiphertexts empty(keys_->pk, {});
  EXPECT_EQ(empty.DotProduct({}).value, keys_->pk.DotProduct({}, {}).value);
}

TEST_F(PaillierBatchTest, PreparedDotIndicatorMatchesBigIntDotProduct) {
  const std::vector<BigInt> plains = SomePlains(10, 61);
  const std::vector<Ciphertext> cts = SomeCts(plains, 62);
  std::vector<uint8_t> ind = {1, 0, 1, 1, 0, 0, 1, 0, 1, 1};
  std::vector<BigInt> ind_big, comp_big;
  for (uint8_t b : ind) {
    ind_big.push_back(BigInt(b));
    comp_big.push_back(BigInt(1 - b));
  }
  for (bool tables : {false, true}) {
    PreparedCiphertexts prep(keys_->pk, cts, tables);
    EXPECT_EQ(prep.DotIndicator(ind, false).value,
              keys_->pk.DotProduct(ind_big, cts).value);
    EXPECT_EQ(prep.DotIndicator(ind, true).value,
              keys_->pk.DotProduct(comp_big, cts).value);
  }
}

TEST_F(PaillierBatchTest, PreparedScalarMulMatchesScalarOp) {
  const std::vector<BigInt> plains = SomePlains(4, 71);
  const std::vector<Ciphertext> cts = SomeCts(plains, 72);
  for (bool tables : {false, true}) {
    PreparedCiphertexts prep(keys_->pk, cts, tables);
    for (const BigInt& k : {BigInt(0), BigInt(1), BigInt(12345)}) {
      for (size_t i = 0; i < cts.size(); ++i) {
        EXPECT_EQ(prep.ScalarMul(i, k).value,
                  keys_->pk.ScalarMul(k, cts[i]).value)
            << "tables=" << tables << " i=" << i;
      }
    }
  }
}

TEST_F(PaillierBatchTest, ThresholdBatchMatchesScalarPipeline) {
  for (size_t count : kSizeSweep) {
    const std::vector<BigInt> plains = SomePlains(count, 81);
    const std::vector<Ciphertext> cts = SomeCts(plains, 82);
    for (int threads : kThreadSweep) {
      std::vector<std::vector<BigInt>> partials;
      for (const PartialKey& key : keys_->partial_keys) {
        Result<std::vector<BigInt>> part =
            PartialDecryptBatch(keys_->pk, key, cts, threads);
        ASSERT_TRUE(part.ok());
        ASSERT_EQ(part.value().size(), count);
        for (size_t i = 0; i < count; ++i) {
          EXPECT_EQ(part.value()[i],
                    PartialDecrypt(keys_->pk, key, cts[i]).value);
        }
        partials.push_back(std::move(part).value());
      }
      Result<std::vector<BigInt>> combined = CombinePartialDecryptionsBatch(
          keys_->pk, partials, static_cast<int>(keys_->partial_keys.size()),
          threads);
      ASSERT_TRUE(combined.ok()) << "threads=" << threads;
      ASSERT_EQ(combined.value().size(), count);
      for (size_t i = 0; i < count; ++i) {
        EXPECT_EQ(combined.value()[i], plains[i])
            << "threads=" << threads << " i=" << i;
      }
    }
  }
}

TEST_F(PaillierBatchTest, CombineBatchRejectsBadShapes) {
  const std::vector<Ciphertext> cts = SomeCts(SomePlains(2, 91), 92);
  std::vector<std::vector<BigInt>> partials;
  for (const PartialKey& key : keys_->partial_keys) {
    partials.push_back(PartialDecryptBatch(keys_->pk, key, cts, 1).value());
  }
  // Missing a party.
  std::vector<std::vector<BigInt>> missing(partials.begin(),
                                           partials.end() - 1);
  EXPECT_FALSE(CombinePartialDecryptionsBatch(keys_->pk, missing, 3, 1).ok());
  // Ragged inner sizes.
  std::vector<std::vector<BigInt>> ragged = partials;
  ragged[1].pop_back();
  EXPECT_FALSE(CombinePartialDecryptionsBatch(keys_->pk, ragged, 3, 1).ok());
}

TEST_F(PaillierBatchTest, SumCiphertextsMatchesAddFold) {
  for (size_t count : kSizeSweep) {
    const std::vector<BigInt> plains = SomePlains(count, 101);
    const std::vector<Ciphertext> cts = SomeCts(plains, 102);
    Ciphertext expect = keys_->pk.One();
    for (const Ciphertext& c : cts) expect = keys_->pk.Add(expect, c);
    EXPECT_EQ(SumCiphertexts(keys_->pk, cts).value, expect.value)
        << "count=" << count;
  }
}

}  // namespace
}  // namespace pivot
