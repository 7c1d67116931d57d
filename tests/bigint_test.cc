#include "bigint/bigint.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "bigint/prime.h"
#include "common/rng.h"

namespace pivot {
namespace {

TEST(BigIntTest, DefaultIsZero) {
  BigInt z;
  EXPECT_TRUE(z.IsZero());
  EXPECT_FALSE(z.IsNegative());
  EXPECT_EQ(z.BitLength(), 0);
  EXPECT_EQ(z.ToDecString(), "0");
}

TEST(BigIntTest, SmallConstruction) {
  EXPECT_EQ(BigInt(42).ToDecString(), "42");
  EXPECT_EQ(BigInt(-42).ToDecString(), "-42");
  EXPECT_EQ(BigInt(uint64_t{18446744073709551615ULL}).ToDecString(),
            "18446744073709551615");
  EXPECT_EQ(BigInt(INT64_MIN).ToDecString(), "-9223372036854775808");
}

TEST(BigIntTest, ComparisonOperators) {
  EXPECT_LT(BigInt(-5), BigInt(3));
  EXPECT_LT(BigInt(-5), BigInt(-3));
  EXPECT_GT(BigInt(7), BigInt(3));
  EXPECT_EQ(BigInt(0), BigInt(0));
  EXPECT_EQ(BigInt(0), -BigInt(0));
  BigInt big = BigInt(1) << 200;
  EXPECT_GT(big, BigInt(INT64_MAX));
  EXPECT_LT(-big, BigInt(INT64_MIN));
}

TEST(BigIntTest, AdditionSubtractionSmall) {
  EXPECT_EQ((BigInt(3) + BigInt(4)).ToI64().value(), 7);
  EXPECT_EQ((BigInt(3) - BigInt(4)).ToI64().value(), -1);
  EXPECT_EQ((BigInt(-3) + BigInt(-4)).ToI64().value(), -7);
  EXPECT_EQ((BigInt(-3) - BigInt(-4)).ToI64().value(), 1);
  EXPECT_EQ((BigInt(5) + BigInt(-5)).ToI64().value(), 0);
}

TEST(BigIntTest, CarryPropagation) {
  BigInt max64(~uint64_t{0});
  BigInt sum = max64 + BigInt(1);
  EXPECT_EQ(sum.ToHexString(), "10000000000000000");
  EXPECT_EQ((sum - BigInt(1)).ToHexString(), "ffffffffffffffff");
}

TEST(BigIntTest, MultiplicationSmall) {
  EXPECT_EQ((BigInt(6) * BigInt(7)).ToI64().value(), 42);
  EXPECT_EQ((BigInt(-6) * BigInt(7)).ToI64().value(), -42);
  EXPECT_EQ((BigInt(-6) * BigInt(-7)).ToI64().value(), 42);
  EXPECT_TRUE((BigInt(0) * BigInt(123)).IsZero());
}

TEST(BigIntTest, MultiplicationLarge) {
  // (2^64 - 1)^2 = 2^128 - 2^65 + 1
  BigInt a(~uint64_t{0});
  BigInt sq = a * a;
  BigInt expected = (BigInt(1) << 128) - (BigInt(1) << 65) + BigInt(1);
  EXPECT_EQ(sq, expected);
}

TEST(BigIntTest, DivisionTruncationSemantics) {
  // C++ semantics: quotient rounds toward zero; remainder has dividend sign.
  EXPECT_EQ((BigInt(7) / BigInt(2)).ToI64().value(), 3);
  EXPECT_EQ((BigInt(7) % BigInt(2)).ToI64().value(), 1);
  EXPECT_EQ((BigInt(-7) / BigInt(2)).ToI64().value(), -3);
  EXPECT_EQ((BigInt(-7) % BigInt(2)).ToI64().value(), -1);
  EXPECT_EQ((BigInt(7) / BigInt(-2)).ToI64().value(), -3);
  EXPECT_EQ((BigInt(7) % BigInt(-2)).ToI64().value(), 1);
}

TEST(BigIntTest, DivModRandomizedAgainstNative) {
  Rng rng(101);
  for (int i = 0; i < 2000; ++i) {
    int64_t a = rng.NextInRange(-1000000000, 1000000000);
    int64_t b = rng.NextInRange(-100000, 100000);
    if (b == 0) continue;
    BigInt q = BigInt(a) / BigInt(b);
    BigInt r = BigInt(a) % BigInt(b);
    EXPECT_EQ(q.ToI64().value(), a / b) << a << "/" << b;
    EXPECT_EQ(r.ToI64().value(), a % b) << a << "%" << b;
  }
}

TEST(BigIntTest, DivModLargeIdentity) {
  // Property: a == q*b + r and |r| < |b| for random wide operands.
  Rng rng(202);
  for (int i = 0; i < 300; ++i) {
    BigInt a = BigInt::RandomBits(1 + static_cast<int>(rng.NextBelow(512)), rng);
    BigInt b = BigInt::RandomBits(1 + static_cast<int>(rng.NextBelow(256)), rng);
    if (b.IsZero()) continue;
    DivModResult dm = a.DivMod(b);
    EXPECT_EQ(dm.quotient * b + dm.remainder, a);
    EXPECT_LT(dm.remainder.Abs(), b.Abs());
    EXPECT_FALSE(dm.remainder.IsNegative());
  }
}

TEST(BigIntTest, KnuthDAddBackCase) {
  // A crafted case that exercises the rare "add back" branch of Knuth D:
  // dividend = 2^128 - 1, divisor = 2^64 + 3 style values.
  BigInt a = (BigInt(1) << 128) - BigInt(1);
  BigInt b = (BigInt(1) << 64) + BigInt(3);
  DivModResult dm = a.DivMod(b);
  EXPECT_EQ(dm.quotient * b + dm.remainder, a);
  EXPECT_LT(dm.remainder, b);
}

TEST(BigIntTest, Shifts) {
  BigInt one(1);
  EXPECT_EQ((one << 0), one);
  EXPECT_EQ((one << 1).ToI64().value(), 2);
  EXPECT_EQ((one << 64).ToHexString(), "10000000000000000");
  EXPECT_EQ(((one << 130) >> 130), one);
  EXPECT_EQ((BigInt(0xff) << 4).ToHexString(), "ff0");
  EXPECT_EQ((BigInt(0xff0) >> 4).ToHexString(), "ff");
  EXPECT_TRUE((one >> 1).IsZero());
}

TEST(BigIntTest, BitLengthAndTestBit) {
  EXPECT_EQ(BigInt(1).BitLength(), 1);
  EXPECT_EQ(BigInt(2).BitLength(), 2);
  EXPECT_EQ(BigInt(255).BitLength(), 8);
  EXPECT_EQ(BigInt(256).BitLength(), 9);
  EXPECT_EQ((BigInt(1) << 1000).BitLength(), 1001);
  BigInt v(0b1010);
  EXPECT_FALSE(v.TestBit(0));
  EXPECT_TRUE(v.TestBit(1));
  EXPECT_FALSE(v.TestBit(2));
  EXPECT_TRUE(v.TestBit(3));
  EXPECT_FALSE(v.TestBit(100));
}

TEST(BigIntTest, DecStringRoundTrip) {
  for (const char* s :
       {"0", "1", "-1", "123456789012345678901234567890",
        "-987654321098765432109876543210987654321"}) {
    BigInt v = BigInt::FromDecString(s).value();
    EXPECT_EQ(v.ToDecString(), s);
  }
}

TEST(BigIntTest, HexStringRoundTrip) {
  for (const char* s : {"1", "deadbeef", "ffffffffffffffffffffffffffffffff",
                        "-abc123"}) {
    BigInt v = BigInt::FromHexString(s).value();
    EXPECT_EQ(v.ToHexString(), s);
  }
}

TEST(BigIntTest, InvalidStringsRejected) {
  EXPECT_FALSE(BigInt::FromDecString("").ok());
  EXPECT_FALSE(BigInt::FromDecString("-").ok());
  EXPECT_FALSE(BigInt::FromDecString("12a").ok());
  EXPECT_FALSE(BigInt::FromHexString("xyz").ok());
}

TEST(BigIntTest, BytesRoundTrip) {
  Rng rng(303);
  for (int i = 0; i < 100; ++i) {
    BigInt v = BigInt::RandomBits(1 + static_cast<int>(rng.NextBelow(300)), rng);
    EXPECT_EQ(BigInt::FromBytes(v.ToBytes()), v);
  }
  EXPECT_TRUE(BigInt().ToBytes().empty());
}

TEST(BigIntTest, BytesPadded) {
  BigInt v(0x1234);
  Bytes padded = v.ToBytesPadded(8);
  ASSERT_EQ(padded.size(), 8u);
  EXPECT_EQ(padded[6], 0x12);
  EXPECT_EQ(padded[7], 0x34);
  EXPECT_EQ(BigInt::FromBytes(padded), v);
}

TEST(BigIntTest, ModNonNegative) {
  BigInt m(7);
  EXPECT_EQ(BigInt(-1).Mod(m).ToI64().value(), 6);
  EXPECT_EQ(BigInt(-8).Mod(m).ToI64().value(), 6);
  EXPECT_EQ(BigInt(15).Mod(m).ToI64().value(), 1);
  EXPECT_EQ(BigInt(0).Mod(m).ToI64().value(), 0);
}

TEST(BigIntTest, ModArithmetic) {
  BigInt m(101);
  EXPECT_EQ(BigInt(70).ModAdd(BigInt(50), m).ToI64().value(), 19);
  EXPECT_EQ(BigInt(10).ModSub(BigInt(20), m).ToI64().value(), 91);
  EXPECT_EQ(BigInt(20).ModMul(BigInt(30), m).ToI64().value(), 600 % 101);
}

TEST(BigIntTest, ModExpSmall) {
  EXPECT_EQ(BigInt(2).ModExp(BigInt(10), BigInt(1000)).ToI64().value(), 24);
  EXPECT_EQ(BigInt(3).ModExp(BigInt(0), BigInt(7)).ToI64().value(), 1);
  EXPECT_EQ(BigInt(5).ModExp(BigInt(3), BigInt(13)).ToI64().value(), 125 % 13);
}

TEST(BigIntTest, ModExpFermat) {
  // Fermat: a^(p-1) = 1 mod p for prime p.
  BigInt p = BigInt::FromDecString("1000000007").value();
  Rng rng(404);
  for (int i = 0; i < 20; ++i) {
    BigInt a = BigInt::RandomBelow(p - BigInt(1), rng) + BigInt(1);
    EXPECT_TRUE(a.ModExp(p - BigInt(1), p).IsOne());
  }
}

TEST(BigIntTest, ModExpLargeAgainstSquareMultiply) {
  // Cross-check Montgomery path against naive repeated ModMul.
  Rng rng(505);
  BigInt m = BigInt::RandomBits(192, rng);
  if (!m.IsOdd()) m = m + BigInt(1);
  if (m < BigInt(3)) m = BigInt(3);
  for (int i = 0; i < 10; ++i) {
    BigInt base = BigInt::RandomBelow(m, rng);
    uint64_t e = rng.NextBelow(1000);
    BigInt expected(1);
    for (uint64_t j = 0; j < e; ++j) expected = expected.ModMul(base, m);
    EXPECT_EQ(base.ModExp(BigInt(e), m), expected) << "e=" << e;
  }
}

TEST(BigIntTest, ModExpEvenModulus) {
  EXPECT_EQ(BigInt(3).ModExp(BigInt(4), BigInt(100)).ToI64().value(), 81);
  EXPECT_EQ(BigInt(7).ModExp(BigInt(5), BigInt(16)).ToI64().value(),
            16807 % 16);
}

TEST(BigIntTest, ModInverse) {
  BigInt m(101);
  for (int64_t a = 1; a < 101; ++a) {
    BigInt inv = BigInt(a).ModInverse(m).value();
    EXPECT_TRUE(BigInt(a).ModMul(inv, m).IsOne()) << a;
  }
  EXPECT_FALSE(BigInt(0).ModInverse(m).ok());
  EXPECT_FALSE(BigInt(4).ModInverse(BigInt(8)).ok());
}

TEST(BigIntTest, ModInverseLarge) {
  Rng rng(606);
  BigInt p = GeneratePrime(128, rng);
  for (int i = 0; i < 10; ++i) {
    BigInt a = BigInt::RandomBelow(p - BigInt(1), rng) + BigInt(1);
    BigInt inv = a.ModInverse(p).value();
    EXPECT_TRUE(a.ModMul(inv, p).IsOne());
  }
}

TEST(BigIntTest, GcdLcm) {
  EXPECT_EQ(BigInt::Gcd(BigInt(12), BigInt(18)).ToI64().value(), 6);
  EXPECT_EQ(BigInt::Gcd(BigInt(-12), BigInt(18)).ToI64().value(), 6);
  EXPECT_EQ(BigInt::Gcd(BigInt(0), BigInt(5)).ToI64().value(), 5);
  EXPECT_EQ(BigInt::Lcm(BigInt(4), BigInt(6)).ToI64().value(), 12);
  EXPECT_TRUE(BigInt::Lcm(BigInt(0), BigInt(5)).IsZero());
}

TEST(BigIntTest, ToI64Bounds) {
  EXPECT_EQ(BigInt(INT64_MAX).ToI64().value(), INT64_MAX);
  EXPECT_EQ(BigInt(INT64_MIN).ToI64().value(), INT64_MIN);
  EXPECT_FALSE((BigInt(INT64_MAX) + BigInt(1)).ToI64().ok());
  EXPECT_FALSE((BigInt(INT64_MIN) - BigInt(1)).ToI64().ok());
  EXPECT_FALSE(BigInt(-1).ToU64().ok());
}

TEST(BigIntTest, RandomBelowUniformCoverage) {
  Rng rng(707);
  BigInt bound(10);
  bool seen[10] = {};
  for (int i = 0; i < 500; ++i) {
    uint64_t v = BigInt::RandomBelow(bound, rng).ToU64().value();
    ASSERT_LT(v, 10u);
    seen[v] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(BigIntTest, RandomBitsWithinBound) {
  Rng rng(808);
  for (int bits : {1, 63, 64, 65, 127, 400}) {
    for (int i = 0; i < 20; ++i) {
      EXPECT_LE(BigInt::RandomBits(bits, rng).BitLength(), bits);
    }
  }
}

TEST(BigIntTest, ArithmeticPropertyRandomized) {
  // Ring axioms on random 256-bit operands: commutativity, associativity,
  // distributivity.
  Rng rng(909);
  for (int i = 0; i < 100; ++i) {
    BigInt a = BigInt::RandomBits(256, rng) - BigInt::RandomBits(256, rng);
    BigInt b = BigInt::RandomBits(200, rng) - BigInt::RandomBits(200, rng);
    BigInt c = BigInt::RandomBits(150, rng) - BigInt::RandomBits(150, rng);
    EXPECT_EQ(a + b, b + a);
    EXPECT_EQ(a * b, b * a);
    EXPECT_EQ((a + b) + c, a + (b + c));
    EXPECT_EQ(a * (b + c), a * b + a * c);
    EXPECT_EQ(a - a, BigInt(0));
  }
}

TEST(MontgomeryTest, MatchesPlainModMul) {
  Rng rng(111);
  for (int trial = 0; trial < 20; ++trial) {
    BigInt m = BigInt::RandomBits(160, rng);
    if (!m.IsOdd()) m = m + BigInt(1);
    if (m < BigInt(3)) continue;
    MontgomeryContext ctx(m);
    for (int i = 0; i < 10; ++i) {
      BigInt a = BigInt::RandomBelow(m, rng);
      BigInt b = BigInt::RandomBelow(m, rng);
      EXPECT_EQ(ctx.ModMul(a, b), a.ModMul(b, m));
    }
  }
}

TEST(MontgomeryTest, ExpEdgeCases) {
  MontgomeryContext ctx(BigInt(97));
  EXPECT_TRUE(ctx.ModExp(BigInt(5), BigInt(0)).IsOne());
  EXPECT_EQ(ctx.ModExp(BigInt(5), BigInt(1)).ToI64().value(), 5);
  EXPECT_TRUE(ctx.ModExp(BigInt(0), BigInt(5)).IsZero());
  EXPECT_TRUE(ctx.ModExp(BigInt(96), BigInt(96)).IsOne());  // Fermat
}

// ----- Differential tests of the Montgomery kernels ----------------------
// The widths of this repository's moduli (n^2 of 128- to 1024-bit Paillier
// keys, the last of them the widest kept on the stack; the 1536-bit PSI
// group), 1 and 5 limbs, and 40 limbs (a heap workspace), against
// schoolbook multiplication and division.

constexpr size_t kKernelWidths[] = {4, 6, 8, 10, 12, 16, 24, 32, 1, 5, 40};

BigInt Pow2(size_t bits) { return BigInt(1) << static_cast<int>(bits); }

// x^e mod m by schoolbook square-and-multiply (no Montgomery arithmetic).
BigInt SchoolbookModExp(const BigInt& x, const BigInt& e, const BigInt& m) {
  const BigInt base = x.Mod(m);
  BigInt acc = BigInt(1).Mod(m);
  for (int i = e.BitLength() - 1; i >= 0; --i) {
    acc = (acc * acc).Mod(m);
    if (e.TestBit(i)) acc = (acc * base).Mod(m);
  }
  return acc;
}

// Odd moduli of exactly `limbs` limbs: random, top limb 1, every limb all
// ones (the shape of the MODP prime's ends).
std::vector<BigInt> KernelModuli(size_t limbs, Rng& rng) {
  const size_t bits = 64 * limbs;
  BigInt random = BigInt::RandomBits(static_cast<int>(bits) - 1, rng) +
                  Pow2(bits - 1);
  if (!random.IsOdd()) random = random + BigInt(1);
  std::vector<BigInt> moduli = {random, Pow2(bits) - BigInt(1)};
  if (limbs > 1) {
    BigInt top_one = Pow2(bits - 64) +
                     BigInt::RandomBits(static_cast<int>(bits) - 64, rng);
    if (!top_one.IsOdd()) top_one = top_one + BigInt(1);
    moduli.push_back(top_one);
  }
  return moduli;
}

// Operands: 0, 1, m - 1, one- and two-limb values, and random values in
// [0, m).
std::vector<BigInt> KernelOperands(const BigInt& m, Rng& rng) {
  std::vector<BigInt> ops = {BigInt(0), BigInt(1), m - BigInt(1),
                             BigInt::RandomBits(64, rng).Mod(m),
                             BigInt::RandomBits(128, rng).Mod(m)};
  for (int i = 0; i < 3; ++i) ops.push_back(BigInt::RandomBelow(m, rng));
  return ops;
}

// Exponents: 0, 1, 2, 15, 16, values whose 4-bit windows are all zero
// below the top one, one with a zero window run in the middle, and random
// ones of up to three limbs.
std::vector<BigInt> KernelExponents(Rng& rng) {
  std::vector<BigInt> exps = {BigInt(0),  BigInt(1),   BigInt(2),
                              BigInt(15), BigInt(16),  Pow2(64),
                              Pow2(131),  Pow2(130) + BigInt(1)};
  for (int bits : {7, 64, 65, 150}) {
    exps.push_back(BigInt::RandomBits(bits, rng));
  }
  return exps;
}

TEST(MontgomeryKernelTest, MulMatchesSchoolbookAtEveryWidth) {
  Rng rng(1201);
  for (size_t limbs : kKernelWidths) {
    for (const BigInt& m : KernelModuli(limbs, rng)) {
      MontgomeryContext ctx(m);
      const BigInt r_inv = Pow2(64 * limbs).ModInverse(m).value();
      const std::vector<BigInt> ops = KernelOperands(m, rng);
      for (const BigInt& a : ops) {
        for (const BigInt& b : ops) {
          const BigInt ab = (a * b).Mod(m);
          EXPECT_EQ(ctx.ModMul(a, b), ab) << "limbs=" << limbs;
          EXPECT_EQ(ctx.MontMul(a, b), (ab * r_inv).Mod(m))
              << "limbs=" << limbs;
        }
        const BigInt ma = ctx.ToMontgomery(a);
        EXPECT_EQ(ma, (a * Pow2(64 * limbs)).Mod(m)) << "limbs=" << limbs;
        EXPECT_EQ(ctx.FromMontgomery(ma), a) << "limbs=" << limbs;
      }
    }
  }
}

TEST(MontgomeryKernelTest, SquaringEqualsMulOfOperandWithItself) {
  // MontExp(x, 2) is one squaring; table[2] and table[4] of the window
  // table are squarings too.
  Rng rng(1202);
  for (size_t limbs : kKernelWidths) {
    for (const BigInt& m : KernelModuli(limbs, rng)) {
      MontgomeryContext ctx(m);
      for (const BigInt& x : KernelOperands(m, rng)) {
        const BigInt x2 = ctx.MontMul(x, x);
        EXPECT_EQ(ctx.MontExp(x, BigInt(2)), x2) << "limbs=" << limbs;
        BigInt table[16];
        ctx.BuildWindowTable(x, table);
        EXPECT_EQ(table[2], x2) << "limbs=" << limbs;
        EXPECT_EQ(table[4], ctx.MontMul(x2, x2)) << "limbs=" << limbs;
      }
    }
  }
}

TEST(MontgomeryKernelTest, ExpMatchesRepeatedModMulAtEveryWidth) {
  Rng rng(1203);
  for (size_t limbs : kKernelWidths) {
    for (const BigInt& m : KernelModuli(limbs, rng)) {
      MontgomeryContext ctx(m);
      const std::vector<BigInt> exps = KernelExponents(rng);
      for (const BigInt& x : KernelOperands(m, rng)) {
        const BigInt mx = ctx.ToMontgomery(x);
        BigInt table[16];
        ctx.BuildWindowTable(mx, table);
        for (int w = 0; w < 16; ++w) {
          EXPECT_EQ(table[w], ctx.ToMontgomery(
                                  SchoolbookModExp(x, BigInt(w), m)))
              << "limbs=" << limbs << " w=" << w;
        }
        for (const BigInt& e : exps) {
          const BigInt want = SchoolbookModExp(x, e, m);
          EXPECT_EQ(ctx.ModExp(x, e), want)
              << "limbs=" << limbs << " e=" << e.ToHexString();
          EXPECT_EQ(x.ModExp(e, m), want) << "limbs=" << limbs;
          EXPECT_EQ(ctx.FromMontgomery(ctx.MontExp(mx, e)), want)
              << "limbs=" << limbs << " e=" << e.ToHexString();
          EXPECT_EQ(ctx.FromMontgomery(ctx.MontExpWithTable(table, e)), want)
              << "limbs=" << limbs << " e=" << e.ToHexString();
        }
      }
    }
  }
}

TEST(MontgomeryKernelTest, ModpGroupExpMatchesRepeatedModMul) {
  // The PSI group: RFC 3526's 1536-bit MODP prime, 24 limbs whose top and
  // bottom limbs are all ones, with full-width exponents.
  const BigInt p =
      BigInt::FromHexString(
          "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74"
          "020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f1437"
          "4fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7ed"
          "ee386bfb5a899fa5ae9f24117c4b1fe649286651ece45b3dc2007cb8a163bf05"
          "98da48361c55d39a69163fa8fd24cf5f83655d23dca3ad961c62f356208552bb"
          "9ed529077096966d670c354e4abc9804f1746c08ca237327ffffffffffffffff")
          .value();
  ASSERT_EQ(p.limbs().size(), 24u);
  MontgomeryContext ctx(p);
  Rng rng(1204);
  for (int i = 0; i < 3; ++i) {
    const BigInt x = BigInt::RandomBelow(p, rng);
    const BigInt e = BigInt::RandomBits(1535, rng);
    EXPECT_EQ(ctx.ModExp(x, e), SchoolbookModExp(x, e, p));
  }
  // Fermat: x^(p-1) = 1.
  EXPECT_TRUE(ctx.ModExp(BigInt(2), p - BigInt(1)).IsOne());
}

TEST(MontgomeryKernelTest, OperandsOutsideTheModulusAreReducedFirst) {
  // Negative operands and operands wider than the modulus act as their
  // residue mod m: never truncated to the low limbs, never stripped of
  // their sign.
  Rng rng(1205);
  for (size_t limbs : kKernelWidths) {
    for (const BigInt& m : KernelModuli(limbs, rng)) {
      MontgomeryContext ctx(m);
      const BigInt wide = Pow2(64 * limbs) + BigInt::RandomBits(70, rng);
      for (const BigInt& a : KernelOperands(m, rng)) {
        const BigInt b = BigInt::RandomBelow(m, rng);
        for (const BigInt& alias :
             {a + m, a + m * wide, a + wide, a - m, -a, -(a + wide)}) {
          const BigInt residue = alias.Mod(m);
          EXPECT_EQ(ctx.MontMul(alias, b), ctx.MontMul(residue, b))
              << "limbs=" << limbs;
          EXPECT_EQ(ctx.MontMul(b, alias), ctx.MontMul(b, residue))
              << "limbs=" << limbs;
          EXPECT_EQ(ctx.ModMul(alias, b), (residue * b).Mod(m))
              << "limbs=" << limbs;
          EXPECT_EQ(ctx.ToMontgomery(alias), ctx.ToMontgomery(residue))
              << "limbs=" << limbs;
          EXPECT_EQ(ctx.FromMontgomery(alias), ctx.FromMontgomery(residue))
              << "limbs=" << limbs;
          EXPECT_EQ(ctx.MontExp(alias, BigInt(77)),
                    ctx.MontExp(residue, BigInt(77)))
              << "limbs=" << limbs;
        }
      }
    }
  }
}

TEST(PrimeTest, SmallPrimesRecognized) {
  Rng rng(222);
  for (uint64_t p : {2ULL, 3ULL, 5ULL, 7ULL, 11ULL, 97ULL, 251ULL, 257ULL,
                     65537ULL, 1000000007ULL}) {
    EXPECT_TRUE(IsProbablePrime(BigInt(p), 20, rng)) << p;
  }
}

TEST(PrimeTest, CompositesRejected) {
  Rng rng(333);
  for (uint64_t c : {1ULL, 4ULL, 9ULL, 15ULL, 91ULL, 561ULL /*Carmichael*/,
                     6601ULL /*Carmichael*/, 1000000008ULL}) {
    EXPECT_FALSE(IsProbablePrime(BigInt(c), 20, rng)) << c;
  }
}

TEST(PrimeTest, GeneratePrimeHasExactBitLength) {
  Rng rng(444);
  for (int bits : {16, 32, 64, 128}) {
    BigInt p = GeneratePrime(bits, rng);
    EXPECT_EQ(p.BitLength(), bits);
    EXPECT_TRUE(IsProbablePrime(p, 20, rng));
  }
}

TEST(PrimeTest, PaillierPrimesDistinctAndCoprime) {
  Rng rng(555);
  PrimePair pair = GeneratePaillierPrimes(96, rng);
  EXPECT_NE(pair.p, pair.q);
  BigInt n = pair.p * pair.q;
  BigInt phi = (pair.p - BigInt(1)) * (pair.q - BigInt(1));
  EXPECT_TRUE(BigInt::Gcd(n, phi).IsOne());
}

}  // namespace
}  // namespace pivot
