#ifndef PIVOT_MPC_FIELD_H_
#define PIVOT_MPC_FIELD_H_

#include <cstdint>

#include "bigint/bigint.h"
#include "common/check.h"
#include "common/ct.h"
#include "common/rng.h"

namespace pivot {

// Arithmetic in the secret-sharing field F_p with p = 2^127 - 1 (Mersenne).
//
// This is the Z_q of the paper's additive secret sharing scheme
// (Section 2.2). A 127-bit prime leaves room for 64-bit fixed-point logical
// values plus 40+ bits of statistical masking used by the comparison and
// truncation protocols (DESIGN.md §3). Elements are stored in
// `unsigned __int128`; multiplication decomposes into 64-bit limbs and
// folds with the Mersenne identity 2^127 ≡ 1 (mod p).

using u128 = unsigned __int128;
using i128 = __int128;

inline constexpr u128 kFieldPrime = ((static_cast<u128>(1) << 127) - 1);

// Folds a value < 2^128 into [0, 2^127); result may still equal p.
inline u128 FpFold(u128 x) {
  return (x & kFieldPrime) + (x >> 127);
}

// The Fp* primitives below are branchless: they run on secret shares and
// masks, so their timing must not depend on operand values
// (tools/pivot_taint.py annotates their parameters as secret). Conditional
// subtractions are expressed as arithmetic masks from common/ct.h.

inline u128 FpReduce(u128 x) {
  x = FpFold(x);
  // Subtract p iff x >= p, as a mask: x < 2^127 + 1 here, so x - p
  // underflows (top bit set) exactly when x < p.
  const u128 d = x - kFieldPrime;
  const u128 borrow = ct::MaskNonZeroU128(d >> 127);  // all-ones iff x < p
  return ct::SelectU128(borrow, x, d);
}

inline u128 FpAdd(u128 a, u128 b) {
  // a, b < p < 2^127, so the sum fits in 128 bits.
  const u128 s = a + b;
  const u128 d = s - kFieldPrime;
  const u128 borrow = ct::MaskNonZeroU128(d >> 127);
  return ct::SelectU128(borrow, s, d);
}

inline u128 FpSub(u128 a, u128 b) {
  // a - b, wrapping by +p iff a < b.
  const u128 d = a - b;
  const u128 borrow = ct::MaskNonZeroU128(d >> 127);  // all-ones iff a < b
  return d + (borrow & kFieldPrime);
}

inline u128 FpNeg(u128 a) {
  // p - a for a != 0, and 0 for a == 0, without branching on a.
  return (kFieldPrime - a) & ct::MaskNonZeroU128(a);
}

// Full 127x127 -> 254-bit product with Mersenne folding.
inline u128 FpMul(u128 a, u128 b) {
  const uint64_t a0 = static_cast<uint64_t>(a);
  const uint64_t a1 = static_cast<uint64_t>(a >> 64);
  const uint64_t b0 = static_cast<uint64_t>(b);
  const uint64_t b1 = static_cast<uint64_t>(b >> 64);

  const u128 p00 = static_cast<u128>(a0) * b0;
  const u128 p01 = static_cast<u128>(a0) * b1;
  const u128 p10 = static_cast<u128>(a1) * b0;
  const u128 p11 = static_cast<u128>(a1) * b1;  // < 2^126

  // acc = p11*2^128 + (p01 + p10)*2^64 + p00, tracked as acc1*2^128 + acc0.
  // Carries are computed as 0/1 comparison values (SETcc), not branches,
  // so multiplication time is independent of the operand bit patterns.
  u128 mid = p01 + p10;
  const u128 mid_carry = static_cast<u128>(mid < p01);  // mid-sum overflow

  u128 acc0 = p00;
  u128 acc1 = p11 + (mid >> 64) + (mid_carry << 64);
  const u128 mid_lo_shifted = mid << 64;
  acc0 += mid_lo_shifted;
  acc1 += static_cast<u128>(acc0 < mid_lo_shifted);

  // value = acc1*2^128 + acc0 ≡ 2*acc1 + acc0 (mod 2^127 - 1).
  u128 r = FpFold(acc0) + FpFold(acc1 << 1);
  return FpReduce(r);
}

// a^e mod p via square-and-multiply.
inline u128 FpPow(u128 a, u128 e) {
  u128 result = 1;
  u128 base = a;
  while (e != 0) {
    if (e & 1) result = FpMul(result, base);
    base = FpMul(base, base);
    e >>= 1;
  }
  return result;
}

// Multiplicative inverse (a != 0) via Fermat: a^(p-2).
inline u128 FpInv(u128 a) {
  PIVOT_DCHECK(a != 0);
  return FpPow(a, kFieldPrime - 2);
}

// Uniform field element.
inline u128 FpRandom(Rng& rng) {
  for (;;) {
    u128 v = (static_cast<u128>(rng.NextU64()) << 64) | rng.NextU64();
    v &= kFieldPrime;  // 127 random bits
    if (v != kFieldPrime) return v;
  }
}

// Signed encode/decode: logical values live in (-p/2, p/2).
inline u128 FpFromSigned(i128 v) {
  // Branchless sign split: select |v| by the sign mask, reduce, then
  // select the negation the same way (v is a secret logical value).
  const u128 uv = static_cast<u128>(v);
  const u128 neg = ct::MaskNonZeroU128(uv >> 127);  // all-ones iff v < 0
  const u128 mag = FpReduce(ct::SelectU128(neg, static_cast<u128>(0) - uv,
                                           uv));
  return ct::SelectU128(neg, FpNeg(mag), mag);
}

inline i128 FpToSigned(u128 v) {
  PIVOT_DCHECK(v < kFieldPrime);
  if (v > kFieldPrime / 2) return -static_cast<i128>(kFieldPrime - v);
  return static_cast<i128>(v);
}

// Conversions to/from BigInt (for the ciphertext <-> share bridge).
inline BigInt FpToBigInt(u128 v) {
  BigInt hi(static_cast<uint64_t>(v >> 64));
  BigInt lo(static_cast<uint64_t>(v));
  return (hi << 64) + lo;
}

inline u128 FpFromBigInt(const BigInt& v) {
  // Value may exceed p (e.g. a Paillier plaintext congruent to the logical
  // value mod p); reduce properly.
  BigInt r = v.Mod(FpToBigInt(kFieldPrime));
  u128 out = 0;
  const auto& limbs = r.limbs();
  if (!limbs.empty()) out = limbs[0];
  if (limbs.size() > 1) out |= static_cast<u128>(limbs[1]) << 64;
  return out;
}

}  // namespace pivot

#endif  // PIVOT_MPC_FIELD_H_
