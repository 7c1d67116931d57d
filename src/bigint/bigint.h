#ifndef PIVOT_BIGINT_BIGINT_H_
#define PIVOT_BIGINT_BIGINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"

namespace pivot {

struct DivModResult;

// Arbitrary-precision signed integer.
//
// Sign-magnitude representation over 64-bit little-endian limbs. This is
// the from-scratch replacement for GMP that the Paillier/TPHE layer is
// built on. The class supports the operations the cryptosystem needs:
// full arithmetic, modular arithmetic (with Montgomery-accelerated modular
// exponentiation for odd moduli), gcd / lcm / modular inverse, primality
// testing, random sampling, and byte/string serialization.
//
// Values are immutable from the caller's perspective: all operators return
// new values. Internal normalization guarantees no leading zero limbs and
// that zero is always non-negative.
class BigInt {
 public:
  BigInt() = default;
  BigInt(int64_t v);   // NOLINT: implicit by design, mirrors integer literals
  BigInt(uint64_t v);  // NOLINT
  BigInt(int v) : BigInt(static_cast<int64_t>(v)) {}  // NOLINT

  // Parses a decimal string, with optional leading '-'.
  static Result<BigInt> FromDecString(const std::string& s);
  // Parses a hexadecimal string (no 0x prefix), with optional leading '-'.
  static Result<BigInt> FromHexString(const std::string& s);
  // Interprets big-endian magnitude bytes as a non-negative integer.
  static BigInt FromBytes(const Bytes& bytes);

  // Uniform in [0, 2^bits).
  static BigInt RandomBits(int bits, Rng& rng);
  // Uniform in [0, bound), bound > 0.
  static BigInt RandomBelow(const BigInt& bound, Rng& rng);

  bool IsZero() const { return limbs_.empty(); }
  bool IsNegative() const { return negative_; }
  bool IsOdd() const { return !limbs_.empty() && (limbs_[0] & 1); }
  bool IsOne() const { return !negative_ && limbs_.size() == 1 && limbs_[0] == 1; }

  // Number of significant bits of the magnitude (0 for zero).
  int BitLength() const;
  // Bit i (0 = least significant) of the magnitude.
  bool TestBit(int i) const;

  BigInt operator-() const;
  BigInt Abs() const;

  BigInt operator+(const BigInt& o) const;
  BigInt operator-(const BigInt& o) const;
  BigInt operator*(const BigInt& o) const;
  // Truncated division (C++ semantics: quotient rounds toward zero).
  BigInt operator/(const BigInt& o) const;
  // Remainder with the sign of the dividend (C++ semantics).
  BigInt operator%(const BigInt& o) const;

  BigInt operator<<(int bits) const;
  BigInt operator>>(int bits) const;

  BigInt& operator+=(const BigInt& o) { return *this = *this + o; }
  BigInt& operator-=(const BigInt& o) { return *this = *this - o; }
  BigInt& operator*=(const BigInt& o) { return *this = *this * o; }

  std::strong_ordering operator<=>(const BigInt& o) const;
  bool operator==(const BigInt& o) const;

  // Quotient and remainder in one pass (truncated division).
  DivModResult DivMod(const BigInt& divisor) const;

  // Non-negative residue in [0, m), m > 0.
  BigInt Mod(const BigInt& m) const;
  BigInt ModAdd(const BigInt& o, const BigInt& m) const;
  BigInt ModSub(const BigInt& o, const BigInt& m) const;
  BigInt ModMul(const BigInt& o, const BigInt& m) const;
  // this^exp mod m, exp >= 0, m > 1. Uses Montgomery ladder-free windowed
  // exponentiation when m is odd, generic square-and-multiply otherwise.
  BigInt ModExp(const BigInt& exp, const BigInt& m) const;
  // Multiplicative inverse mod m if gcd(this, m) == 1.
  Result<BigInt> ModInverse(const BigInt& m) const;

  static BigInt Gcd(const BigInt& a, const BigInt& b);
  static BigInt Lcm(const BigInt& a, const BigInt& b);

  // Value checked to fit the destination type.
  Result<uint64_t> ToU64() const;
  Result<int64_t> ToI64() const;

  std::string ToDecString() const;
  std::string ToHexString() const;
  // Big-endian magnitude bytes (empty for zero). Sign is not encoded.
  Bytes ToBytes() const;

  // Fixed-width big-endian magnitude (zero-padded / checked to fit).
  Bytes ToBytesPadded(size_t width) const;

  const std::vector<uint64_t>& limbs() const { return limbs_; }

 private:
  friend class MontgomeryContext;

  static int CompareMagnitude(const BigInt& a, const BigInt& b);
  static BigInt AddMagnitude(const BigInt& a, const BigInt& b);
  // Requires |a| >= |b|.
  static BigInt SubMagnitude(const BigInt& a, const BigInt& b);
  static BigInt MulMagnitude(const BigInt& a, const BigInt& b);
  static void DivModMagnitude(const BigInt& a, const BigInt& b, BigInt* q,
                              BigInt* r);
  void Normalize();

  bool negative_ = false;
  std::vector<uint64_t> limbs_;  // little-endian, no trailing zeros
};

// Quotient/remainder pair returned by BigInt::DivMod (truncated division:
// quotient rounds toward zero, remainder carries the dividend's sign).
struct DivModResult {
  BigInt quotient;
  BigInt remainder;
};

// Precomputed Montgomery-domain context for repeated modular
// multiplication / exponentiation against a fixed odd modulus. Paillier
// encryption and (threshold) decryption construct one per modulus.
class MontgomeryContext {
 public:
  // REQUIRES: modulus odd and > 1.
  explicit MontgomeryContext(const BigInt& modulus);

  const BigInt& modulus() const { return modulus_; }

  // a * b mod m via Montgomery REDC; a, b in [0, m).
  BigInt ModMul(const BigInt& a, const BigInt& b) const;
  // base^exp mod m with a fixed 4-bit window; base in [0, m), exp >= 0.
  BigInt ModExp(const BigInt& base, const BigInt& exp) const;

  // ----- Montgomery-domain primitives ------------------------------------
  // Exposed so batch kernels can keep long chains of multiplications in
  // the Montgomery domain and convert out once at the end (the per-term
  // To/FromMontgomery round-trip is the dominant cost of a homomorphic
  // dot product; see crypto/paillier.cc). A "mont" value is a·R mod m.

  BigInt ToMontgomery(const BigInt& a) const;
  BigInt FromMontgomery(const BigInt& a) const;
  // Montgomery product of two Montgomery-domain values.
  BigInt MontMul(const BigInt& a, const BigInt& b) const;
  // Montgomery representation of 1 (R mod m), the neutral accumulator.
  const BigInt& MontOne() const { return r_mod_; }
  // base^exp with Montgomery-domain input AND output: the caller converts
  // in once, chains MontMul/MontExp freely, and converts out once.
  // A 16-entry window table of `mbase` may be supplied (and reused across
  // calls) via MontExpWithTable; BuildWindowTable fills table[i] =
  // mbase^i for i in [0, 16).
  BigInt MontExp(const BigInt& mbase, const BigInt& exp) const;
  void BuildWindowTable(const BigInt& mbase, BigInt table[16]) const;
  BigInt MontExpWithTable(const BigInt table[16], const BigInt& exp) const;

 private:
  BigInt modulus_;
  size_t k_;            // number of limbs in modulus
  uint64_t n_prime_;    // -modulus^{-1} mod 2^64
  BigInt r_mod_;        // R mod m
  BigInt r2_mod_;       // R^2 mod m
};

}  // namespace pivot

#endif  // PIVOT_BIGINT_BIGINT_H_
