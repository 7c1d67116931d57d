#ifndef PIVOT_CRYPTO_PAILLIER_H_
#define PIVOT_CRYPTO_PAILLIER_H_

#include <memory>
#include <vector>

#include "bigint/bigint.h"
#include "common/rng.h"
#include "common/status.h"

namespace pivot {

// A Paillier ciphertext: an element of Z*_{n^2}. Wrapped in a struct (rather
// than a bare BigInt) so plaintexts and ciphertexts cannot be confused at
// API boundaries. Written [x] in the paper's notation.
struct Ciphertext {
  BigInt value;

  bool operator==(const Ciphertext& o) const = default;
};

// Public key of the Paillier cryptosystem (Paillier '99, with the standard
// g = n + 1 simplification). Provides encryption and every homomorphic
// operation the Pivot protocols use:
//
//   Add         : [x1] ⊕ [x2]      = [x1 + x2]
//   ScalarMul   : k ⊗ [x]          = [k · x]
//   AddPlain    : [x] ⊕ k          = [x + k]
//   DotProduct  : v ⊙ [u]          = [v · u]   (plaintext v, encrypted u)
//
// All plaintexts live in Z_n. Signed protocol values are mapped into Z_n by
// the MPC bridging layer (they are kept congruent to the logical value
// modulo the share field prime; see DESIGN.md §3).
class PaillierPublicKey {
 public:
  PaillierPublicKey() = default;
  explicit PaillierPublicKey(BigInt n);

  bool valid() const { return mont_n2_ != nullptr; }
  const BigInt& n() const { return n_; }
  const BigInt& n_squared() const { return n_squared_; }
  int key_bits() const { return n_.BitLength(); }

  // Encrypts m in [0, n) with fresh randomness.
  Ciphertext Encrypt(const BigInt& m, Rng& rng) const;
  // Encrypts m with caller-provided randomness r in Z*_n (used by the
  // zero-knowledge proofs, which need the encryption randomness).
  Ciphertext EncryptWithRandomness(const BigInt& m, const BigInt& r) const;

  // Homomorphic addition: Dec(Add(c1, c2)) = Dec(c1) + Dec(c2) mod n.
  Ciphertext Add(const Ciphertext& c1, const Ciphertext& c2) const;
  // Homomorphic scalar multiplication: Dec(ScalarMul(k, c)) = k·Dec(c) mod n.
  // k is reduced into [0, n).
  Ciphertext ScalarMul(const BigInt& k, const Ciphertext& c) const;
  // Adds a plaintext constant: Dec(AddPlain(c, k)) = Dec(c) + k mod n.
  Ciphertext AddPlain(const Ciphertext& c, const BigInt& k) const;
  // Homomorphic dot product of a plaintext vector with a ciphertext vector.
  // Scalars of 0 and 1 (the dominant case in Pivot: indicator vectors) take
  // fast paths. REQUIRES: plain.size() == cts.size().
  Ciphertext DotProduct(const std::vector<BigInt>& plain,
                        const std::vector<Ciphertext>& cts) const;
  // Re-randomizes a ciphertext (multiplies by a fresh encryption of 0).
  Ciphertext Rerandomize(const Ciphertext& c, Rng& rng) const;

  // The encryption of zero with unit randomness; additive identity.
  Ciphertext One() const { return Ciphertext{BigInt(1)}; }

  // Raw modular exponentiation in Z*_{n^2} (exposed for partial decryption
  // and the batch kernels).
  BigInt PowModN2(const BigInt& base, const BigInt& exp) const;
  BigInt MulModN2(const BigInt& a, const BigInt& b) const;

  // Montgomery context of Z_{n^2}, shared with the batch kernels
  // (crypto/paillier_batch.h) so they can chain MontMul/MontExp without
  // re-deriving the modulus constants. REQUIRES: valid().
  const MontgomeryContext& mont_n2() const { return *mont_n2_; }

  // Samples r uniform in Z*_n with a bounded rejection loop. A draw with
  // gcd(r, n) != 1 reveals a factor of n, which happens with probability
  // ~2^{-key_bits/2} per iteration for a well-formed key; exhausting the
  // bound therefore indicates a malformed modulus and errors out instead
  // of spinning.
  Result<BigInt> SampleUnit(Rng& rng) const;

 private:
  BigInt n_;
  BigInt n_squared_;
  // Shared (not unique) so public keys stay cheaply copyable across the
  // simulated parties.
  std::shared_ptr<const MontgomeryContext> mont_n2_;
};

// Private key for the non-threshold scheme. Used by unit tests and by the
// key generator; the protocols themselves use the threshold variant.
class PaillierPrivateKey {
 public:
  PaillierPrivateKey() = default;
  PaillierPrivateKey(const PaillierPublicKey& pk, BigInt lambda);

  // Decrypts to a plaintext in [0, n).
  Result<BigInt> Decrypt(const Ciphertext& c) const;

  const BigInt& lambda() const { return lambda_; }

 private:
  PaillierPublicKey pk_;
  BigInt lambda_;
  BigInt mu_;  // (L(g^lambda mod n^2))^{-1} mod n
};

struct PaillierKeyPair {
  PaillierPublicKey pk;
  PaillierPrivateKey sk;
};

// Generates a key pair with an n of `key_bits` bits (each prime factor has
// key_bits/2 bits). REQUIRES: key_bits >= 64.
PaillierKeyPair GeneratePaillierKeyPair(int key_bits, Rng& rng);

// L(u) = (u - 1) / n; errors if n does not divide u - 1 (corrupt input).
Result<BigInt> PaillierL(const BigInt& u, const BigInt& n);

}  // namespace pivot

#endif  // PIVOT_CRYPTO_PAILLIER_H_
