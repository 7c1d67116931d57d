#ifndef PIVOT_MPC_ENGINE_H_
#define PIVOT_MPC_ENGINE_H_

#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "mpc/field.h"
#include "mpc/preprocessing.h"
#include "net/network.h"

namespace pivot {

// Semi-honest additive secret sharing engine (the online phase of the
// paper's SPDZ substrate, Section 2.2).
//
// One instance lives on each party's thread, bound to that party's network
// endpoint and its view of the offline phase. All methods are SPMD: every
// party calls the same method with its own shares, and the method returns
// that party's share of the result. Interactive primitives (anything
// returning Result) exchange messages; linear operations are local.
//
// Shares are elements of F_p (p = 2^127 - 1, see field.h). Logical values
// are signed fixed-point integers in the format of common/fixed_point.h
// (kFracBits fractional bits, |x| < 2^(kValueBits-1)).
class MpcEngine {
 public:
  MpcEngine(Endpoint* endpoint, Preprocessing* prep, uint64_t personal_seed);

  int party_id() const { return endpoint_->id(); }
  int num_parties() const { return endpoint_->num_parties(); }

  // ----- Input / constants / output -----------------------------------

  // Share of a public field constant (party 0 holds it, others hold 0).
  u128 ConstantField(u128 v) const { return party_id() == 0 ? v : 0; }

  // Owner secret-shares `value` (ignored on other parties). One round.
  Result<u128> Input(int owner, i128 value);
  Result<std::vector<u128>> InputVector(int owner,
                                        const std::vector<i128>& values,
                                        size_t size);

  // Reconstructs values towards all parties. One round.
  Result<u128> Open(u128 share);
  Result<std::vector<u128>> OpenVec(const std::vector<u128>& shares);

  // ----- Linear operations (local) -------------------------------------

  static u128 Add(u128 a, u128 b) { return FpAdd(a, b); }
  static u128 Sub(u128 a, u128 b) { return FpSub(a, b); }
  static u128 Neg(u128 a) { return FpNeg(a); }
  u128 AddConst(u128 a, i128 c) const {
    return party_id() == 0 ? FpAdd(a, FpFromSigned(c)) : a;
  }
  u128 AddConstField(u128 a, u128 c) const {
    return party_id() == 0 ? FpAdd(a, c) : a;
  }
  static u128 MulPub(u128 a, u128 pub) { return FpMul(a, pub); }

  // ----- Multiplication (Beaver) ----------------------------------------

  Result<u128> Mul(u128 a, u128 b);
  // Element-wise products; single communication round.
  Result<std::vector<u128>> MulVec(const std::vector<u128>& a,
                                   const std::vector<u128>& b);

  // Fixed-point multiply: Mul followed by truncation of kFracBits.
  Result<std::vector<u128>> MulFixedVec(const std::vector<u128>& a,
                                        const std::vector<u128>& b);

  // ----- Truncation ------------------------------------------------------

  // Probabilistic truncation by 2^f (±1 ulp error): |x| < 2^(k_bound-1).
  Result<std::vector<u128>> TruncPrVec(const std::vector<u128>& xs, int f,
                                       int k_bound);
  // Exact truncation (floor division by 2^f).
  Result<std::vector<u128>> TruncExactVec(const std::vector<u128>& xs, int f,
                                          int k_bound);

  // ----- Comparisons ------------------------------------------------------

  // Shared bit [x < 0] for |x| < 2^(k_bound-1). Counted as Cc.
  Result<std::vector<u128>> LessThanZeroVec(const std::vector<u128>& xs,
                                            int k_bound);
  Result<u128> LessThanZero(u128 x, int k_bound);

  // Secure maximum scan (the paper's best-split selection loop): returns
  // shares of the maximum value and of its index.
  struct ArgmaxShares {
    u128 index = 0;  // shared index as a field element
    u128 max = 0;    // shared maximum value
  };
  // `k_bound` bounds the compared differences.
  Result<ArgmaxShares> Argmax(const std::vector<u128>& values, int k_bound);

  // Converts a shared index i* into shares of the one-hot indicator vector
  // (lambda in the paper's private split selection): size `size`,
  // lambda_t = [t == i*]. Uses one equality test per position.
  Result<std::vector<u128>> OneHot(u128 index, size_t size);

  // ----- Bit machinery -----------------------------------------------------

  // Exact bit decomposition of non-negative integers x < 2^bits.
  Result<std::vector<std::vector<u128>>> BitDecVec(const std::vector<u128>& xs,
                                                   int bits);

  // ----- Division / exponential / softmax ---------------------------------

  // Fixed-point reciprocal 1/X for X > 0 (raw value 0 < x < 2^48).
  Result<std::vector<u128>> ReciprocalVec(const std::vector<u128>& xs);
  Result<u128> DivFixed(u128 numerator, u128 denominator);
  Result<std::vector<u128>> DivFixedVec(const std::vector<u128>& nums,
                                        const std::vector<u128>& dens);

  // Fixed-point exp(X) via the limit approximation (1 + X/2^l)^(2^l);
  // valid for |X| <= 2^(l-2) with l = 10. See DESIGN.md.
  Result<std::vector<u128>> ExpFixedVec(const std::vector<u128>& xs);

  // Fixed-point natural logarithm for X > 0 (raw value < 2^48):
  // normalizes to [0.5, 1) and evaluates ln via the atanh series, then adds
  // back the exponent times ln 2. Used by the MPC Laplace sampler.
  Result<std::vector<u128>> LogFixedVec(const std::vector<u128>& xs);

  // Batched softmax over per-sample logit rows (GBDT classification):
  // `scores[k][t]` is the share of class k's score for sample t, and the
  // result holds the class probabilities in the same class-major layout.
  // One ExpFixedVec and one DivFixedVec cover every class and sample.
  Result<std::vector<std::vector<u128>>> Softmax(
      const std::vector<std::vector<u128>>& scores);

  // Number of communication rounds this engine has participated in.
  uint64_t rounds() const { return rounds_; }

  // Engine-internal randomness/round position, captured by training
  // checkpoints (pivot/checkpoint.h) so a resumed party replays the exact
  // same masked-opening randomness as the uninterrupted run.
  struct EngineState {
    RngState rng;
    uint64_t rounds = 0;
  };
  EngineState SaveState() const { return EngineState{rng_.SaveState(), rounds_}; }
  void RestoreState(const EngineState& state) {
    rng_.RestoreState(state.rng);
    rounds_ = state.rounds;
  }

 private:
  // Shared-bit result of [c < r] for public c (per instance) against the
  // shared bits of r; all instances advance one bit level per round.
  Result<std::vector<u128>> BitLT(
      const std::vector<uint64_t>& c_public,
      const std::vector<std::vector<u128>>& r_bits);

  // Normalization of positive values into [0.5, 1) (Catrina-Saxena style),
  // shared by the reciprocal and logarithm pipelines.
  struct Normalized {
    // Raw shares in [2^(kRecipFrac-1), 2^kRecipFrac): X_norm in [0.5, 1).
    std::vector<u128> x2;
    // Shares of 2^(kNormBits+1-j) where j is the MSB index (denormalizer).
    std::vector<u128> c2;
    // Shares of the integer exponent e with X = X_norm · 2^e.
    std::vector<u128> exponent;
  };
  Result<Normalized> Normalize(const std::vector<u128>& xs);

  Endpoint* endpoint_;
  Preprocessing* prep_;
  Rng rng_;
  uint64_t rounds_ = 0;
};

}  // namespace pivot

#endif  // PIVOT_MPC_ENGINE_H_
