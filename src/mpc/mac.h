#ifndef PIVOT_MPC_MAC_H_
#define PIVOT_MPC_MAC_H_

#include <vector>

#include "mpc/field.h"
#include "mpc/preprocessing.h"
#include "net/network.h"

namespace pivot {

// SPDZ information-theoretic MACs (Section 9.1.1 of the paper): every
// secret-shared value x is accompanied by a sharing of delta = x·Delta for
// a fixed global key Delta (itself additively shared). A party that
// modifies its share of x without the matching MAC adjustment is caught at
// opening time with overwhelming probability (the cheater would have to
// guess Delta).
//
// Simplification vs full SPDZ: the MAC-difference values are exchanged
// directly instead of being committed first (enough to *detect* additive
// share tampering, which is what the malicious-model tests exercise; a
// full commit-then-open would also prevent rushing adversaries).

// An authenticated share: this party's share of the value and of its MAC.
struct AuthShare {
  u128 value = 0;
  u128 mac = 0;
};

// Dealer-side generation of authenticated correlated randomness. Wraps a
// Preprocessing stream; all parties construct it with the same seed.
class AuthDealer {
 public:
  AuthDealer(int party_id, int num_parties, uint64_t seed);

  // This party's share of the global MAC key Delta.
  u128 mac_key_share() const { return mac_key_share_; }

  // Authenticated sharing of a dealer-chosen random value.
  AuthShare NextRandom();
  // Authenticated Beaver triple.
  struct AuthTriple {
    AuthShare a, b, c;
  };
  AuthTriple NextTriple();

 private:
  AuthShare ShareOfAuth(u128 value);

  int party_id_;
  int num_parties_;
  Rng rng_;
  u128 mac_key_ = 0;  // dealer-known; parties only keep their share
  u128 mac_key_share_ = 0;
};

// Online engine for MAC-authenticated computation. SPMD like MpcEngine.
class AuthEngine {
 public:
  AuthEngine(Endpoint* endpoint, AuthDealer* dealer);

  int party_id() const { return endpoint_->id(); }
  int num_parties() const { return endpoint_->num_parties(); }

  // Owner secret-shares `value` with authentication (mask-based input:
  // the dealer supplies an authenticated random r, the owner opens
  // value - r publicly).
  Result<AuthShare> Input(int owner, i128 value);

  // Linear operations (local).
  static AuthShare Add(const AuthShare& a, const AuthShare& b) {
    return {FpAdd(a.value, b.value), FpAdd(a.mac, b.mac)};
  }
  static AuthShare Sub(const AuthShare& a, const AuthShare& b) {
    return {FpSub(a.value, b.value), FpSub(a.mac, b.mac)};
  }
  static AuthShare MulPub(const AuthShare& a, u128 k) {
    return {FpMul(a.value, k), FpMul(a.mac, k)};
  }
  AuthShare AddConst(const AuthShare& a, i128 c) const;

  // Authenticated multiplication via an authenticated Beaver triple.
  Result<AuthShare> Mul(const AuthShare& a, const AuthShare& b);

  // Opens values and verifies their MACs; kIntegrityError on tampering.
  Result<u128> Open(const AuthShare& share);
  Result<std::vector<u128>> OpenVec(const std::vector<AuthShare>& shares);

  // Testing hook: corrupt this party's share before the next operation.
  static AuthShare Tamper(const AuthShare& s, u128 delta) {
    return {FpAdd(s.value, delta), s.mac};
  }

 private:
  Endpoint* endpoint_;
  AuthDealer* dealer_;
};

}  // namespace pivot

#endif  // PIVOT_MPC_MAC_H_
