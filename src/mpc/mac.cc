#include "mpc/mac.h"

#include "common/check.h"
#include "common/ct.h"
#include "common/op_counters.h"
#include "net/codec.h"

namespace pivot {

AuthDealer::AuthDealer(int party_id, int num_parties, uint64_t seed)
    : party_id_(party_id), num_parties_(num_parties), rng_(seed ^ 0x4d414353) {
  PIVOT_CHECK(party_id >= 0 && party_id < num_parties);
  mac_key_ = FpRandom(rng_);
  // Additive sharing of the global key.
  u128 sum = 0;
  u128 mine = 0;
  for (int i = 0; i + 1 < num_parties_; ++i) {
    u128 s = FpRandom(rng_);
    sum = FpAdd(sum, s);
    if (i == party_id_) mine = s;
  }
  if (party_id_ == num_parties_ - 1) mine = FpSub(mac_key_, sum);
  mac_key_share_ = mine;
}

AuthShare AuthDealer::ShareOfAuth(u128 value) {
  const u128 mac = FpMul(value, mac_key_);
  AuthShare out;
  // Value shares.
  u128 sum = 0;
  for (int i = 0; i + 1 < num_parties_; ++i) {
    u128 s = FpRandom(rng_);
    sum = FpAdd(sum, s);
    if (i == party_id_) out.value = s;
  }
  if (party_id_ == num_parties_ - 1) out.value = FpSub(value, sum);
  // MAC shares.
  sum = 0;
  for (int i = 0; i + 1 < num_parties_; ++i) {
    u128 s = FpRandom(rng_);
    sum = FpAdd(sum, s);
    if (i == party_id_) out.mac = s;
  }
  if (party_id_ == num_parties_ - 1) out.mac = FpSub(mac, sum);
  return out;
}

AuthShare AuthDealer::NextRandom() { return ShareOfAuth(FpRandom(rng_)); }

AuthDealer::AuthTriple AuthDealer::NextTriple() {
  const u128 a = FpRandom(rng_);
  const u128 b = FpRandom(rng_);
  AuthTriple t;
  t.a = ShareOfAuth(a);
  t.b = ShareOfAuth(b);
  t.c = ShareOfAuth(FpMul(a, b));
  return t;
}

AuthEngine::AuthEngine(Endpoint* endpoint, AuthDealer* dealer)
    : endpoint_(endpoint), dealer_(dealer) {}

AuthShare AuthEngine::AddConst(const AuthShare& a, i128 c) const {
  const u128 cf = FpFromSigned(c);
  AuthShare out = a;
  if (party_id() == 0) out.value = FpAdd(out.value, cf);
  // MAC of a public constant: every party adds Delta_i · c.
  out.mac = FpAdd(out.mac, FpMul(dealer_->mac_key_share(), cf));
  return out;
}

Result<AuthShare> AuthEngine::Input(int owner, i128 value) {
  // Mask-based input: dealer hands out an authenticated random <r>; in a
  // real deployment the dealer would privately reveal r to the owner — the
  // shared-seed dealer simulation reconstructs it the same way here.
  AuthShare r = dealer_->NextRandom();
  // Reconstruct r towards the owner (over the network, value shares only).
  ByteWriter w;
  EncodeU128(r.value, w);
  Bytes mine = w.Take();
  u128 r_clear = r.value;
  if (num_parties() > 1) {
    if (party_id() == owner) {
      for (int p = 0; p < num_parties(); ++p) {
        if (p == party_id()) continue;
        PIVOT_ASSIGN_OR_RETURN(Bytes msg, endpoint_->Recv(p));
        ByteReader rd(msg);
        PIVOT_ASSIGN_OR_RETURN(u128 v, DecodeU128(rd));
        r_clear = FpAdd(r_clear, v);
      }
    } else {
      PIVOT_RETURN_IF_ERROR(endpoint_->Send(owner, mine));
    }
  }
  // Owner broadcasts eps = value - r.
  u128 eps = 0;
  if (party_id() == owner) {
    eps = FpSub(FpFromSigned(value), r_clear);
    ByteWriter we;
    EncodeU128(eps, we);
    if (num_parties() > 1) {
      // pivot-taint: allow(raw-send) eps = value - r is one-time-pad
      // masked by the fresh dealer randomness r; broadcasting it is the
      // SPDZ input step.
      PIVOT_RETURN_IF_ERROR(endpoint_->Broadcast(we.Take()));
    }
  } else {
    PIVOT_ASSIGN_OR_RETURN(Bytes msg, endpoint_->Recv(owner));
    ByteReader rd(msg);
    PIVOT_ASSIGN_OR_RETURN(eps, DecodeU128(rd));
  }
  // x = r + eps (public constant added with MAC adjustment).
  AuthShare out = r;
  if (party_id() == 0) out.value = FpAdd(out.value, eps);
  out.mac = FpAdd(out.mac, FpMul(dealer_->mac_key_share(), eps));
  return out;
}

Result<std::vector<u128>> AuthEngine::OpenVec(
    const std::vector<AuthShare>& shares) {
  const size_t n = shares.size();
  if (n == 0) return std::vector<u128>{};
  OpCounters::Global().AddSecureOp(n);

  // Round 1: open the values.
  std::vector<u128> value_shares(n);
  for (size_t i = 0; i < n; ++i) value_shares[i] = shares[i].value;
  std::vector<u128> opened = value_shares;
  if (num_parties() > 1) {
    PIVOT_RETURN_IF_ERROR(
        endpoint_->Broadcast(EncodeU128Vector(value_shares)));
    for (int p = 0; p < num_parties(); ++p) {
      if (p == party_id()) continue;
      PIVOT_ASSIGN_OR_RETURN(Bytes msg, endpoint_->Recv(p));
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> theirs, DecodeU128Vector(msg));
      if (theirs.size() != n) {
        return Status::ProtocolError("opened vector size mismatch");
      }
      for (size_t i = 0; i < n; ++i) opened[i] = FpAdd(opened[i], theirs[i]);
    }
  }

  // Round 2: MAC check — z_i = mac_i - x·Delta_i must sum to zero.
  std::vector<u128> zs(n);
  for (size_t i = 0; i < n; ++i) {
    zs[i] = FpSub(shares[i].mac,
                  FpMul(opened[i], dealer_->mac_key_share()));
  }
  std::vector<u128> zsum = zs;
  if (num_parties() > 1) {
    // pivot-taint: allow(raw-send) MAC-check shares z_i = mac_i - x·Δ_i
    // are uniform under the secret MAC key and sum to zero iff the
    // opened values are untampered; publishing them IS the check.
    PIVOT_RETURN_IF_ERROR(endpoint_->Broadcast(EncodeU128Vector(zs)));
    for (int p = 0; p < num_parties(); ++p) {
      if (p == party_id()) continue;
      PIVOT_ASSIGN_OR_RETURN(Bytes msg, endpoint_->Recv(p));
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> theirs, DecodeU128Vector(msg));
      if (theirs.size() != n) {
        return Status::ProtocolError("MAC share vector size mismatch");
      }
      for (size_t i = 0; i < n; ++i) zsum[i] = FpAdd(zsum[i], theirs[i]);
    }
  }
  // Constant-time verdict: fold every element before the single branch so
  // timing cannot reveal *which* index (and hence which value) failed.
  // An early-exit scan would leak the position of the first tampered
  // share through round latency.
  if (!ct::AllZeroU128(zsum.data(), zsum.size())) {
    return Status::IntegrityError("MAC check failed: share was tampered");
  }
  return opened;
}

Result<u128> AuthEngine::Open(const AuthShare& share) {
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> out, OpenVec({share}));
  return out[0];
}

Result<AuthShare> AuthEngine::Mul(const AuthShare& a, const AuthShare& b) {
  AuthDealer::AuthTriple t = dealer_->NextTriple();
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> ef,
                         OpenVec({Sub(a, t.a), Sub(b, t.b)}));
  const u128 e = ef[0];
  const u128 f = ef[1];
  // c = tc + e·tb + f·ta + e·f
  AuthShare out = t.c;
  out = Add(out, MulPub(t.b, e));
  out = Add(out, MulPub(t.a, f));
  const u128 ef_prod = FpMul(e, f);
  if (party_id() == 0) out.value = FpAdd(out.value, ef_prod);
  out.mac = FpAdd(out.mac, FpMul(dealer_->mac_key_share(), ef_prod));
  return out;
}

}  // namespace pivot
