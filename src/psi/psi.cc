#include "psi/psi.h"

#include <map>
#include <utility>

#include "bigint/bigint.h"
#include "common/check.h"
#include "common/sha256.h"
#include "common/thread_pool.h"
#include "net/codec.h"

namespace pivot {

namespace {

// RFC 3526 1536-bit MODP group prime (a safe prime: P = 2q + 1 with q
// prime). Hashing into squares lands in the prime-order-q subgroup.
constexpr const char* kModp1536Hex =
    "ffffffffffffffffc90fdaa22168c234c4c6628b80dc1cd129024e088a67cc74"
    "020bbea63b139b22514a08798e3404ddef9519b3cd3a431b302b0a6df25f1437"
    "4fe1356d6d51c245e485b576625e7ec6f44c42e9a637ed6b0bff5cb6f406b7ed"
    "ee386bfb5a899fa5ae9f24117c4b1fe649286651ece45b3dc2007cb8a163bf05"
    "98da48361c55d39a69163fa8fd24cf5f83655d23dca3ad961c62f356208552bb"
    "9ed529077096966d670c354e4abc9804f1746c08ca237327ffffffffffffffff";

BigInt MustParseGroupPrime() {
  Result<BigInt> p = BigInt::FromHexString(kModp1536Hex);
  PIVOT_CHECK_MSG(p.ok(), "MODP group prime constant failed to parse");
  return std::move(p).value();
}

struct Group {
  BigInt p;       // safe prime
  BigInt q;       // (p-1)/2
  MontgomeryContext ctx;

  Group() : p(MustParseGroupPrime()), q((p - BigInt(1)) >> 1), ctx(p) {}
};

const Group& TheGroup() {
  static const Group* group = new Group();
  return *group;
}

// Hash a sample id into the order-q subgroup: square of SHA-256-derived
// element.
BigInt HashToGroup(uint64_t id) {
  const Group& g = TheGroup();
  ByteWriter w;
  w.WriteString("pivot-psi-v1");
  w.WriteU64(id);
  Bytes seed = w.Take();
  // Expand to ~192 bytes with a counter.
  Bytes material;
  for (uint8_t ctr = 0; material.size() < 192; ++ctr) {
    Sha256 h;
    h.Update(seed);
    h.Update(&ctr, 1);
    auto digest = h.Finish();
    material.insert(material.end(), digest.begin(), digest.end());
  }
  BigInt x = BigInt::FromBytes(material).Mod(g.p);
  if (x.IsZero()) x = BigInt(2);
  return g.ctx.ModMul(x, x);  // square into the subgroup
}

Bytes EncodeGroupVector(const std::vector<BigInt>& values) {
  ByteWriter w;
  w.WriteU64(values.size());
  for (const BigInt& v : values) EncodeBigInt(v, w);
  return w.Take();
}

}  // namespace

Result<std::vector<uint64_t>> IntersectSampleIds(
    Endpoint& endpoint, const std::vector<uint64_t>& my_ids, Rng& rng) {
  const Group& g = TheGroup();
  const int m = endpoint.num_parties();
  const int me = endpoint.id();

  // Secret exponent in [1, q).
  BigInt key = BigInt::RandomBelow(g.q - BigInt(1), rng) + BigInt(1);

  if (m == 1) return my_ids;

  // Blind my own ids. Every exponentiation writes its own slot, so both
  // loops below fan out over the shared pool without changing a value.
  const int threads = AvailableCpus();
  std::vector<BigInt> blinded(my_ids.size());
  PIVOT_RETURN_IF_ERROR(ThreadPool::Global().ParallelFor(
      my_ids.size(), threads, [&](size_t i) -> Status {
        blinded[i] = g.ctx.ModExp(HashToGroup(my_ids[i]), key);
        return Status::Ok();
      }));

  // Ring pass: each set makes m-1 hops, being raised to every other
  // party's exponent. After the final hop the set returns to a designated
  // collector... simpler: sets travel the full ring and every party
  // forwards; after m-1 hops party (owner - (m-1)) mod m = (owner+1) mod m
  // holds owner's fully-blinded set. A final broadcast round shares all
  // fully-blinded sets with everyone.
  const int next = (me + 1) % m;
  const int prev = (me + m - 1) % m;

  // The set currently in hand; starts as my own blinded set.
  std::vector<BigInt> in_hand = std::move(blinded);
  for (int hop = 0; hop + 1 < m; ++hop) {
    PIVOT_RETURN_IF_ERROR(endpoint.Send(next, EncodeGroupVector(in_hand)));
    PIVOT_ASSIGN_OR_RETURN(Bytes msg, endpoint.Recv(prev));
    PIVOT_ASSIGN_OR_RETURN(std::vector<BigInt> received,
                           DecodeBigIntVector(msg));
    PIVOT_RETURN_IF_ERROR(ThreadPool::Global().ParallelFor(
        received.size(), threads, [&](size_t i) -> Status {
          received[i] = g.ctx.ModExp(received[i], key);
          return Status::Ok();
        }));
    in_hand = std::move(received);
  }
  // in_hand now holds the fully-blinded set that started at party
  // (me + 1) mod m. Broadcast it so every party can intersect everything.
  PIVOT_RETURN_IF_ERROR(endpoint.Broadcast(EncodeGroupVector(in_hand)));
  std::vector<std::vector<BigInt>> full_sets(m);
  full_sets[(me + 1) % m] = std::move(in_hand);
  for (int p = 0; p < m; ++p) {
    if (p == me) continue;
    PIVOT_ASSIGN_OR_RETURN(Bytes msg, endpoint.Recv(p));
    // Party p broadcasts the fully-blinded set of party (p + 1) mod m.
    PIVOT_ASSIGN_OR_RETURN(full_sets[(p + 1) % m], DecodeBigIntVector(msg));
  }

  // Count in how many sets each fully-blinded encoding appears; an id is
  // common iff its encoding appears in all m sets.
  std::map<std::string, int> counts;
  for (int p = 0; p < m; ++p) {
    for (const BigInt& v : full_sets[p]) {
      std::string enc = v.ToHexString();
      ++counts[enc];
    }
  }

  // My fully-blinded encodings, in my id order, are in full_sets[me].
  if (full_sets[me].size() != my_ids.size()) {
    return Status::ProtocolError("PSI set size mismatch after ring pass");
  }
  std::vector<uint64_t> intersection;
  for (size_t i = 0; i < my_ids.size(); ++i) {
    auto it = counts.find(full_sets[me][i].ToHexString());
    if (it != counts.end() && it->second >= m) {
      intersection.push_back(my_ids[i]);
    }
  }
  return intersection;
}

}  // namespace pivot
