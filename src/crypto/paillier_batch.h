#ifndef PIVOT_CRYPTO_PAILLIER_BATCH_H_
#define PIVOT_CRYPTO_PAILLIER_BATCH_H_

#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <vector>

#include "common/thread_pool.h"
#include "crypto/threshold_paillier.h"

namespace pivot {

// Batched Paillier kernels (the paper's "-PP" parallelized variants,
// Section 6.3) plus the two amortization layers they build on:
//
//   EncRandomnessPool    — offline precomputation of (r, r^n mod n^2)
//                          pairs, mirroring the SPDZ-style preprocessing
//                          model of src/mpc/: the encryption-randomness
//                          exponentiation is independent of the message,
//                          so it can run on pool threads during idle time
//                          and be drained by the online phase.
//   PreparedCiphertexts  — Montgomery-domain view (plus optional fixed
//                          4-bit window tables) of a ciphertext vector
//                          that is dot-multiplied against many plaintext
//                          vectors, e.g. [alpha]/[gamma] against one
//                          indicator pair per candidate split.
//
// Determinism contract (see DESIGN.md, "Parallelism model"): every kernel
// produces bit-identical output for every thread count. Kernels that
// consume randomness draw exactly ONE u64 from the caller's Rng per batch
// and derive an independent per-item stream from (base, index) — or drain
// pool pairs, which are pure functions of (pool seed, index). Work is
// assigned to indices, never to threads.

// Derives the seed of item `i`'s randomness stream from a per-batch base
// draw (splitmix64 finalizer over a golden-ratio index stride).
inline uint64_t DeriveStreamSeed(uint64_t base, uint64_t i) {
  uint64_t z = base + 0x9e3779b97f4a7c15ULL * (i + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

// Offline pool of Paillier encryption-randomness pairs. Thread-safe; one
// instance per party context. Pair `i` is a pure function of (seed, i),
// so a drain never depends on how far the asynchronous prefill got, and a
// checkpoint can rewind the pool by restoring `next_index`.
class EncRandomnessPool {
 public:
  struct Pair {
    BigInt r;   // unit in Z*_n
    BigInt rn;  // r^n mod n^2 (the expensive, message-independent part)
  };

  EncRandomnessPool(const PaillierPublicKey& pk, uint64_t seed);
  ~EncRandomnessPool();

  EncRandomnessPool(const EncRandomnessPool&) = delete;
  EncRandomnessPool& operator=(const EncRandomnessPool&) = delete;

  // Pure derivation of pair `index`; used by both the prefill tasks and
  // the on-demand fallback path.
  Pair ComputePair(uint64_t index) const;

  // Drains `count` consecutive pairs starting at next_index (advancing
  // it). Precomputed pairs count as hits, the rest are computed on demand
  // over at most `threads` ParallelFor chunks and count as misses
  // (OpCounters enc_pool_hits / enc_pool_misses).
  std::vector<Pair> Drain(size_t count, int threads = 1);

  // Schedules precomputation of up to `count` pairs ahead of next_index
  // on `pool` threads. Cheap to call repeatedly; already-scheduled or
  // already-cached indices are not recomputed.
  void PrefillAsync(ThreadPool& pool, size_t count);

  // Synchronous variant: computes up to `count` pairs ahead of next_index
  // on the calling thread before returning. This is the offline phase of
  // a serving session — warm the pool before traffic arrives so online
  // encrypts/rerandomizes are pool hits even with crypto_threads == 1.
  void Prefill(size_t count);

  // Stream position, checkpointed alongside the other randomness streams
  // (PartyContext::RandomnessState).
  uint64_t next_index() const;
  void SetNextIndex(uint64_t index);

 private:
  const PaillierPublicKey pk_;
  const uint64_t seed_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t next_index_ = 0;     // next pair the online phase will drain
  uint64_t prefill_next_ = 0;   // first index not yet scheduled
  int inflight_tasks_ = 0;
  std::map<uint64_t, Pair> ready_;
};

// Montgomery-domain view of a ciphertext vector reused across many
// homomorphic dot products / scalar multiplications. With
// `window_tables`, a 16-entry fixed-base table per ciphertext also
// amortizes the exponentiation table build across repeated general
// (non-0/1) scalars. All results are bit-identical to the plain
// PaillierPublicKey operations.
class PreparedCiphertexts {
 public:
  PreparedCiphertexts(const PaillierPublicKey& pk,
                      const std::vector<Ciphertext>& cts,
                      bool window_tables = false);

  size_t size() const { return mont_.size(); }

  // Equivalent to pk.DotProduct(plain, cts).
  Ciphertext DotProduct(const std::vector<BigInt>& plain) const;
  // Dot products against many plaintext vectors (out[i] = DotProduct
  // (plains[i])), fanned out across `threads` on the shared pool. The
  // serving shape: one prepared selector/label vector hit by every
  // sample of a batch. Results are independent of `threads`.
  Result<std::vector<Ciphertext>> DotProductMany(
      const std::vector<std::vector<BigInt>>& plains, int threads) const;
  // Dot product against a 0/1 indicator vector (`complement` selects
  // 1 - ind[t]), the dominant shape in split-statistics computation.
  Ciphertext DotIndicator(const std::vector<uint8_t>& ind,
                          bool complement) const;
  // Equivalent to pk.ScalarMul(k, cts[i]).
  Ciphertext ScalarMul(size_t i, const BigInt& k) const;

 private:
  const PaillierPublicKey* pk_;
  std::vector<BigInt> mont_;  // Montgomery form of each ciphertext value
  // window_tables only: [i][j] = Montgomery form of cts[i]^j, j in [0,16).
  std::vector<std::vector<BigInt>> tables_;
};

// ----- Batch kernels -------------------------------------------------------
// `threads` caps the per-call fan-out on the shared pool; <= 1 runs
// sequentially on the caller. Results are independent of `threads`.

// Encrypts plains[i] with randomness from a per-item derived stream
// (draws one u64 from `rng`) or from `pool` (drains plains.size() pairs).
Result<std::vector<Ciphertext>> EncryptBatch(const PaillierPublicKey& pk,
                                             const std::vector<BigInt>& plains,
                                             Rng& rng, int threads);
Result<std::vector<Ciphertext>> EncryptBatch(const PaillierPublicKey& pk,
                                             const std::vector<BigInt>& plains,
                                             EncRandomnessPool& pool,
                                             int threads);

// Rerandomizes cts[i] (multiplies by a fresh encryption of zero).
Result<std::vector<Ciphertext>> RerandomizeBatch(
    const PaillierPublicKey& pk, const std::vector<Ciphertext>& cts, Rng& rng,
    int threads);
Result<std::vector<Ciphertext>> RerandomizeBatch(
    const PaillierPublicKey& pk, const std::vector<Ciphertext>& cts,
    EncRandomnessPool& pool, int threads);

// out[i] = ScalarMul(scalars[i], cts[i]). REQUIRES: equal sizes.
Result<std::vector<Ciphertext>> ScalarMulBatch(
    const PaillierPublicKey& pk, const std::vector<BigInt>& scalars,
    const std::vector<Ciphertext>& cts, int threads);

// out[i] = cts[i]^{d_share} mod n^2 (one party's partial decryptions).
Result<std::vector<BigInt>> PartialDecryptBatch(
    const PaillierPublicKey& pk, const PartialKey& key,
    const std::vector<Ciphertext>& cts, int threads);

// Combines per-party partial-decryption vectors (partials[party][i]) into
// plaintexts. Mirrors CombinePartialDecryptions per index, with the
// m-way product folded in the Montgomery domain.
Result<std::vector<BigInt>> CombinePartialDecryptionsBatch(
    const PaillierPublicKey& pk,
    const std::vector<std::vector<BigInt>>& partials, int expected_parties,
    int threads);

// Homomorphic sum of a ciphertext vector, folded in the Montgomery
// domain (one conversion out instead of one per element).
Ciphertext SumCiphertexts(const PaillierPublicKey& pk,
                          const std::vector<Ciphertext>& cts);

}  // namespace pivot

#endif  // PIVOT_CRYPTO_PAILLIER_BATCH_H_
