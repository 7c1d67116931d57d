#include "crypto/paillier_batch.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/check.h"
#include "common/op_counters.h"

namespace pivot {

namespace {

constexpr auto kIdlePoll = std::chrono::milliseconds(100);
// Pairs precomputed per prefill task: large enough to amortize queue
// traffic, small enough that several workers share one prefill request.
constexpr uint64_t kPrefillChunk = 16;

// g^m with g = n + 1: the cheap half of an encryption.
BigInt GPow(const PaillierPublicKey& pk, const BigInt& m) {
  return (BigInt(1) + m.Mod(pk.n()) * pk.n()).Mod(pk.n_squared());
}

}  // namespace

// ----- EncRandomnessPool ---------------------------------------------------

EncRandomnessPool::EncRandomnessPool(const PaillierPublicKey& pk,
                                     uint64_t seed)
    : pk_(pk), seed_(seed) {
  PIVOT_CHECK_MSG(pk_.valid(), "EncRandomnessPool requires a valid key");
}

EncRandomnessPool::~EncRandomnessPool() {
  // Prefill tasks capture `this`; wait for them before the members die.
  std::unique_lock<std::mutex> lock(mu_);
  while (inflight_tasks_ > 0) {
    cv_.wait_for(lock, kIdlePoll);
  }
}

EncRandomnessPool::Pair EncRandomnessPool::ComputePair(uint64_t index) const {
  Rng rng(DeriveStreamSeed(seed_, index));
  Result<BigInt> r = pk_.SampleUnit(rng);
  PIVOT_CHECK_MSG(r.ok(), "randomness pool sampling failed");
  Pair p;
  p.r = r.value();
  p.rn = pk_.PowModN2(p.r, pk_.n());
  return p;
}

std::vector<EncRandomnessPool::Pair> EncRandomnessPool::Drain(size_t count,
                                                             int threads) {
  uint64_t start;
  std::vector<Pair> out(count);
  std::vector<size_t> misses;
  {
    std::lock_guard<std::mutex> lock(mu_);
    start = next_index_;
    next_index_ += count;
    for (size_t i = 0; i < count; ++i) {
      auto it = ready_.find(start + i);
      if (it != ready_.end()) {
        out[i] = std::move(it->second);
        ready_.erase(it);
      } else {
        misses.push_back(i);
      }
    }
  }
  // Same pure derivation the prefill would have used, so the drained
  // value is independent of prefill progress; the misses fan out like the
  // batch they feed instead of running serially ahead of it.
  const Status st = ThreadPool::Global().ParallelFor(
      misses.size(), threads, [&](size_t k) -> Status {
        out[misses[k]] = ComputePair(start + misses[k]);
        return Status::Ok();
      });
  PIVOT_CHECK_MSG(st.ok(), "randomness pool sampling failed");
  if (misses.size() < count) {
    OpCounters::Global().AddEncPoolHit(count - misses.size());
  }
  if (!misses.empty()) OpCounters::Global().AddEncPoolMiss(misses.size());
  return out;
}

void EncRandomnessPool::PrefillAsync(ThreadPool& pool, size_t count) {
  std::vector<std::pair<uint64_t, uint64_t>> ranges;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Pairs behind the drain cursor can never be consumed; skip them.
    if (prefill_next_ < next_index_) prefill_next_ = next_index_;
    const uint64_t target = next_index_ + count;
    while (prefill_next_ < target) {
      const uint64_t end = std::min(prefill_next_ + kPrefillChunk, target);
      ranges.emplace_back(prefill_next_, end);
      prefill_next_ = end;
      ++inflight_tasks_;
    }
  }
  for (const auto& [begin, end] : ranges) {
    pool.Post([this, begin, end]() -> Status {
      // A task that waited behind online work may find its pairs already
      // drained (as misses); skip those instead of computing dead weight.
      uint64_t first;
      {
        std::lock_guard<std::mutex> lock(mu_);
        first = std::clamp(next_index_, begin, end);
      }
      std::vector<Pair> pairs;
      pairs.reserve(end - first);
      for (uint64_t i = first; i < end; ++i) {
        pairs.push_back(ComputePair(i));
      }
      // Notify while holding the lock: once a waiter (the destructor) can
      // observe inflight_tasks_ == 0 it may destroy the pool, so this task
      // must be completely done with `this` before releasing mu_.
      std::lock_guard<std::mutex> lock(mu_);
      for (uint64_t i = first; i < end; ++i) {
        // A pair the online phase already drained (as a miss) is dead
        // weight; only stash those still ahead of the cursor.
        if (i >= next_index_) ready_.emplace(i, std::move(pairs[i - first]));
      }
      --inflight_tasks_;
      cv_.notify_all();
      return Status::Ok();
    });
  }
}

void EncRandomnessPool::Prefill(size_t count) {
  uint64_t begin, end;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (prefill_next_ < next_index_) prefill_next_ = next_index_;
    const uint64_t target = next_index_ + count;
    if (prefill_next_ >= target) return;  // already cached or scheduled
    begin = prefill_next_;
    end = target;
    prefill_next_ = end;
  }
  // Same pure (seed, index) derivation as the async path, so interleaving
  // synchronous and asynchronous prefills never changes a drained value.
  std::vector<Pair> pairs;
  pairs.reserve(end - begin);
  for (uint64_t i = begin; i < end; ++i) pairs.push_back(ComputePair(i));
  std::lock_guard<std::mutex> lock(mu_);
  for (uint64_t i = begin; i < end; ++i) {
    if (i >= next_index_) ready_.emplace(i, std::move(pairs[i - begin]));
  }
}

uint64_t EncRandomnessPool::next_index() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_index_;
}

void EncRandomnessPool::SetNextIndex(uint64_t index) {
  std::lock_guard<std::mutex> lock(mu_);
  next_index_ = index;
  // Cached pairs stay valid (they are position-indexed, not queue-ordered);
  // anything behind the restored cursor is garbage-collected lazily by
  // PrefillAsync/Drain.
}

// ----- PreparedCiphertexts -------------------------------------------------

PreparedCiphertexts::PreparedCiphertexts(const PaillierPublicKey& pk,
                                         const std::vector<Ciphertext>& cts,
                                         bool window_tables)
    : pk_(&pk) {
  const MontgomeryContext& mont = pk.mont_n2();
  mont_.reserve(cts.size());
  for (const Ciphertext& c : cts) {
    mont_.push_back(mont.ToMontgomery(c.value));
  }
  if (window_tables) {
    tables_.resize(mont_.size());
    for (size_t i = 0; i < mont_.size(); ++i) {
      tables_[i].resize(16);
      mont.BuildWindowTable(mont_[i], tables_[i].data());
    }
  }
}

Ciphertext PreparedCiphertexts::DotProduct(
    const std::vector<BigInt>& plain) const {
  PIVOT_CHECK_MSG(plain.size() == mont_.size(), "dot product size mismatch");
  const MontgomeryContext& mont = pk_->mont_n2();
  BigInt acc = mont.MontOne();
  uint64_t ops = 0;
  for (size_t i = 0; i < plain.size(); ++i) {
    const BigInt k = plain[i].Mod(pk_->n());
    if (k.IsZero()) continue;
    if (k.IsOne()) {
      acc = mont.MontMul(acc, mont_[i]);
      ops += 1;
    } else {
      acc = mont.MontMul(acc, tables_.empty()
                                  ? mont.MontExp(mont_[i], k)
                                  : mont.MontExpWithTable(tables_[i].data(), k));
      ops += 2;
    }
  }
  OpCounters::Global().AddCiphertextOp(ops);
  return Ciphertext{mont.FromMontgomery(acc)};
}

Result<std::vector<Ciphertext>> PreparedCiphertexts::DotProductMany(
    const std::vector<std::vector<BigInt>>& plains, int threads) const {
  OpCounters::Global().AddBatchCall();
  std::vector<Ciphertext> out(plains.size());
  if (plains.empty()) return out;
  PIVOT_RETURN_IF_ERROR(ThreadPool::Global().ParallelFor(
      plains.size(), threads, [&](size_t i) -> Status {
        out[i] = DotProduct(plains[i]);
        return Status::Ok();
      }));
  return out;
}

Ciphertext PreparedCiphertexts::DotIndicator(const std::vector<uint8_t>& ind,
                                             bool complement) const {
  PIVOT_CHECK_MSG(ind.size() == mont_.size(), "indicator size mismatch");
  const MontgomeryContext& mont = pk_->mont_n2();
  BigInt acc = mont.MontOne();
  uint64_t ops = 0;
  for (size_t i = 0; i < ind.size(); ++i) {
    const bool selected = complement ? (ind[i] == 0) : (ind[i] != 0);
    if (!selected) continue;
    acc = mont.MontMul(acc, mont_[i]);
    ops += 1;
  }
  OpCounters::Global().AddCiphertextOp(ops);
  return Ciphertext{mont.FromMontgomery(acc)};
}

Ciphertext PreparedCiphertexts::ScalarMul(size_t i, const BigInt& k) const {
  OpCounters::Global().AddCiphertextOp();
  const MontgomeryContext& mont = pk_->mont_n2();
  const BigInt k_red = k.Mod(pk_->n());
  if (k_red.IsZero()) return pk_->One();
  if (k_red.IsOne()) return Ciphertext{mont.FromMontgomery(mont_[i])};
  return Ciphertext{mont.FromMontgomery(
      tables_.empty() ? mont.MontExp(mont_[i], k_red)
                      : mont.MontExpWithTable(tables_[i].data(), k_red))};
}

// ----- Batch kernels -------------------------------------------------------

Result<std::vector<Ciphertext>> EncryptBatch(const PaillierPublicKey& pk,
                                             const std::vector<BigInt>& plains,
                                             Rng& rng, int threads) {
  OpCounters::Global().AddBatchCall();
  std::vector<Ciphertext> out(plains.size());
  if (plains.empty()) return out;
  const uint64_t base = rng.NextU64();
  PIVOT_RETURN_IF_ERROR(ThreadPool::Global().ParallelFor(
      plains.size(), threads, [&](size_t i) -> Status {
        Rng item_rng(DeriveStreamSeed(base, i));
        PIVOT_ASSIGN_OR_RETURN(BigInt r, pk.SampleUnit(item_rng));
        out[i] = pk.EncryptWithRandomness(plains[i], r);
        return Status::Ok();
      }));
  return out;
}

Result<std::vector<Ciphertext>> EncryptBatch(const PaillierPublicKey& pk,
                                             const std::vector<BigInt>& plains,
                                             EncRandomnessPool& pool,
                                             int threads) {
  OpCounters::Global().AddBatchCall();
  std::vector<Ciphertext> out(plains.size());
  if (plains.empty()) return out;
  const std::vector<EncRandomnessPool::Pair> pairs =
      pool.Drain(plains.size(), threads);
  PIVOT_RETURN_IF_ERROR(ThreadPool::Global().ParallelFor(
      plains.size(), threads, [&](size_t i) -> Status {
        // Same value EncryptWithRandomness(plains[i], pairs[i].r) would
        // produce, with the r^n exponentiation taken from the pool.
        OpCounters::Global().AddCiphertextOp();
        out[i] = Ciphertext{pk.MulModN2(GPow(pk, plains[i]), pairs[i].rn)};
        return Status::Ok();
      }));
  return out;
}

Result<std::vector<Ciphertext>> RerandomizeBatch(
    const PaillierPublicKey& pk, const std::vector<Ciphertext>& cts, Rng& rng,
    int threads) {
  OpCounters::Global().AddBatchCall();
  std::vector<Ciphertext> out(cts.size());
  if (cts.empty()) return out;
  const uint64_t base = rng.NextU64();
  PIVOT_RETURN_IF_ERROR(ThreadPool::Global().ParallelFor(
      cts.size(), threads, [&](size_t i) -> Status {
        Rng item_rng(DeriveStreamSeed(base, i));
        PIVOT_ASSIGN_OR_RETURN(BigInt r, pk.SampleUnit(item_rng));
        OpCounters::Global().AddCiphertextOp();
        out[i] = Ciphertext{pk.MulModN2(cts[i].value, pk.PowModN2(r, pk.n()))};
        return Status::Ok();
      }));
  return out;
}

Result<std::vector<Ciphertext>> RerandomizeBatch(
    const PaillierPublicKey& pk, const std::vector<Ciphertext>& cts,
    EncRandomnessPool& pool, int threads) {
  OpCounters::Global().AddBatchCall();
  std::vector<Ciphertext> out(cts.size());
  if (cts.empty()) return out;
  const std::vector<EncRandomnessPool::Pair> pairs =
      pool.Drain(cts.size(), threads);
  PIVOT_RETURN_IF_ERROR(ThreadPool::Global().ParallelFor(
      cts.size(), threads, [&](size_t i) -> Status {
        OpCounters::Global().AddCiphertextOp();
        out[i] = Ciphertext{pk.MulModN2(cts[i].value, pairs[i].rn)};
        return Status::Ok();
      }));
  return out;
}

Result<std::vector<Ciphertext>> ScalarMulBatch(
    const PaillierPublicKey& pk, const std::vector<BigInt>& scalars,
    const std::vector<Ciphertext>& cts, int threads) {
  if (scalars.size() != cts.size()) {
    return Status::InvalidArgument("ScalarMulBatch size mismatch");
  }
  OpCounters::Global().AddBatchCall();
  std::vector<Ciphertext> out(cts.size());
  PIVOT_RETURN_IF_ERROR(ThreadPool::Global().ParallelFor(
      cts.size(), threads, [&](size_t i) -> Status {
        out[i] = pk.ScalarMul(scalars[i], cts[i]);
        return Status::Ok();
      }));
  return out;
}

Result<std::vector<BigInt>> PartialDecryptBatch(
    const PaillierPublicKey& pk, const PartialKey& key,
    const std::vector<Ciphertext>& cts, int threads) {
  OpCounters::Global().AddBatchCall();
  std::vector<BigInt> out(cts.size());
  // pivot-taint: allow(variable-time-call) the ladder length depends only
  // on bitlen(d_share), fixed at key generation — not on per-message data.
  PIVOT_RETURN_IF_ERROR(ThreadPool::Global().ParallelFor(
      cts.size(), threads, [&](size_t i) -> Status {
        out[i] = pk.PowModN2(cts[i].value, key.d_share);
        return Status::Ok();
      }));
  return out;
}

Result<std::vector<BigInt>> CombinePartialDecryptionsBatch(
    const PaillierPublicKey& pk,
    const std::vector<std::vector<BigInt>>& partials, int expected_parties,
    int threads) {
  if (static_cast<int>(partials.size()) != expected_parties ||
      expected_parties < 1) {
    return Status::ProtocolError("threshold decryption requires all parties");
  }
  const size_t count = partials[0].size();
  for (const std::vector<BigInt>& p : partials) {
    if (p.size() != count) {
      return Status::ProtocolError("partial decryption vectors disagree");
    }
  }
  OpCounters::Global().AddBatchCall();
  std::vector<BigInt> out(count);
  const MontgomeryContext& mont = pk.mont_n2();
  PIVOT_RETURN_IF_ERROR(ThreadPool::Global().ParallelFor(
      count, threads, [&](size_t i) -> Status {
        OpCounters::Global().AddThresholdDecryption();
        // u = prod_j partials[j][i], folded in the Montgomery domain.
        BigInt acc = mont.MontOne();
        for (const std::vector<BigInt>& p : partials) {
          acc = mont.MontMul(acc, mont.ToMontgomery(p[i]));
        }
        const BigInt u = mont.FromMontgomery(acc);
        PIVOT_ASSIGN_OR_RETURN(BigInt x, PaillierL(u, pk.n()));
        if (x >= pk.n() || x.IsNegative()) {
          return Status::IntegrityError("combined decryption out of range");
        }
        out[i] = std::move(x);
        return Status::Ok();
      }));
  return out;
}

Ciphertext SumCiphertexts(const PaillierPublicKey& pk,
                          const std::vector<Ciphertext>& cts) {
  if (cts.empty()) return pk.One();
  const MontgomeryContext& mont = pk.mont_n2();
  BigInt acc = mont.ToMontgomery(cts[0].value);
  for (size_t i = 1; i < cts.size(); ++i) {
    acc = mont.MontMul(acc, mont.ToMontgomery(cts[i].value));
  }
  OpCounters::Global().AddCiphertextOp(cts.size() - 1);
  return Ciphertext{mont.FromMontgomery(acc)};
}

}  // namespace pivot
