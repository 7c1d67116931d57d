#include "pivot/context.h"

#include "common/check.h"
#include "common/fixed_point.h"
#include "common/thread_pool.h"
#include "net/codec.h"
#include "tree/splits.h"

namespace pivot {

namespace {
// Upper bound on a share-conversion batch communicated over the wire.
// The header is the one length field not implicitly validated by the
// codec's payload-length checks, so a corrupted or desynchronized value
// could otherwise drive huge allocations and per-element encryptions.
constexpr uint64_t kMaxConversionBatch = uint64_t{1} << 20;
// Seed of the simulated offline phase (see mpc/preprocessing.h); every
// party derives the same dealer stream from it.
constexpr uint64_t kPrepSeed = 0xC0FFEE;
}  // namespace

Status EncodeBatchHeader(uint64_t batch, ByteWriter& w) {
  if (batch > kMaxConversionBatch) {
    return Status::InvalidArgument("conversion batch too large");
  }
  // Redundant encoding: value + complement. A single flipped bit (or a
  // message of the wrong type consumed as a header) fails the check
  // instead of being trusted as a length.
  w.WriteU64(batch);
  w.WriteU64(~batch);
  return Status::Ok();
}

Result<uint64_t> DecodeBatchHeader(const Bytes& msg) {
  ByteReader r(msg);
  PIVOT_ASSIGN_OR_RETURN(uint64_t b, r.ReadU64());
  PIVOT_ASSIGN_OR_RETURN(uint64_t check, r.ReadU64());
  if (msg.size() != 16 || check != ~b || b > kMaxConversionBatch) {
    return Status::ProtocolError(
        "conversion batch header corrupt or implausible");
  }
  return b;
}

PartyContext::PartyContext(int party_id, int super_client_id,
                           Endpoint* endpoint, const PaillierPublicKey& pk,
                           PartialKey partial_key, VerticalView view,
                           std::vector<double> labels,
                           const PivotParams& params)
    : endpoint_(endpoint),
      super_client_id_(super_client_id),
      pk_(pk),
      partial_key_(std::move(partial_key)),
      view_(std::move(view)),
      labels_(std::move(labels)),
      params_(params),
      crypto_threads_(params.crypto_threads > 0 ? params.crypto_threads
                                                : AvailableCpus()),
      rng_(params.run_seed * 1000003 + party_id) {
  PIVOT_CHECK(endpoint_->id() == party_id);
  PIVOT_CHECK_MSG(ValidateCryptoThreads(params.crypto_threads).ok(),
                  "crypto_threads out of range");
  // The pool's stream is independent of rng_ (distinct domain constant);
  // its cursor is checkpointed via RandomnessState.
  enc_pool_ = std::make_unique<EncRandomnessPool>(
      pk_, DeriveStreamSeed(params.run_seed ^ 0x454E4352u /* "ENCR" */,
                            static_cast<uint64_t>(party_id)));
  prep_ = std::make_unique<Preprocessing>(party_id, endpoint_->num_parties(),
                                          kPrepSeed);
  engine_ = std::make_unique<MpcEngine>(endpoint_, prep_.get(),
                                        params.run_seed ^ 0xABCD);

  // Candidate thresholds and left-branch indicator vectors for every local
  // feature, fixed once from the full columns (Section 4.1: v_l / v_r).
  const size_t n = view_.features.size();
  const size_t d_local = view_.num_features();
  split_candidates_.resize(d_local);
  left_indicators_.resize(d_local);
  for (size_t j = 0; j < d_local; ++j) {
    std::vector<double> column(n);
    for (size_t t = 0; t < n; ++t) column[t] = view_.features[t][j];
    split_candidates_[j] =
        ComputeSplitCandidates(column, params.tree.max_splits);
    left_indicators_[j].resize(split_candidates_[j].size());
    for (size_t s = 0; s < split_candidates_[j].size(); ++s) {
      left_indicators_[j][s].resize(n);
      for (size_t t = 0; t < n; ++t) {
        left_indicators_[j][s][t] = column[t] <= split_candidates_[j][s];
      }
    }
  }
}

Status PartyContext::BroadcastCiphertexts(const std::vector<Ciphertext>& cts) {
  return endpoint_->Broadcast(EncodeCiphertextVector(cts));
}

Result<std::vector<Ciphertext>> PartyContext::RecvCiphertexts(int from) {
  PIVOT_ASSIGN_OR_RETURN(Bytes msg, endpoint_->Recv(from));
  return DecodeCiphertextVector(msg);
}

Result<std::vector<BigInt>> PartyContext::JointDecrypt(
    const std::vector<Ciphertext>& cts, int holder) {
  const int m = num_parties();
  // 1. Holder broadcasts the ciphertexts.
  std::vector<Ciphertext> work = cts;
  if (m > 1) {
    if (id() == holder) {
      PIVOT_RETURN_IF_ERROR(BroadcastCiphertexts(cts));
    } else {
      PIVOT_ASSIGN_OR_RETURN(work, RecvCiphertexts(holder));
    }
  }
  // 2. Every party computes partial decryptions; non-holders send theirs
  //    to the holder. Partial decryptions of a batch are independent, so
  //    they fan out across crypto_threads on the shared pool (the
  //    paper's "-PP" variants).
  PIVOT_ASSIGN_OR_RETURN(
      std::vector<BigInt> partials,
      PartialDecryptBatch(pk_, partial_key_, work, crypto_threads()));
  if (id() != holder) {
    // pivot-taint: allow(raw-send) partial decryptions are the messages
    // threshold decryption publishes by design; any t-1 of them reveal
    // nothing about the plaintext or the key share.
    PIVOT_RETURN_IF_ERROR(
        endpoint_->Send(holder, EncodeBigIntVector(partials)));
    // 4. Receive combined plaintexts.
    PIVOT_ASSIGN_OR_RETURN(Bytes msg, endpoint_->Recv(holder));
    return DecodeBigIntVector(msg);
  }
  // 3. Holder combines all partials.
  std::vector<std::vector<BigInt>> all(m);
  all[holder] = std::move(partials);
  for (int p = 0; p < m; ++p) {
    if (p == holder) continue;
    PIVOT_ASSIGN_OR_RETURN(Bytes msg, endpoint_->Recv(p));
    PIVOT_ASSIGN_OR_RETURN(all[p], DecodeBigIntVector(msg));
    if (all[p].size() != work.size()) {
      return Status::ProtocolError("partial decryption count mismatch");
    }
  }
  PIVOT_ASSIGN_OR_RETURN(
      std::vector<BigInt> plain,
      CombinePartialDecryptionsBatch(pk_, all, m, crypto_threads()));
  if (m > 1) {
    PIVOT_RETURN_IF_ERROR(endpoint_->Broadcast(EncodeBigIntVector(plain)));
  }
  return plain;
}

Result<std::vector<u128>> PartyContext::CiphertextsToShares(
    const std::vector<Ciphertext>& cts, int holder) {
  const int m = num_parties();
  const size_t count = id() == holder ? cts.size() : 0;

  // Every party samples masks r_i in Z_p and sends their encryptions to
  // the holder (Algorithm 2, lines 1-3). Non-holders learn the batch size
  // from the holder first.
  size_t batch = count;
  if (m > 1) {
    if (id() == holder) {
      ByteWriter w;
      PIVOT_RETURN_IF_ERROR(EncodeBatchHeader(batch, w));
      PIVOT_RETURN_IF_ERROR(endpoint_->Broadcast(w.Take()));
    } else {
      PIVOT_ASSIGN_OR_RETURN(Bytes msg, endpoint_->Recv(holder));
      PIVOT_ASSIGN_OR_RETURN(uint64_t b, DecodeBatchHeader(msg));
      batch = b;
    }
  }

  std::vector<u128> masks(batch);
  for (u128& v : masks) v = FpRandom(rng_);

  std::vector<BigInt> mask_plain;
  mask_plain.reserve(batch);
  for (u128 v : masks) mask_plain.push_back(FpToBigInt(v));
  PIVOT_ASSIGN_OR_RETURN(std::vector<Ciphertext> my_encrypted,
                         EncryptBatch(mask_plain));

  std::vector<Ciphertext> masked;
  if (id() == holder) {
    masked = cts;
    for (size_t i = 0; i < batch; ++i) {
      masked[i] = pk_.Add(masked[i], my_encrypted[i]);
    }
    for (int p = 0; p < m; ++p) {
      if (p == id()) continue;
      PIVOT_ASSIGN_OR_RETURN(std::vector<Ciphertext> theirs,
                             RecvCiphertexts(p));
      if (theirs.size() != batch) {
        return Status::ProtocolError("mask vector size mismatch");
      }
      for (size_t i = 0; i < batch; ++i) {
        masked[i] = pk_.Add(masked[i], theirs[i]);
      }
    }
  } else {
    PIVOT_RETURN_IF_ERROR(
        endpoint_->Send(holder, EncodeCiphertextVector(my_encrypted)));
  }

  // Joint decryption of e = x + sum_i r_i (over the integers: plaintext
  // headroom is checked at keygen).
  PIVOT_ASSIGN_OR_RETURN(std::vector<BigInt> opened,
                         JointDecrypt(masked, holder));
  if (opened.size() != batch) {
    return Status::ProtocolError("conversion batch size mismatch");
  }

  // Shares: holder takes e - r_holder, everyone else -r_i (lines 6-8).
  std::vector<u128> shares(batch);
  for (size_t i = 0; i < batch; ++i) {
    if (id() == holder) {
      shares[i] = FpSub(FpFromBigInt(opened[i]), masks[i]);
    } else {
      shares[i] = FpNeg(masks[i]);
    }
  }
  return shares;
}

Result<std::vector<Ciphertext>> PartyContext::SharesToCiphertexts(
    const std::vector<u128>& shares) {
  std::vector<BigInt> plain;
  plain.reserve(shares.size());
  for (u128 s : shares) plain.push_back(FpToBigInt(s));
  PIVOT_ASSIGN_OR_RETURN(std::vector<Ciphertext> mine, EncryptBatch(plain));

  if (num_parties() == 1) return mine;

  PIVOT_RETURN_IF_ERROR(BroadcastCiphertexts(mine));
  std::vector<Ciphertext> sum = std::move(mine);
  for (int p = 0; p < num_parties(); ++p) {
    if (p == id()) continue;
    PIVOT_ASSIGN_OR_RETURN(std::vector<Ciphertext> theirs, RecvCiphertexts(p));
    if (theirs.size() != sum.size()) {
      return Status::ProtocolError("share ciphertext count mismatch");
    }
    for (size_t i = 0; i < sum.size(); ++i) {
      sum[i] = pk_.Add(sum[i], theirs[i]);
    }
  }
  return sum;
}

void PartyContext::PrewarmEncPool(uint64_t pairs) {
  enc_pool_->Prefill(pairs);
  enc_pool_prewarmed_ = true;
}

Result<std::vector<Ciphertext>> PartyContext::EncryptBatch(
    const std::vector<BigInt>& plains) {
  // Refill ahead of the drain so the next similarly-sized batch finds its
  // (r, r^n) pairs precomputed; with a single crypto thread there is no
  // idle worker to overlap with, so skip the queue traffic.
  if (crypto_threads() > 1 && !enc_pool_prewarmed_) {
    enc_pool_->PrefillAsync(ThreadPool::Global(), 2 * plains.size());
  }
  return pivot::EncryptBatch(pk_, plains, *enc_pool_, crypto_threads());
}

Result<std::vector<Ciphertext>> PartyContext::RerandomizeBatch(
    const std::vector<Ciphertext>& cts) {
  if (crypto_threads() > 1 && !enc_pool_prewarmed_) {
    enc_pool_->PrefillAsync(ThreadPool::Global(), 2 * cts.size());
  }
  return pivot::RerandomizeBatch(pk_, cts, *enc_pool_, crypto_threads());
}

i128 PartyContext::PlaintextToSigned(const BigInt& plain) const {
  return FpToSigned(FpFromBigInt(plain));
}

double PartyContext::PlaintextToDouble(const BigInt& plain) const {
  return FixedToDouble(static_cast<int64_t>(PlaintextToSigned(plain)));
}

}  // namespace pivot
