#ifndef PIVOT_PIVOT_CONTEXT_H_
#define PIVOT_PIVOT_CONTEXT_H_

#include <memory>
#include <vector>

#include "crypto/paillier_batch.h"
#include "crypto/threshold_paillier.h"
#include "data/dataset.h"
#include "mpc/engine.h"
#include "net/codec.h"
#include "net/network.h"
#include "pivot/params.h"

namespace pivot {

class CheckpointStore;

// Batch-size agreement header for the share-conversion protocols. The
// value is redundantly encoded (u64 + bitwise complement) and capped, so
// a corrupted or desynchronized header is rejected instead of being
// trusted as a length that drives allocations and encryptions.
[[nodiscard]] Status EncodeBatchHeader(uint64_t batch, ByteWriter& w);
Result<uint64_t> DecodeBatchHeader(const Bytes& msg);

// Per-party state for one Pivot protocol run, bundling the party's network
// endpoint, its TPHE key material, its local vertical data view, and its
// MPC engine — plus the two bridges that make the paper's hybrid
// TPHE/MPC framework work:
//
//   CiphertextsToShares  — Algorithm 2 (ciphertext -> additive shares)
//   SharesToCiphertexts  — the reverse conversion used by the enhanced
//                          protocol (Section 5.2)
//
// All interactive methods are SPMD: every party calls them at the same
// point in the protocol with its own arguments.
class PartyContext {
 public:
  PartyContext(int party_id, int super_client_id, Endpoint* endpoint,
               const PaillierPublicKey& pk, PartialKey partial_key,
               VerticalView view, std::vector<double> labels,
               const PivotParams& params);

  int id() const { return endpoint_->id(); }
  int num_parties() const { return endpoint_->num_parties(); }
  int super_client() const { return super_client_id_; }
  bool is_super() const { return id() == super_client_id_; }

  Endpoint& endpoint() { return *endpoint_; }
  MpcEngine& engine() { return *engine_; }
  Preprocessing& prep() { return *prep_; }
  const PaillierPublicKey& pk() const { return pk_; }
  const PivotParams& params() const { return params_; }
  const VerticalView& view() const { return view_; }
  // Labels; non-empty only on the super client.
  const std::vector<double>& labels() const { return labels_; }
  Rng& rng() { return rng_; }

  // Per-call fan-out cap for the batched crypto kernels (shared pool, see
  // common/thread_pool.h): params().crypto_threads, or AvailableCpus()
  // when that is 0 (auto). Results are bit-identical for every value.
  int crypto_threads() const { return crypto_threads_; }
  // Offline phase of a serving session: computes `pairs` (r, r^n) pairs
  // of this party's encryption-randomness pool (pairs are pure functions
  // of the pool seed, so the cursor in RandomnessState checkpoints them)
  // on the calling thread. The pool is then sized to the session, so the
  // batch calls below stop their rolling asynchronous refill: it would
  // only compute pairs past the last one the session draws, on the
  // workers its batches need.
  void PrewarmEncPool(uint64_t pairs);

  // Encrypts a batch with randomness drained from the offline pool,
  // fanning out across crypto_threads(); schedules an asynchronous refill
  // for the next batch when more than one thread is configured and the
  // pool was not pre-warmed.
  Result<std::vector<Ciphertext>> EncryptBatch(
      const std::vector<BigInt>& plains);
  // Batched Rerandomize, drawing encryption randomness from the pool.
  Result<std::vector<Ciphertext>> RerandomizeBatch(
      const std::vector<Ciphertext>& cts);

  // Optional per-party checkpoint store (pivot/checkpoint.h). When set,
  // the trainer snapshots its state after every completed node and can
  // resume from the latest snapshot after a restart. Not owned.
  void set_checkpoint(CheckpointStore* store) { checkpoint_ = store; }
  CheckpointStore* checkpoint() const { return checkpoint_; }
  // Monotonic per-Train counter (SPMD-identical across parties): each
  // tree trained on this context gets its own checkpoint epoch, so a
  // restarted ensemble re-runs finished trees without disturbing the
  // crashed tree's snapshots.
  uint64_t BumpTrainEpoch() { return ++train_epoch_; }

  // Every randomness stream a training run draws from, captured together
  // so a checkpoint can rewind all of them to one exact position: the
  // context rng (masks and residual Paillier randomness), the MPC
  // engine's masking rng + round counter, the preprocessing dealer
  // stream, and the offline encryption-randomness pool cursor.
  struct RandomnessState {
    RngState rng;
    MpcEngine::EngineState engine;
    Preprocessing::PrepState prep;
    uint64_t enc_pool_next = 0;
  };
  RandomnessState SaveRandomnessState() const {
    return RandomnessState{rng_.SaveState(), engine_->SaveState(),
                           prep_->SaveState(), enc_pool_->next_index()};
  }
  void RestoreRandomnessState(const RandomnessState& state) {
    rng_.RestoreState(state.rng);
    engine_->RestoreState(state.engine);
    prep_->RestoreState(state.prep);
    enc_pool_->SetNextIndex(state.enc_pool_next);
  }

  // Per-local-feature candidate split thresholds (computed once from the
  // full columns; see tree/splits.h).
  const std::vector<std::vector<double>>& split_candidates() const {
    return split_candidates_;
  }
  // Left-branch indicator vector (size n) for local feature j, candidate s:
  // entry t is 1 iff sample t's feature value <= threshold.
  const std::vector<uint8_t>& LeftIndicator(int feature, int split) const {
    return left_indicators_[feature][split];
  }

  // ----- Ciphertext messaging -------------------------------------------

  [[nodiscard]] Status BroadcastCiphertexts(const std::vector<Ciphertext>& cts);
  Result<std::vector<Ciphertext>> RecvCiphertexts(int from);

  // ----- Threshold decryption -------------------------------------------

  // Jointly decrypts ciphertexts held by party `holder`: the holder
  // broadcasts them, every party contributes a partial decryption, party
  // `holder` combines and broadcasts the plaintexts. Non-holders pass {}.
  // Returns the plaintexts (in [0, n)) to all parties.
  Result<std::vector<BigInt>> JointDecrypt(const std::vector<Ciphertext>& cts,
                                           int holder);

  // ----- Conversions (the hybrid bridges) --------------------------------

  // Algorithm 2, batched: converts ciphertexts known to party `holder`
  // into additive shares over F_p. The plaintexts must be congruent mod p
  // to the logical values and satisfy value + m·p < n.
  Result<std::vector<u128>> CiphertextsToShares(
      const std::vector<Ciphertext>& cts, int holder);

  // Reverse conversion: every party encrypts its shares and the encrypted
  // shares are summed homomorphically; the resulting plaintexts equal the
  // logical value plus a multiple of p below m·p (erased by the next
  // CiphertextsToShares or by a final mod-p reduction).
  Result<std::vector<Ciphertext>> SharesToCiphertexts(
      const std::vector<u128>& shares);

  // Reduces a decrypted Paillier plaintext to the logical signed
  // fixed-point value (mod-p reduction + signed decode).
  double PlaintextToDouble(const BigInt& plain) const;
  i128 PlaintextToSigned(const BigInt& plain) const;

 private:
  Endpoint* endpoint_;
  int super_client_id_;
  PaillierPublicKey pk_;
  PartialKey partial_key_;
  VerticalView view_;
  std::vector<double> labels_;
  PivotParams params_;
  int crypto_threads_;
  Rng rng_;
  std::unique_ptr<EncRandomnessPool> enc_pool_;
  bool enc_pool_prewarmed_ = false;
  std::unique_ptr<Preprocessing> prep_;
  std::unique_ptr<MpcEngine> engine_;
  std::vector<std::vector<double>> split_candidates_;
  // [feature][split] -> indicator over samples.
  std::vector<std::vector<std::vector<uint8_t>>> left_indicators_;
  CheckpointStore* checkpoint_ = nullptr;
  uint64_t train_epoch_ = 0;
};

}  // namespace pivot

#endif  // PIVOT_PIVOT_CONTEXT_H_
