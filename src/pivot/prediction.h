#ifndef PIVOT_PIVOT_PREDICTION_H_
#define PIVOT_PIVOT_PREDICTION_H_

#include <map>
#include <memory>
#include <vector>

#include "pivot/context.h"
#include "pivot/model.h"

namespace pivot {

// Distributed model prediction. In vertical FL each party holds only its
// own slice of the sample's features; `my_features` is this party's slice
// (local column order, matching its training view).
//
// Basic protocol (Algorithm 4): the parties update an encrypted
// prediction vector [eta] in a round-robin order (party m-1 -> 0); party 0
// multiplies in the public leaf-label vector and a joint decryption
// reveals only the final prediction.
//
// Enhanced protocol (Section 5.2): thresholds and leaf labels exist only
// as shares, so the parties secret-share their feature values, compute a
// shared marker per path with secure comparisons, and open only the final
// dot product with the shared leaf vector.
//
// Every entry point below is one batched sweep of these two protocols
// (RunBasicPredictionBatch / RunEnhancedPredictionBatch in
// prediction.cc); the single-row calls run a batch of one. All calls are
// SPMD. A row narrower than this party's view is InvalidArgument, and so,
// on every party before any message, is a tree with an internal node whose
// owner is not one of the parties (enhanced hidden-feature nodes exempt).
//
// PredictPivot returns the predicted label to every party; it equals
// PredictPivotBatch(ctx, tree, {my_features})[0].
Result<double> PredictPivot(PartyContext& ctx, const PivotTree& tree,
                            const std::vector<double>& my_features);

// One root-path constraint of a leaf: (internal node id, goes-left).
struct LeafPathConstraint {
  int node = -1;
  bool left = false;
};

// Warm per-model prediction state, reusable across requests. The serving
// layer (src/serve/) builds one per loaded model and pins it for the
// session; one-shot callers may pass nullptr and a transient cache is
// built internally. Everything here is derivable from the tree alone:
//
//   paths       — per leaf (LeafOrder), its root-path constraints
//   leaf_order  — LeafOrder(), cached
//   leaf_plain  — basic protocol: the plaintext leaf/label vector z
//   lambda      — enhanced hidden-feature nodes: per node id, per party,
//                 a Montgomery/window-table view of the retained lambda
//                 selector slice (the per-request dot products reuse the
//                 table build); null for slots without a slice
struct PredictionCache {
  std::vector<std::vector<LeafPathConstraint>> paths;
  std::vector<int> leaf_order;
  std::vector<BigInt> leaf_plain;
  std::map<int, std::vector<std::unique_ptr<PreparedCiphertexts>>> lambda;
};

PredictionCache BuildPredictionCache(const PaillierPublicKey& pk,
                                     const PivotTree& tree);

// Batched prediction: ONE protocol sweep serves all `my_rows`. The basic
// protocol's round-robin (Algorithm 4) updates all B encrypted prediction
// vectors per network round — each hop carries a B x leaves ciphertext
// matrix — and ends in a single joint decryption of B ciphertexts; the
// enhanced protocol's share/compare/marker/dot steps each run once over
// the concatenated batch. Predictions are bit-identical for every batch
// size and crypto thread count, and equal the plaintext tree's.
Result<std::vector<double>> PredictPivotBatch(
    PartyContext& ctx, const PivotTree& tree,
    const std::vector<std::vector<double>>& my_rows,
    const PredictionCache* cache = nullptr);

// Batch helper (rows are this party's slices). Delegates to
// PredictPivotBatch in bounded chunks, so a whole test set is served at
// batched-round cost instead of one protocol run per sample.
Result<std::vector<double>> PredictPivotMany(
    PartyContext& ctx, const PivotTree& tree,
    const std::vector<std::vector<double>>& my_rows);

// Returns this party's *share* of the prediction without revealing it
// (both protocols; basic converts party 0's [k-bar] with Algorithm 2);
// the ensemble layer aggregates such shares before opening only the
// final output.
Result<u128> PredictPivotToShare(PartyContext& ctx, const PivotTree& tree,
                                 const std::vector<double>& my_features);

// Basic protocol only: runs Algorithm 4 but stops before decryption;
// party 0 broadcasts the encrypted prediction [k-bar] to every party.
// Used by the ensemble extensions (Section 7), which aggregate or
// post-process per-tree predictions without revealing them.
Result<Ciphertext> PredictPivotEncrypted(PartyContext& ctx,
                                         const PivotTree& tree,
                                         const std::vector<double>& my_features);

// Basic protocol + keep_leaf_masks: evaluates the tree on the *training
// set* homomorphically via the stored leaf masks:
// [y_hat_t] = sum_leaf leaf_value ⊗ [alpha_leaf_t]. Local (no
// communication); every party computes the same ciphertexts. Fixed-point
// leaf values.
Result<std::vector<Ciphertext>> PredictTrainingSetEncrypted(
    PartyContext& ctx, const PivotTree& tree);

}  // namespace pivot

#endif  // PIVOT_PIVOT_PREDICTION_H_
