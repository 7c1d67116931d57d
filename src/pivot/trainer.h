#ifndef PIVOT_PIVOT_TRAINER_H_
#define PIVOT_PIVOT_TRAINER_H_

#include <optional>
#include <vector>

#include "pivot/context.h"
#include "pivot/model.h"

namespace pivot {

// Encrypted per-sample label state for GBDT rounds (Section 7.2): the
// residual labels of round w exist only in encrypted / shared form. When
// provided, the trainer runs in regression mode with gamma = [Y ∘ alpha]
// maintained recursively by the winning client instead of recomputed by
// the super client. Regression splits are scored from label sums alone
// (pivot/secure_gain.h).
struct EncryptedLabelState {
  std::vector<Ciphertext> y;  // [Y_w], fixed-point plaintexts
};

// Options of one federated tree-training run.
struct TrainTreeOptions {
  Protocol protocol = Protocol::kBasic;
  // Enhanced protocol only: how much split information stays public
  // (Section 5.2's trade-off). Stronger hiding selects over a wider
  // candidate span, costing more ciphertext work per node.
  HidingLevel hiding = HidingLevel::kThreshold;
  // Optional per-sample integer multiplicities (random-forest bootstrap);
  // empty means weight 1 for every sample. Public across parties.
  std::vector<int> sample_weights;
  // Optional encrypted labels (GBDT). Basic protocol only.
  std::optional<EncryptedLabelState> encrypted_labels;
  // Keep each leaf's encrypted mask vector in the model (PivotNode::
  // leaf_mask). GBDT uses the masks to compute encrypted training-set
  // predictions in one homomorphic pass instead of n tree walks.
  bool keep_leaf_masks = false;
};

// Trains one Pivot decision tree (Algorithm 3 for the basic protocol,
// plus the Section 5 machinery for the enhanced protocol). SPMD: every
// party calls this with its own context; the returned tree is this party's
// view of the shared model.
Result<PivotTree> TrainPivotTree(PartyContext& ctx,
                                 const TrainTreeOptions& options);

}  // namespace pivot

#endif  // PIVOT_PIVOT_TRAINER_H_
