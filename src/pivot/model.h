#ifndef PIVOT_PIVOT_MODEL_H_
#define PIVOT_PIVOT_MODEL_H_

#include <vector>

#include "crypto/paillier.h"
#include "mpc/field.h"
#include "pivot/params.h"
#include "tree/tree_model.h"

namespace pivot {

// One node of a federated Pivot tree, as seen by a single party.
//
// What is plaintext vs hidden depends on the protocol:
//  - Basic:    owner, local feature index and threshold are public;
//              leaves carry a public value.
//  - Enhanced: owner and local feature index are public; the threshold and
//              leaf value exist only as this party's additive share
//              (threshold_share / leaf_share), different on every party.
struct PivotNode {
  bool is_leaf = false;

  // Internal nodes: which client owns the split feature, and the feature's
  // local column index at that client. Public in both protocols.
  int owner = -1;
  int feature_local = -1;

  // Basic protocol only: plaintext split threshold / leaf value.
  double threshold = 0.0;
  double leaf_value = 0.0;

  // Enhanced protocol only: this party's share of the fixed-point
  // threshold / leaf value.
  u128 threshold_share = 0;
  u128 leaf_share = 0;

  // Optional (TrainTreeOptions::keep_leaf_masks): the leaf's encrypted
  // sample-mask vector [alpha], used by GBDT to evaluate the tree on the
  // whole training set homomorphically; cleared once GBDT has used it.
  std::vector<Ciphertext> leaf_mask;

  // Enhanced protocol with HidingLevel::kFeature / kClientAndFeature:
  // the node's encrypted one-hot split selector, sliced per client in the
  // public candidate order ([lambda] of Section 5.2, retained so the
  // prediction protocol can select the hidden feature value obliviously).
  // lambda_slices[i] spans client i's candidate splits in the node's
  // selection span; lambda_features[i][k] is the *local feature index* at
  // client i behind slice entry k (public enumeration metadata). Empty
  // when the split feature is public. Saved with the model.
  std::vector<std::vector<Ciphertext>> lambda_slices;
  std::vector<std::vector<int>> lambda_features;

  int left = -1;
  int right = -1;
};

// A party-local view of a trained Pivot decision tree. Node 0 is the root.
struct PivotTree {
  Protocol protocol = Protocol::kBasic;
  TreeTask task = TreeTask::kClassification;
  int num_classes = 2;
  std::vector<PivotNode> nodes;

  int AddNode(const PivotNode& n) {
    nodes.push_back(n);
    return static_cast<int>(nodes.size()) - 1;
  }

  int NumInternalNodes() const {
    int count = 0;
    for (const PivotNode& n : nodes) count += n.is_leaf ? 0 : 1;
    return count;
  }
  int NumLeaves() const {
    return static_cast<int>(nodes.size()) - NumInternalNodes();
  }

  // Leaf node ids in left-to-right order (the paper's leaf label vector z).
  std::vector<int> LeafOrder() const {
    std::vector<int> order;
    CollectLeaves(0, order);
    return order;
  }

  // Basic-protocol convenience: evaluates the public tree on a full
  // (merged) feature row, using the global feature indices in
  // `feature_map[owner][feature_local]`. Test/debug helper; real
  // prediction is the distributed protocol in prediction.h.
  double EvaluatePlain(const std::vector<double>& row,
                       const std::vector<std::vector<int>>& feature_map) const;

 private:
  void CollectLeaves(int id, std::vector<int>& order) const {
    if (nodes.empty()) return;
    if (nodes[id].is_leaf) {
      order.push_back(id);
      return;
    }
    CollectLeaves(nodes[id].left, order);
    CollectLeaves(nodes[id].right, order);
  }
};

// Ensembles are per-party vectors of trees.
struct PivotEnsemble {
  TreeTask task = TreeTask::kClassification;
  int num_classes = 2;
  double learning_rate = 1.0;  // used by GBDT
  // Random forest: forests[0][w]. GBDT classification: forests[k][w].
  std::vector<std::vector<PivotTree>> forests;
};

}  // namespace pivot

#endif  // PIVOT_PIVOT_MODEL_H_
