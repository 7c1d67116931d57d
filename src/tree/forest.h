#ifndef PIVOT_TREE_FOREST_H_
#define PIVOT_TREE_FOREST_H_

#include "data/dataset.h"
#include "tree/cart.h"
#include "tree/tree_model.h"

namespace pivot {

// Non-private random forest (the NP-RF baseline of Table 3; Section 7.1).
// Trains `num_trees` independent CART trees on bootstrap resamples and
// aggregates by majority vote (classification) or mean (regression).
struct ForestParams {
  TreeParams tree;
  int num_trees = 8;  // the paper's W
  uint64_t seed = 7;
};

struct ForestModel {
  TreeTask task = TreeTask::kClassification;
  int num_classes = 2;
  std::vector<TreeModel> trees;

  double Predict(const std::vector<double>& row) const;
};

ForestModel TrainForest(const Dataset& data, const ForestParams& params);

std::vector<double> PredictAll(const ForestModel& model, const Dataset& data);

}  // namespace pivot

#endif  // PIVOT_TREE_FOREST_H_
