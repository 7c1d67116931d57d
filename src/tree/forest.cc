#include "tree/forest.h"

#include <algorithm>

#include "common/check.h"

namespace pivot {

double ForestModel::Predict(const std::vector<double>& row) const {
  PIVOT_CHECK_MSG(!trees.empty(), "empty forest");
  if (task == TreeTask::kClassification) {
    std::vector<int> votes(num_classes, 0);
    for (const TreeModel& tree : trees) {
      int cls = static_cast<int>(tree.Predict(row));
      if (cls >= 0 && cls < num_classes) ++votes[cls];
    }
    return static_cast<double>(
        std::max_element(votes.begin(), votes.end()) - votes.begin());
  }
  double sum = 0.0;
  for (const TreeModel& tree : trees) sum += tree.Predict(row);
  return sum / trees.size();
}

ForestModel TrainForest(const Dataset& data, const ForestParams& params) {
  PIVOT_CHECK(params.num_trees >= 1);
  Rng rng(params.seed);
  ForestModel model;
  model.task = params.tree.task;
  model.num_classes = params.tree.num_classes;
  const size_t n = data.num_samples();
  for (int w = 0; w < params.num_trees; ++w) {
    Dataset sample;
    sample.features.reserve(n);
    sample.labels.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      size_t pick = rng.NextBelow(n);
      sample.features.push_back(data.features[pick]);
      sample.labels.push_back(data.labels[pick]);
    }
    model.trees.push_back(TrainCart(sample, params.tree));
  }
  return model;
}

std::vector<double> PredictAll(const ForestModel& model, const Dataset& data) {
  std::vector<double> out;
  out.reserve(data.num_samples());
  for (const auto& row : data.features) out.push_back(model.Predict(row));
  return out;
}

}  // namespace pivot
