#ifndef PIVOT_PIVOT_ENSEMBLE_H_
#define PIVOT_PIVOT_ENSEMBLE_H_

#include "pivot/context.h"
#include "pivot/model.h"
#include "pivot/trainer.h"

namespace pivot {

// Ensemble extensions of Pivot (Section 7): random forest and gradient
// boosting, built from single decision trees as building blocks.
struct EnsembleOptions {
  Protocol protocol = Protocol::kBasic;
  int num_trees = 4;           // the paper's W (GBDT: rounds per class)
  double learning_rate = 0.3;  // GBDT shrinkage
};

// Random forest (Section 7.1): W independent Pivot trees, each on a
// bootstrap resample; the multiplicities (public) enter through the root
// mask.
Result<PivotEnsemble> TrainPivotForest(PartyContext& ctx,
                                       const EnsembleOptions& options);

// Gradient boosting (Section 7.2). Regression keeps the residual labels
// encrypted across rounds; classification trains one-vs-the-rest forests
// with a secure softmax for the residuals. Basic protocol only.
Result<PivotEnsemble> TrainPivotGbdt(PartyContext& ctx,
                                     const EnsembleOptions& options);

// Federated ensemble prediction: per-tree predictions stay encrypted /
// shared and only the aggregated output (majority vote, mean, or softmax
// argmax) is revealed.
Result<double> PredictPivotEnsemble(PartyContext& ctx,
                                    const PivotEnsemble& model,
                                    const std::vector<double>& my_features);

Result<std::vector<double>> PredictPivotEnsembleMany(
    PartyContext& ctx, const PivotEnsemble& model,
    const std::vector<std::vector<double>>& my_rows);

}  // namespace pivot

#endif  // PIVOT_PIVOT_ENSEMBLE_H_
