#include "pivot/ensemble.h"

#include "common/check.h"
#include "common/ct.h"
#include "common/fixed_point.h"
#include "pivot/prediction.h"

namespace pivot {

namespace {

// Seed of the public random-forest resampling.
constexpr uint64_t kBootstrapSeed = 99;

// Public bootstrap multiplicities for tree `w` (identical on every party:
// the resample pattern is public, the data is not).
std::vector<int> BootstrapWeights(int n, int w) {
  Rng rng(kBootstrapSeed + 1000003ULL * (w + 1));
  std::vector<int> counts(n, 0);
  for (int i = 0; i < n; ++i) ++counts[rng.NextBelow(n)];
  return counts;
}

// Scales shares by a public fixed-point factor (e.g. the learning rate)
// and renormalizes.
Result<std::vector<u128>> ScaleShares(MpcEngine& eng,
                                      const std::vector<u128>& xs,
                                      double factor) {
  const u128 fix = FpFromSigned(FixedFromDouble(factor));
  std::vector<u128> scaled(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) {
    scaled[i] = MpcEngine::MulPub(xs[i], fix);
  }
  return eng.TruncPrVec(scaled, kFracBits, 70);
}

// One GBDT round: residual shares -> encrypted labels -> tree; returns the
// tree and (optionally) updates `scores` with the learning-rate-scaled
// training-set predictions.
Result<PivotTree> GbdtRound(PartyContext& ctx, const EnsembleOptions& options,
                            const std::vector<u128>& residual_shares,
                            std::vector<u128>* scores_to_update) {
  MpcEngine& eng = ctx.engine();
  EncryptedLabelState labels;
  PIVOT_ASSIGN_OR_RETURN(labels.y, ctx.SharesToCiphertexts(residual_shares));

  TrainTreeOptions tree_opts;
  tree_opts.protocol = Protocol::kBasic;
  tree_opts.encrypted_labels = std::move(labels);
  tree_opts.keep_leaf_masks = scores_to_update != nullptr;
  PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, tree_opts));

  if (scores_to_update != nullptr) {
    PIVOT_ASSIGN_OR_RETURN(std::vector<Ciphertext> yhat_cts,
                           PredictTrainingSetEncrypted(ctx, tree));
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> yhat,
                           ctx.CiphertextsToShares(yhat_cts, 0));
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> step,
                           ScaleShares(eng, yhat, options.learning_rate));
    for (size_t t = 0; t < scores_to_update->size(); ++t) {
      (*scores_to_update)[t] = FpAdd((*scores_to_update)[t], step[t]);
    }
    // Masks are n ciphertexts per leaf that no saved model should carry.
    for (PivotNode& nd : tree.nodes) nd.leaf_mask = std::vector<Ciphertext>();
  }
  return tree;
}

}  // namespace

Result<PivotEnsemble> TrainPivotForest(PartyContext& ctx,
                                       const EnsembleOptions& options) {
  PIVOT_CHECK(options.num_trees >= 1);
  const int n = static_cast<int>(ctx.view().features.size());
  PivotEnsemble model;
  model.task = ctx.params().tree.task;
  model.num_classes = ctx.params().tree.num_classes;
  model.forests.resize(1);
  for (int w = 0; w < options.num_trees; ++w) {
    TrainTreeOptions tree_opts;
    tree_opts.protocol = options.protocol;
    tree_opts.sample_weights = BootstrapWeights(n, w);
    PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, tree_opts));
    model.forests[0].push_back(std::move(tree));
  }
  return model;
}

Result<PivotEnsemble> TrainPivotGbdt(PartyContext& ctx,
                                     const EnsembleOptions& options) {
  PIVOT_CHECK(options.num_trees >= 1);
  if (options.protocol != Protocol::kBasic) {
    return Status::Unimplemented(
        "GBDT releases trees in plaintext (basic protocol, Section 7)");
  }
  MpcEngine& eng = ctx.engine();
  const int n = static_cast<int>(ctx.view().features.size());
  const int W = options.num_trees;

  PivotEnsemble model;
  model.task = ctx.params().tree.task;
  model.num_classes = ctx.params().tree.num_classes;
  model.learning_rate = options.learning_rate;

  if (model.task == TreeTask::kRegression) {
    // The super client provides the initial labels; residuals stay shared.
    std::vector<i128> y_fixed(n, 0);
    if (ctx.is_super()) {
      for (int t = 0; t < n; ++t) {
        y_fixed[t] = FixedFromDouble(ctx.labels()[t]);
      }
    }
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> y0,
                           eng.InputVector(ctx.super_client(), y_fixed, n));
    std::vector<u128> residual = y0;
    std::vector<u128> scores(n, 0);
    model.forests.resize(1);
    for (int w = 0; w < W; ++w) {
      const bool last = (w == W - 1);
      PIVOT_ASSIGN_OR_RETURN(
          PivotTree tree,
          GbdtRound(ctx, options, residual, last ? nullptr : &scores));
      model.forests[0].push_back(std::move(tree));
      if (!last) {
        // residual = y - accumulated score.
        for (int t = 0; t < n; ++t) residual[t] = FpSub(y0[t], scores[t]);
      }
    }
    return model;
  }

  // Classification: one-vs-the-rest with secure softmax (Section 7.2).
  const int c = model.num_classes;
  std::vector<std::vector<u128>> onehot(c), scores(c);
  for (int k = 0; k < c; ++k) {
    std::vector<i128> target(n, 0);
    if (ctx.is_super()) {
      for (int t = 0; t < n; ++t) {
        // Constant-time one-hot: the label value must not steer a branch
        // (class membership would leak through encoding time), so the
        // match bit is computed with a CT compare and multiplied in.
        const auto label = static_cast<uint64_t>(
            static_cast<int64_t>(static_cast<int>(ctx.labels()[t])));
        const auto hit = static_cast<uint64_t>(
            ct::EqualU64(label, static_cast<uint64_t>(k)));
        target[t] = static_cast<i128>(hit) * FixedFromDouble(1.0);
      }
    }
    PIVOT_ASSIGN_OR_RETURN(onehot[k],
                           eng.InputVector(ctx.super_client(), target, n));
    scores[k].assign(n, 0);
  }
  model.forests.resize(c);
  for (int w = 0; w < W; ++w) {
    PIVOT_ASSIGN_OR_RETURN(std::vector<std::vector<u128>> probs,
                           eng.Softmax(scores));
    for (int k = 0; k < c; ++k) {
      std::vector<u128> residual(n);
      for (int t = 0; t < n; ++t) {
        residual[t] = FpSub(onehot[k][t], probs[k][t]);
      }
      PIVOT_ASSIGN_OR_RETURN(PivotTree tree,
                             GbdtRound(ctx, options, residual, &scores[k]));
      model.forests[k].push_back(std::move(tree));
    }
  }
  return model;
}

Result<double> PredictPivotEnsemble(PartyContext& ctx,
                                    const PivotEnsemble& model,
                                    const std::vector<double>& my_features) {
  PIVOT_CHECK(!model.forests.empty() && !model.forests[0].empty());
  MpcEngine& eng = ctx.engine();
  const bool gbdt = model.forests.size() > 1 || model.learning_rate != 1.0;

  if (model.task == TreeTask::kRegression) {
    // Mean (RF) or learning-rate-scaled sum (GBDT) of per-tree outputs.
    u128 total = 0;
    for (const PivotTree& tree : model.forests[0]) {
      PIVOT_ASSIGN_OR_RETURN(u128 share,
                             PredictPivotToShare(ctx, tree, my_features));
      total = FpAdd(total, share);
    }
    const double factor =
        gbdt ? model.learning_rate : 1.0 / model.forests[0].size();
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> scaled,
                           ScaleShares(eng, {total}, factor));
    PIVOT_ASSIGN_OR_RETURN(u128 opened, eng.Open(scaled[0]));
    return FixedToDouble(static_cast<int64_t>(FpToSigned(opened)));
  }

  if (model.forests.size() == 1) {
    // Random forest classification: secure majority vote over shared
    // per-tree class ids.
    const int c = model.num_classes;
    std::vector<u128> votes(c, 0);
    for (const PivotTree& tree : model.forests[0]) {
      PIVOT_ASSIGN_OR_RETURN(u128 cls,
                             PredictPivotToShare(ctx, tree, my_features));
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> hot, eng.OneHot(cls, c));
      for (int k = 0; k < c; ++k) votes[k] = FpAdd(votes[k], hot[k]);
    }
    PIVOT_ASSIGN_OR_RETURN(MpcEngine::ArgmaxShares best,
                           eng.Argmax(votes, 40));
    PIVOT_ASSIGN_OR_RETURN(u128 opened, eng.Open(best.index));
    return static_cast<double>(FpToSigned(opened));
  }

  // GBDT classification: argmax over per-class score sums.
  std::vector<u128> class_scores(model.forests.size(), 0);
  for (size_t k = 0; k < model.forests.size(); ++k) {
    for (const PivotTree& tree : model.forests[k]) {
      PIVOT_ASSIGN_OR_RETURN(u128 share,
                             PredictPivotToShare(ctx, tree, my_features));
      class_scores[k] = FpAdd(class_scores[k], share);
    }
  }
  PIVOT_ASSIGN_OR_RETURN(MpcEngine::ArgmaxShares best,
                         eng.Argmax(class_scores, 48));
  PIVOT_ASSIGN_OR_RETURN(u128 opened, eng.Open(best.index));
  return static_cast<double>(FpToSigned(opened));
}

Result<std::vector<double>> PredictPivotEnsembleMany(
    PartyContext& ctx, const PivotEnsemble& model,
    const std::vector<std::vector<double>>& my_rows) {
  std::vector<double> out;
  out.reserve(my_rows.size());
  for (const auto& row : my_rows) {
    PIVOT_ASSIGN_OR_RETURN(double pred,
                           PredictPivotEnsemble(ctx, model, row));
    out.push_back(pred);
  }
  return out;
}

}  // namespace pivot
