#include "pivot/trainer.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>

#include "common/fixed_point.h"
#include "data/synthetic.h"
#include "pivot/ensemble.h"
#include "pivot/prediction.h"
#include "pivot/runner.h"
#include "pivot/serialize.h"
#include "tree/cart.h"
#include "tree/forest.h"
#include "tree/gbdt.h"

namespace pivot {
namespace {

// Small but non-trivial datasets keep the full cryptographic pipeline
// under test at sane runtimes.
Dataset SmallClassification(int n = 60, int d = 6, int classes = 2,
                            uint64_t seed = 17) {
  ClassificationSpec spec;
  spec.num_samples = n;
  spec.num_features = d;
  spec.num_classes = classes;
  spec.class_separation = 2.5;
  spec.seed = seed;
  return MakeClassification(spec);
}

Dataset SmallRegression(int n = 60, int d = 6, uint64_t seed = 19) {
  RegressionSpec spec;
  spec.num_samples = n;
  spec.num_features = d;
  spec.seed = seed;
  return MakeRegression(spec);
}

PivotParams TestParams(TreeTask task, int classes = 2, int key_bits = 256) {
  PivotParams params;
  params.tree.task = task;
  params.tree.num_classes = classes;
  params.tree.max_depth = 2;
  params.tree.max_splits = 4;
  params.tree.min_samples_split = 5;
  params.key_bits = key_bits;
  return params;
}

// Collects one party's result under a mutex (parties run on threads).
template <typename T>
class PerParty {
 public:
  explicit PerParty(int m) : values_(m) {}
  void Set(int id, T value) {
    std::lock_guard<std::mutex> lock(mu_);
    values_[id] = std::move(value);
  }
  const T& Get(int id) const { return values_[id]; }

 private:
  std::mutex mu_;
  std::vector<T> values_;
};

// Global feature index of every party's local columns.
std::vector<std::vector<int>> FeatureMap(const Dataset& data, int parties) {
  std::vector<std::vector<int>> feature_map;
  for (const auto& view : PartitionVertically(data, parties).views) {
    feature_map.push_back(view.feature_indices);
  }
  return feature_map;
}

TEST(PivotBasicTest, ClassificationMatchesNonPrivateCart) {
  Dataset data = SmallClassification();
  PivotParams params = TestParams(TreeTask::kClassification);
  FederationConfig cfg;
  cfg.num_parties = 3;
  cfg.params = params;

  PerParty<PivotTree> trees(3);
  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    TrainTreeOptions opts;
    opts.protocol = Protocol::kBasic;
    PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));
    trees.Set(ctx.id(), std::move(tree));
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();

  // The basic-protocol model is public: all parties hold the same tree,
  // down to the last encoded bit.
  const PivotTree& tree = trees.Get(0);
  for (int p = 1; p < 3; ++p) {
    EXPECT_EQ(SerializePivotTree(trees.Get(p)), SerializePivotTree(tree));
  }

  // Compare with the plaintext CART on the merged data: identical
  // hyper-parameters, identical candidate grid -> identical predictions
  // (up to fixed-point gain ties, so accuracy is compared exactly on
  // training data).
  TreeModel np = TrainCart(data, params.tree);
  const auto feature_map = FeatureMap(data, 3);
  int agree = 0;
  for (size_t i = 0; i < data.num_samples(); ++i) {
    double pivot_pred = tree.EvaluatePlain(data.features[i], feature_map);
    double np_pred = np.Predict(data.features[i]);
    agree += (pivot_pred == np_pred);
  }
  // Fixed-point rounding may flip rare boundary ties; demand near-perfect
  // agreement.
  EXPECT_GE(agree, static_cast<int>(data.num_samples()) - 2)
      << "Pivot and CART disagree on too many samples";
}

// Regression Pivot-DT equals CART on the same candidate grid: the same
// splits, and leaf means that differ only by fixed-point rounding. The
// sweep covers several seeds and two shapes, because one matching tree
// says little about gain precision.
TEST(PivotBasicTest, RegressionMatchesNonPrivateCart) {
  struct Shape {
    int rows;
    int depth;
    uint64_t seed;
  };
  const Shape shapes[] = {{40, 2, 1}, {40, 2, 2}, {40, 2, 3}, {40, 2, 4},
                          {40, 2, 5}, {40, 2, 6}, {200, 3, 1}};
  for (const Shape& shape : shapes) {
    SCOPED_TRACE("rows=" + std::to_string(shape.rows) +
                 " depth=" + std::to_string(shape.depth) +
                 " seed=" + std::to_string(shape.seed));
    const Dataset data = SmallRegression(shape.rows, 6, shape.seed);
    PivotParams params = TestParams(TreeTask::kRegression);
    params.tree.max_depth = shape.depth;
    FederationConfig cfg;
    cfg.num_parties = 3;
    cfg.params = params;

    PerParty<PivotTree> trees(3);
    Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
      TrainTreeOptions opts;
      PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));
      trees.Set(ctx.id(), std::move(tree));
      return Status::Ok();
    });
    ASSERT_TRUE(st.ok()) << st.ToString();

    const PivotTree& tree = trees.Get(0);
    const TreeModel np = TrainCart(data, params.tree);
    EXPECT_EQ(tree.NumLeaves(), np.NumLeaves());
    const auto feature_map = FeatureMap(data, 3);
    int differ = 0;
    double worst = 0.0;
    for (size_t i = 0; i < data.num_samples(); ++i) {
      const double gap =
          std::abs(tree.EvaluatePlain(data.features[i], feature_map) -
                   np.Predict(data.features[i]));
      differ += gap > 0.01;
      worst = std::max(worst, gap);
    }
    EXPECT_EQ(differ, 0) << "largest prediction gap " << worst;
  }
}

TEST(PivotBasicTest, DistributedPredictionMatchesPublicModel) {
  Dataset data = SmallClassification();
  FederationConfig cfg;
  cfg.num_parties = 3;
  cfg.params = TestParams(TreeTask::kClassification);

  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    TrainTreeOptions opts;
    PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));
    // Algorithm 4 on the first 6 training rows must equal the public
    // model evaluated centrally.
    std::vector<std::vector<int>> feature_map;
    auto part = PartitionVertically(data, 3);
    for (const auto& view : part.views) {
      feature_map.push_back(view.feature_indices);
    }
    for (int i = 0; i < 6; ++i) {
      PIVOT_ASSIGN_OR_RETURN(
          double pred, PredictPivot(ctx, tree, part.views[ctx.id()].features[i]));
      const double expected =
          tree.EvaluatePlain(data.features[i], feature_map);
      if (pred != expected) {
        return Status::Internal("distributed prediction mismatch");
      }
    }
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(PivotBasicTest, RegressionTreeTrainsAndPredicts) {
  Dataset data = SmallRegression();
  FederationConfig cfg;
  cfg.num_parties = 2;
  cfg.params = TestParams(TreeTask::kRegression);

  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    TrainTreeOptions opts;
    PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));
    if (tree.nodes.empty()) return Status::Internal("empty tree");
    // Distributed prediction approximates the plaintext CART tree's MSE.
    auto part = PartitionVertically(data, 2);
    double se_pivot = 0.0;
    const int probe = 10;
    for (int i = 0; i < probe; ++i) {
      PIVOT_ASSIGN_OR_RETURN(
          double pred,
          PredictPivot(ctx, tree, part.views[ctx.id()].features[i]));
      se_pivot += (pred - data.labels[i]) * (pred - data.labels[i]);
    }
    // Compare with the mean-label predictor: the tree must do better.
    double mean = 0.0;
    for (double y : data.labels) mean += y;
    mean /= data.labels.size();
    double se_mean = 0.0;
    for (int i = 0; i < probe; ++i) {
      se_mean += (mean - data.labels[i]) * (mean - data.labels[i]);
    }
    if (se_pivot >= se_mean) {
      return Status::Internal("regression tree no better than mean");
    }
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(PivotBasicTest, SampleWeightsActAsBootstrap) {
  Dataset data = SmallClassification(40, 4);
  FederationConfig cfg;
  cfg.num_parties = 2;
  cfg.params = TestParams(TreeTask::kClassification);

  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    TrainTreeOptions opts;
    opts.sample_weights.assign(40, 1);
    // Doubling every weight must not change the learned structure.
    TrainTreeOptions doubled = opts;
    doubled.sample_weights.assign(40, 2);
    PIVOT_ASSIGN_OR_RETURN(PivotTree t1, TrainPivotTree(ctx, opts));
    PIVOT_ASSIGN_OR_RETURN(PivotTree t2, TrainPivotTree(ctx, doubled));
    if (t1.nodes.size() != t2.nodes.size()) {
      return Status::Internal("weight scaling changed the tree size");
    }
    for (size_t i = 0; i < t1.nodes.size(); ++i) {
      if (t1.nodes[i].is_leaf != t2.nodes[i].is_leaf ||
          t1.nodes[i].owner != t2.nodes[i].owner ||
          t1.nodes[i].threshold != t2.nodes[i].threshold) {
        return Status::Internal("weight scaling changed the tree");
      }
    }
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(PivotBasicTest, KeyTooSmallIsRejected) {
  Dataset data = SmallClassification(30, 4);
  FederationConfig cfg;
  cfg.num_parties = 2;
  cfg.params = TestParams(TreeTask::kClassification, 2, /*key_bits=*/128);

  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    TrainTreeOptions opts;
    Result<PivotTree> r = TrainPivotTree(ctx, opts);
    if (r.ok()) return Status::Internal("expected key-size rejection");
    if (r.status().code() != StatusCode::kFailedPrecondition) {
      return Status::Internal("wrong error: " + r.status().ToString());
    }
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(PivotEnhancedTest, HidesThresholdsAndLeaves) {
  Dataset data = SmallClassification(50, 6);
  FederationConfig cfg;
  cfg.num_parties = 3;
  cfg.params = TestParams(TreeTask::kClassification, 2, /*key_bits=*/384);

  PerParty<PivotTree> trees(3);
  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    TrainTreeOptions opts;
    opts.protocol = Protocol::kEnhanced;
    PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));
    trees.Set(ctx.id(), std::move(tree));
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();

  // Structure (owner/feature) is public; thresholds and leaves exist only
  // as shares that differ across parties.
  const PivotTree& t0 = trees.Get(0);
  ASSERT_GT(t0.NumInternalNodes(), 0);
  for (int p = 1; p < 3; ++p) {
    const PivotTree& tp = trees.Get(p);
    ASSERT_EQ(tp.nodes.size(), t0.nodes.size());
    bool some_share_differs = false;
    for (size_t i = 0; i < t0.nodes.size(); ++i) {
      EXPECT_EQ(tp.nodes[i].is_leaf, t0.nodes[i].is_leaf);
      EXPECT_EQ(tp.nodes[i].owner, t0.nodes[i].owner);
      EXPECT_EQ(tp.nodes[i].feature_local, t0.nodes[i].feature_local);
      // Plaintext fields stay at their defaults in the enhanced model.
      EXPECT_DOUBLE_EQ(tp.nodes[i].threshold, 0.0);
      if (!t0.nodes[i].is_leaf &&
          tp.nodes[i].threshold_share != t0.nodes[i].threshold_share) {
        some_share_differs = true;
      }
    }
    EXPECT_TRUE(some_share_differs) << "shares identical across parties";
  }
}

TEST(PivotEnhancedTest, PredictionMatchesBasicProtocolModel) {
  // Train the same data with both protocols; the enhanced model's secure
  // prediction must agree with the public basic model on probe samples.
  Dataset data = SmallClassification(50, 6, 2, /*seed=*/23);
  FederationConfig cfg;
  cfg.num_parties = 2;
  cfg.params = TestParams(TreeTask::kClassification, 2, /*key_bits=*/384);

  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    TrainTreeOptions basic_opts;
    basic_opts.protocol = Protocol::kBasic;
    PIVOT_ASSIGN_OR_RETURN(PivotTree basic, TrainPivotTree(ctx, basic_opts));
    TrainTreeOptions enh_opts;
    enh_opts.protocol = Protocol::kEnhanced;
    PIVOT_ASSIGN_OR_RETURN(PivotTree enhanced, TrainPivotTree(ctx, enh_opts));

    auto part = PartitionVertically(data, 2);
    std::vector<std::vector<int>> feature_map;
    for (const auto& view : part.views) {
      feature_map.push_back(view.feature_indices);
    }
    for (int i = 0; i < 8; ++i) {
      PIVOT_ASSIGN_OR_RETURN(
          double enh_pred,
          PredictPivot(ctx, enhanced, part.views[ctx.id()].features[i]));
      const double basic_pred =
          basic.EvaluatePlain(data.features[i], feature_map);
      if (enh_pred != basic_pred) {
        return Status::Internal("enhanced prediction mismatch at sample " +
                                std::to_string(i));
      }
    }
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(PivotEnhancedTest, RegressionPredictionsClose) {
  Dataset data = SmallRegression(50, 4);
  FederationConfig cfg;
  cfg.num_parties = 2;
  cfg.params = TestParams(TreeTask::kRegression, 2, /*key_bits=*/384);

  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    TrainTreeOptions basic_opts;
    PIVOT_ASSIGN_OR_RETURN(PivotTree basic, TrainPivotTree(ctx, basic_opts));
    TrainTreeOptions enh_opts;
    enh_opts.protocol = Protocol::kEnhanced;
    PIVOT_ASSIGN_OR_RETURN(PivotTree enhanced, TrainPivotTree(ctx, enh_opts));
    auto part = PartitionVertically(data, 2);
    std::vector<std::vector<int>> feature_map;
    for (const auto& view : part.views) {
      feature_map.push_back(view.feature_indices);
    }
    for (int i = 0; i < 6; ++i) {
      PIVOT_ASSIGN_OR_RETURN(
          double enh_pred,
          PredictPivot(ctx, enhanced, part.views[ctx.id()].features[i]));
      const double basic_pred =
          basic.EvaluatePlain(data.features[i], feature_map);
      if (std::abs(enh_pred - basic_pred) > 0.01) {
        return Status::Internal("regression prediction drift");
      }
    }
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

// Enhanced regression keeps every leaf mean secret-shared. Opened, the
// shares equal CART's leaf means on the same data, up to fixed-point
// rounding, so the private split selection found CART's partition.
TEST(PivotEnhancedTest, RegressionLeafSharesOpenToCartLeaves) {
  const Dataset data = SmallRegression(40, 6, 3);
  PivotParams params = TestParams(TreeTask::kRegression, 2, /*key_bits=*/384);
  FederationConfig cfg;
  cfg.num_parties = 3;
  cfg.params = params;

  PerParty<std::vector<double>> leaves(3);
  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    TrainTreeOptions opts;
    opts.protocol = Protocol::kEnhanced;
    PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));
    std::vector<double> opened;
    for (const PivotNode& node : tree.nodes) {
      if (!node.is_leaf) continue;
      PIVOT_ASSIGN_OR_RETURN(u128 v, ctx.engine().Open(node.leaf_share));
      opened.push_back(FixedToDouble(static_cast<int64_t>(FpToSigned(v))));
    }
    leaves.Set(ctx.id(), std::move(opened));
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();

  std::vector<double> pivot_leaves = leaves.Get(0);
  const TreeModel np = TrainCart(data, params.tree);
  std::vector<double> cart_leaves;
  for (const TreeNode& node : np.nodes()) {
    if (node.is_leaf) cart_leaves.push_back(node.leaf_value);
  }
  ASSERT_EQ(pivot_leaves.size(), cart_leaves.size());
  std::sort(pivot_leaves.begin(), pivot_leaves.end());
  std::sort(cart_leaves.begin(), cart_leaves.end());
  for (size_t i = 0; i < cart_leaves.size(); ++i) {
    EXPECT_NEAR(pivot_leaves[i], cart_leaves[i], 0.01) << "leaf " << i;
  }
}

// Regression labels ride the Paillier carriers shifted by
// kRegressionLabelOffset; past |y| < 63 an enhanced tree would wrap the
// plaintext space and fail mid-training with an opaque protocol error.
// Both runners reject such labels up front, before any party starts.
TEST(PivotEnhancedTest, OutOfRangeRegressionLabelsRejected) {
  Dataset data = SmallRegression(40, 6, 3);
  for (double& y : data.labels) y *= 10.0;  // range about [-100, 100]
  PivotParams params = TestParams(TreeTask::kRegression, 2, /*key_bits=*/384);
  FederationConfig cfg;
  cfg.num_parties = 3;
  cfg.params = params;
  std::atomic<bool> ran{false};
  const Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    ran = true;
    TrainTreeOptions opts;
    opts.protocol = Protocol::kEnhanced;
    return TrainPivotTree(ctx, opts).status();
  });
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  EXPECT_NE(st.message().find("|y| < 63"), std::string::npos)
      << st.ToString();
  EXPECT_FALSE(ran);

  // The socket runner checks before it binds: no address is touched.
  PartyConfig party;
  party.params = params;
  party.addresses = {"unix:unused0", "unix:unused1", "unix:unused2"};
  const Status party_st = RunPartyFederation(
      PartitionVertically(data, 3), party,
      [](PartyContext&) { return Status::Ok(); });
  EXPECT_EQ(party_st.code(), StatusCode::kInvalidArgument)
      << party_st.ToString();
}

TEST(PivotEnsembleTest, RandomForestClassification) {
  Dataset data = SmallClassification(50, 6);
  FederationConfig cfg;
  cfg.num_parties = 2;
  cfg.params = TestParams(TreeTask::kClassification);

  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    EnsembleOptions opts;
    opts.num_trees = 3;
    PIVOT_ASSIGN_OR_RETURN(PivotEnsemble model, TrainPivotForest(ctx, opts));
    if (model.forests[0].size() != 3) return Status::Internal("tree count");
    auto part = PartitionVertically(data, 2);
    int correct = 0;
    const int probe = 10;
    for (int i = 0; i < probe; ++i) {
      PIVOT_ASSIGN_OR_RETURN(
          double pred,
          PredictPivotEnsemble(ctx, model, part.views[ctx.id()].features[i]));
      if (pred < 0 || pred >= 2) return Status::Internal("class out of range");
      correct += (pred == data.labels[i]);
    }
    if (correct < probe / 2) return Status::Internal("forest below chance");
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(PivotEnsembleTest, GbdtRegressionReducesResiduals) {
  Dataset data = SmallRegression(40, 4);
  FederationConfig cfg;
  cfg.num_parties = 2;
  cfg.params = TestParams(TreeTask::kRegression, 2, /*key_bits=*/384);

  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    EnsembleOptions opts;
    opts.num_trees = 3;
    opts.learning_rate = 0.5;
    PIVOT_ASSIGN_OR_RETURN(PivotEnsemble model, TrainPivotGbdt(ctx, opts));
    if (model.forests[0].size() != 3) return Status::Internal("tree count");
    auto part = PartitionVertically(data, 2);
    double se = 0.0, se_mean = 0.0;
    double mean = 0.0;
    for (double y : data.labels) mean += y;
    mean /= data.labels.size();
    const int probe = 8;
    for (int i = 0; i < probe; ++i) {
      PIVOT_ASSIGN_OR_RETURN(
          double pred,
          PredictPivotEnsemble(ctx, model, part.views[ctx.id()].features[i]));
      se += (pred - data.labels[i]) * (pred - data.labels[i]);
      se_mean += (mean - data.labels[i]) * (mean - data.labels[i]);
    }
    if (se >= se_mean) return Status::Internal("GBDT no better than mean");
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(PivotDpTest, DifferentiallyPrivateTrainingRuns) {
  Dataset data = SmallClassification(50, 4);
  FederationConfig cfg;
  cfg.num_parties = 2;
  cfg.params = TestParams(TreeTask::kClassification);
  cfg.params.dp.enabled = true;
  cfg.params.dp.epsilon_per_query = 2.0;

  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    TrainTreeOptions opts;
    PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));
    if (tree.nodes.empty()) return Status::Internal("empty DP tree");
    // Leaf labels are valid classes.
    for (const PivotNode& n : tree.nodes) {
      if (n.is_leaf && (n.leaf_value < 0 || n.leaf_value >= 2)) {
        return Status::Internal("DP leaf out of range");
      }
    }
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(PivotTrainerTest, EnhancedGbdtRejected) {
  Dataset data = SmallClassification(30, 4);
  FederationConfig cfg;
  cfg.num_parties = 2;
  cfg.params = TestParams(TreeTask::kRegression, 2, /*key_bits=*/384);

  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    EnsembleOptions opts;
    opts.protocol = Protocol::kEnhanced;
    Result<PivotEnsemble> r = TrainPivotGbdt(ctx, opts);
    if (r.ok()) return Status::Internal("expected rejection");
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

}  // namespace
}  // namespace pivot
