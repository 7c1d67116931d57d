#include <gtest/gtest.h>

#include <mutex>

#include "data/synthetic.h"
#include "pivot/ensemble.h"
#include "pivot/prediction.h"
#include "pivot/runner.h"
#include "pivot/serialize.h"
#include "pivot/trainer.h"

namespace pivot {
namespace {

Dataset TinyClassification(int n, int d, int classes, uint64_t seed) {
  ClassificationSpec spec;
  spec.num_samples = n;
  spec.num_features = d;
  spec.num_classes = classes;
  spec.class_separation = 2.5;
  spec.seed = seed;
  return MakeClassification(spec);
}

TEST(PivotExtraTest, SuperClientNeedNotBePartyZero) {
  Dataset data = TinyClassification(40, 4, 2, 71);
  FederationConfig cfg;
  cfg.num_parties = 3;
  cfg.super_client = 2;  // labels live at party 2
  cfg.params.tree.num_classes = 2;
  cfg.params.tree.max_depth = 2;
  cfg.params.key_bits = 256;
  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    if ((ctx.id() == 2) != ctx.is_super()) {
      return Status::Internal("super flag wrong");
    }
    if (!ctx.is_super() && !ctx.labels().empty()) {
      return Status::Internal("labels leaked to non-super party");
    }
    TrainTreeOptions opts;
    PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));
    if (tree.nodes.empty()) return Status::Internal("empty tree");
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(PivotExtraTest, StumpPredictionWorks) {
  // min_samples_split larger than n forces a single-leaf tree; both
  // prediction protocols must handle the degenerate shape.
  Dataset data = TinyClassification(20, 4, 2, 72);
  FederationConfig cfg;
  cfg.num_parties = 2;
  cfg.params.tree.num_classes = 2;
  cfg.params.tree.min_samples_split = 100;
  cfg.params.key_bits = 384;
  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    TrainTreeOptions basic;
    PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, basic));
    if (tree.NumInternalNodes() != 0) return Status::Internal("not a stump");
    auto rows = SliceRowsForParty(data, ctx.id(), 2);
    PIVOT_ASSIGN_OR_RETURN(double pred, PredictPivot(ctx, tree, rows[0]));
    if (pred != tree.nodes[0].leaf_value) {
      return Status::Internal("stump prediction mismatch");
    }
    TrainTreeOptions enh;
    enh.protocol = Protocol::kEnhanced;
    PIVOT_ASSIGN_OR_RETURN(PivotTree etree, TrainPivotTree(ctx, enh));
    PIVOT_ASSIGN_OR_RETURN(double epred, PredictPivot(ctx, etree, rows[0]));
    if (epred != pred) return Status::Internal("enhanced stump mismatch");
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(PivotExtraTest, GbdtClassificationEndToEnd) {
  Dataset data = TinyClassification(36, 4, 2, 73);
  FederationConfig cfg;
  cfg.num_parties = 2;
  cfg.params.tree.task = TreeTask::kClassification;
  cfg.params.tree.num_classes = 2;
  cfg.params.tree.max_depth = 2;
  cfg.params.key_bits = 384;
  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    EnsembleOptions opts;
    opts.num_trees = 2;
    PIVOT_ASSIGN_OR_RETURN(PivotEnsemble model, TrainPivotGbdt(ctx, opts));
    if (model.forests.size() != 2) {
      return Status::Internal("one-vs-rest forest count wrong");
    }
    if (model.forests[0].size() != 2 || model.forests[1].size() != 2) {
      return Status::Internal("rounds per class wrong");
    }
    for (const auto& forest : model.forests) {
      for (const PivotTree& tree : forest) {
        for (const PivotNode& n : tree.nodes) {
          if (!n.leaf_mask.empty()) return Status::Internal("leaf mask kept");
        }
      }
    }
    auto rows = SliceRowsForParty(data, ctx.id(), 2);
    int correct = 0;
    const int probe = 8;
    for (int i = 0; i < probe; ++i) {
      PIVOT_ASSIGN_OR_RETURN(double pred,
                             PredictPivotEnsemble(ctx, model, rows[i]));
      if (pred != 0.0 && pred != 1.0) {
        return Status::Internal("class out of range");
      }
      correct += (pred == data.labels[i]);
    }
    if (correct < probe / 2) return Status::Internal("GBDT below chance");
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(PivotExtraTest, EnhancedForestMajorityVote) {
  Dataset data = TinyClassification(40, 4, 2, 74);
  FederationConfig cfg;
  cfg.num_parties = 2;
  cfg.params.tree.num_classes = 2;
  cfg.params.tree.max_depth = 2;
  cfg.params.key_bits = 384;
  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    EnsembleOptions opts;
    opts.protocol = Protocol::kEnhanced;
    opts.num_trees = 3;
    PIVOT_ASSIGN_OR_RETURN(PivotEnsemble model, TrainPivotForest(ctx, opts));
    auto rows = SliceRowsForParty(data, ctx.id(), 2);
    for (int i = 0; i < 4; ++i) {
      PIVOT_ASSIGN_OR_RETURN(double pred,
                             PredictPivotEnsemble(ctx, model, rows[i]));
      if (pred != 0.0 && pred != 1.0) {
        return Status::Internal("vote out of range");
      }
    }
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(PivotExtraTest, DpRegressionTreeRuns) {
  RegressionSpec spec;
  spec.num_samples = 40;
  spec.num_features = 4;
  spec.seed = 75;
  Dataset data = MakeRegression(spec);
  FederationConfig cfg;
  cfg.num_parties = 2;
  cfg.params.tree.task = TreeTask::kRegression;
  cfg.params.tree.max_depth = 2;
  cfg.params.key_bits = 256;
  cfg.params.dp.enabled = true;
  cfg.params.dp.epsilon_per_query = 2.0;
  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    TrainTreeOptions opts;
    PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));
    for (const PivotNode& n : tree.nodes) {
      if (n.is_leaf && std::abs(n.leaf_value) > 100.0) {
        return Status::Internal("DP leaf unreasonable");
      }
    }
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(PivotExtraTest, ReloadedEnhancedTreePredicts) {
  // Serialize each party's enhanced view, reload, and predict with the
  // reloaded model: shares must survive the round trip.
  Dataset data = TinyClassification(40, 4, 2, 76);
  FederationConfig cfg;
  cfg.num_parties = 2;
  cfg.params.tree.num_classes = 2;
  cfg.params.tree.max_depth = 2;
  cfg.params.key_bits = 384;
  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    TrainTreeOptions opts;
    opts.protocol = Protocol::kEnhanced;
    PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));
    PIVOT_ASSIGN_OR_RETURN(PivotTree reloaded,
                           DeserializePivotTree(SerializePivotTree(tree)));
    auto rows = SliceRowsForParty(data, ctx.id(), 2);
    for (int i = 0; i < 3; ++i) {
      PIVOT_ASSIGN_OR_RETURN(double a, PredictPivot(ctx, tree, rows[i]));
      PIVOT_ASSIGN_OR_RETURN(double b, PredictPivot(ctx, reloaded, rows[i]));
      if (a != b) return Status::Internal("reloaded model diverges");
    }
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(PivotExtraTest, NarrowRowIsInvalidArgument) {
  // A row narrower than the party's feature view must be rejected, not
  // read past its end, on both protocols. The root's owner sends an
  // empty row; everyone else sends a full one.
  Dataset data = TinyClassification(24, 4, 2, 78);
  FederationConfig cfg;
  cfg.num_parties = 2;
  cfg.params.tree.num_classes = 2;
  cfg.params.tree.max_depth = 2;
  cfg.params.key_bits = 384;
  for (Protocol protocol : {Protocol::kBasic, Protocol::kEnhanced}) {
    SCOPED_TRACE(protocol == Protocol::kBasic ? "basic" : "enhanced");
    Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
      TrainTreeOptions opts;
      opts.protocol = protocol;
      PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));
      if (tree.NumInternalNodes() == 0) {
        return Status::Internal("stump: the tree reads no feature");
      }
      std::vector<double> row = SliceRowsForParty(data, ctx.id(), 2)[0];
      if (ctx.id() == tree.nodes[0].owner) row.clear();
      return PredictPivot(ctx, tree, row).status();
    });
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
  }
}

TEST(PivotExtraTest, OutOfRangeOwnerIsInvalidArgument) {
  // A decoded model whose root names owner 7 in a 3-party federation.
  // Both sweeps must reject it on every party before sending anything:
  // no party owns the root, so the basic selectors would keep both leaves
  // and the enhanced sweep would wait for party 7's input.
  Dataset data = TinyClassification(12, 3, 2, 79);
  FederationConfig cfg;
  cfg.num_parties = 3;
  cfg.params.tree.num_classes = 2;
  cfg.params.key_bits = 256;
  for (Protocol protocol : {Protocol::kBasic, Protocol::kEnhanced}) {
    SCOPED_TRACE(protocol == Protocol::kBasic ? "basic" : "enhanced");
    PivotTree tree;
    tree.protocol = protocol;
    tree.num_classes = 2;
    PivotNode root;
    root.owner = 7;
    root.feature_local = 0;
    root.left = 1;
    root.right = 2;
    tree.nodes.push_back(root);
    for (int leaf = 0; leaf < 2; ++leaf) {
      PivotNode n;
      n.is_leaf = true;
      n.leaf_value = leaf;
      tree.nodes.push_back(n);
    }
    Result<PivotTree> decoded = DeserializePivotTree(SerializePivotTree(tree));
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
      const std::vector<double> row = SliceRowsForParty(data, ctx.id(), 3)[0];
      const uint64_t sent = ctx.endpoint().messages_sent();
      Result<std::vector<double>> preds =
          PredictPivotBatch(ctx, decoded.value(), {row});
      if (preds.ok()) {
        return Status::Internal("owner 7 accepted, prediction " +
                                std::to_string(preds.value()[0]));
      }
      if (preds.status().code() != StatusCode::kInvalidArgument) {
        return preds.status();
      }
      if (ctx.endpoint().messages_sent() != sent) {
        return Status::Internal("a message was sent before the rejection");
      }
      return Status::Ok();
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
}

TEST(PivotExtraTest, TrainingIsDeterministicInSeeds) {
  Dataset data = TinyClassification(40, 4, 2, 77);
  FederationConfig cfg;
  cfg.num_parties = 2;
  cfg.params.tree.num_classes = 2;
  cfg.params.tree.max_depth = 2;
  cfg.params.key_bits = 256;

  auto train_once = [&]() {
    std::vector<PivotNode> nodes;
    std::mutex mu;
    Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
      TrainTreeOptions opts;
      PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));
      if (ctx.id() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        nodes = tree.nodes;
      }
      return Status::Ok();
    });
    EXPECT_TRUE(st.ok()) << st.ToString();
    return nodes;
  };
  auto a = train_once();
  auto b = train_once();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].owner, b[i].owner);
    EXPECT_DOUBLE_EQ(a[i].threshold, b[i].threshold);
    EXPECT_DOUBLE_EQ(a[i].leaf_value, b[i].leaf_value);
  }
}

}  // namespace
}  // namespace pivot
