#include "pivot/serialize.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <functional>

namespace pivot {
namespace {

PivotTree MakePivotTreeFixture(Protocol protocol) {
  PivotTree tree;
  tree.protocol = protocol;
  tree.task = TreeTask::kClassification;
  tree.num_classes = 3;
  PivotNode root;
  root.owner = 1;
  root.feature_local = 2;
  root.threshold = protocol == Protocol::kBasic ? 3.25 : 0.0;
  root.threshold_share = protocol == Protocol::kEnhanced ? 12345 : 0;
  root.left = 1;
  root.right = 2;
  tree.nodes.push_back(root);
  for (int leaf = 0; leaf < 2; ++leaf) {
    PivotNode n;
    n.is_leaf = true;
    n.leaf_value = leaf;
    n.leaf_share = protocol == Protocol::kEnhanced ? 777u + leaf : 0;
    tree.nodes.push_back(n);
  }
  return tree;
}

TEST(SerializeTest, PivotTreeBasicRoundTrip) {
  PivotTree tree = MakePivotTreeFixture(Protocol::kBasic);
  Result<PivotTree> back = DeserializePivotTree(SerializePivotTree(tree));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().protocol, Protocol::kBasic);
  EXPECT_EQ(back.value().num_classes, 3);
  ASSERT_EQ(back.value().nodes.size(), 3u);
  EXPECT_DOUBLE_EQ(back.value().nodes[0].threshold, 3.25);
  EXPECT_EQ(back.value().nodes[0].owner, 1);
  EXPECT_TRUE(back.value().nodes[1].is_leaf);
}

TEST(SerializeTest, PivotTreeEnhancedKeepsShares) {
  PivotTree tree = MakePivotTreeFixture(Protocol::kEnhanced);
  tree.nodes[0].feature_local = -1;
  tree.nodes[0].lambda_slices = {{}, {Ciphertext{BigInt(5)}}};
  tree.nodes[0].lambda_features = {{}, {3}};
  tree.nodes[1].leaf_mask = {Ciphertext{BigInt(7)}, Ciphertext{BigInt(8)}};
  Result<PivotTree> back = DeserializePivotTree(SerializePivotTree(tree));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().protocol, Protocol::kEnhanced);
  EXPECT_TRUE(back.value().nodes[0].threshold_share == 12345u);
  EXPECT_TRUE(back.value().nodes[1].leaf_share == 777u);
  EXPECT_TRUE(back.value().nodes[2].leaf_share == 778u);
  EXPECT_EQ(back.value().nodes[0].lambda_slices, tree.nodes[0].lambda_slices);
  EXPECT_EQ(back.value().nodes[0].lambda_features,
            tree.nodes[0].lambda_features);
  EXPECT_EQ(back.value().nodes[1].leaf_mask, tree.nodes[1].leaf_mask);
}

TEST(SerializeTest, EnsembleRoundTrip) {
  PivotEnsemble model;
  model.task = TreeTask::kRegression;
  model.num_classes = 1;
  model.learning_rate = 0.25;
  model.forests.resize(2);
  model.forests[0].push_back(MakePivotTreeFixture(Protocol::kBasic));
  model.forests[1].push_back(MakePivotTreeFixture(Protocol::kBasic));
  model.forests[1].push_back(MakePivotTreeFixture(Protocol::kBasic));
  Result<PivotEnsemble> back =
      DeserializePivotEnsemble(SerializePivotEnsemble(model));
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().forests.size(), 2u);
  EXPECT_EQ(back.value().forests[1].size(), 2u);
  EXPECT_DOUBLE_EQ(back.value().learning_rate, 0.25);
}

TEST(SerializeTest, RejectsWrongMagicAndTruncation) {
  Bytes garbage = {1, 2, 3, 4, 5};
  EXPECT_FALSE(DeserializePivotTree(garbage).ok());
  EXPECT_FALSE(DeserializePivotEnsemble(garbage).ok());
  Bytes tree_bytes = SerializePivotTree(MakePivotTreeFixture(Protocol::kBasic));
  tree_bytes.resize(tree_bytes.size() / 2);
  EXPECT_FALSE(DeserializePivotTree(tree_bytes).ok());
  Bytes ensemble = SerializePivotEnsemble(PivotEnsemble{});
  ensemble[24] = 0x10;  // 2^60 forests: an error, not an allocation
  EXPECT_FALSE(DeserializePivotEnsemble(ensemble).ok());
}

TEST(SerializeTest, RejectsCorruptChildIndices) {
  const std::vector<std::function<void(PivotTree&)>> corruptions = {
      [](PivotTree& t) { t.nodes[0].left = 99; },  // out of range
      [](PivotTree& t) { t.nodes[0].left = 0; },   // self-loop
      [](PivotTree& t) { t.nodes[0].right = 1; },  // shared child
      // A model file has no open child slot.
      [](PivotTree& t) { t.nodes[0].right = -1; t.nodes.pop_back(); },
      [](PivotTree& t) {  // selector and feature list sizes differ
        t.nodes[0].lambda_slices = {{Ciphertext{BigInt(5)}}};
        t.nodes[0].lambda_features = {{}};
      },
      // Hidden feature without a selector.
      [](PivotTree& t) { t.nodes[0].feature_local = -1; },
  };
  for (size_t i = 0; i < corruptions.size(); ++i) {
    PivotTree tree = MakePivotTreeFixture(Protocol::kEnhanced);
    corruptions[i](tree);
    EXPECT_FALSE(DeserializePivotTree(SerializePivotTree(tree)).ok())
        << "corruption " << i;
  }
}

TEST(SerializeTest, FileRoundTrip) {
  const std::string path = "/tmp/pivot_model_test.bin";
  Bytes data = SerializePivotTree(MakePivotTreeFixture(Protocol::kBasic));
  ASSERT_TRUE(SaveModelBytes(data, path).ok());
  Result<Bytes> loaded = LoadModelBytes(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value(), data);
  std::remove(path.c_str());
  EXPECT_FALSE(LoadModelBytes(path).ok());
}

}  // namespace
}  // namespace pivot
