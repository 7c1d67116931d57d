#include <gtest/gtest.h>

#include <mutex>
#include <tuple>

#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "pivot/runner.h"
#include "pivot/serialize.h"
#include "pivot/trainer.h"

namespace pivot {
namespace {

// Structural invariants of trained Pivot trees over a parameter grid:
// protocol x task x (m, depth). Every tree must be a well-formed binary
// tree within the depth budget, with valid owners/features and exactly
// one more leaf than internal node.

using GridParam = std::tuple<Protocol, TreeTask, int /*m*/, int /*depth*/>;

class TrainerInvariantsTest : public ::testing::TestWithParam<GridParam> {};

int DepthOf(const PivotTree& tree, int id) {
  const PivotNode& n = tree.nodes[id];
  if (n.is_leaf) return 0;
  return 1 + std::max(DepthOf(tree, n.left), DepthOf(tree, n.right));
}

TEST_P(TrainerInvariantsTest, WellFormedTree) {
  const auto [protocol, task, m, depth] = GetParam();
  Dataset data;
  if (task == TreeTask::kRegression) {
    RegressionSpec spec;
    spec.num_samples = 30;
    spec.num_features = 2 * m;
    spec.seed = 1000 + m + depth;
    data = MakeRegression(spec);
  } else {
    ClassificationSpec spec;
    spec.num_samples = 30;
    spec.num_features = 2 * m;
    spec.num_classes = 2;
    spec.seed = 2000 + m + depth;
    data = MakeClassification(spec);
  }
  FederationConfig cfg;
  cfg.num_parties = m;
  cfg.params.tree.task = task;
  cfg.params.tree.num_classes = 2;
  cfg.params.tree.max_depth = depth;
  cfg.params.tree.max_splits = 3;
  cfg.params.tree.min_samples_split = 4;
  cfg.params.key_bits = protocol == Protocol::kEnhanced ? 384 : 256;

  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    TrainTreeOptions opts;
    opts.protocol = protocol;
    PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));

    // The model decoder accepts exactly the well-formed trees: one tree
    // rooted at node 0, children after their parent, one parent each.
    PIVOT_RETURN_IF_ERROR(
        DeserializePivotTree(SerializePivotTree(tree)).status());
    if (DepthOf(tree, 0) > depth) return Status::Internal("depth exceeded");
    if (tree.NumLeaves() != tree.NumInternalNodes() + 1) {
      return Status::Internal("leaf/internal count broken");
    }
    for (const PivotNode& n : tree.nodes) {
      if (n.is_leaf) {
        if (protocol == Protocol::kBasic &&
            task == TreeTask::kClassification &&
            (n.leaf_value < 0 || n.leaf_value > 1)) {
          return Status::Internal("leaf class out of range");
        }
        continue;
      }
      if (n.owner < -1 || n.owner >= m) return Status::Internal("bad owner");
      if (protocol == Protocol::kBasic) {
        if (n.owner < 0 || n.feature_local < 0) {
          return Status::Internal("basic node missing identity");
        }
        const int d_local = static_cast<int>(
            PartitionVertically(data, m).views[n.owner].num_features());
        if (n.feature_local >= d_local) {
          return Status::Internal("feature index out of range");
        }
      }
    }
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TrainerInvariantsTest,
    ::testing::Values(
        GridParam{Protocol::kBasic, TreeTask::kClassification, 2, 1},
        GridParam{Protocol::kBasic, TreeTask::kClassification, 3, 2},
        GridParam{Protocol::kBasic, TreeTask::kRegression, 2, 2},
        GridParam{Protocol::kEnhanced, TreeTask::kClassification, 2, 2},
        GridParam{Protocol::kEnhanced, TreeTask::kRegression, 2, 1}));

// Parallel threshold decryption must not change results.
TEST(ParallelDecryptionTest, SameTreeAsSequential) {
  ClassificationSpec spec;
  spec.num_samples = 30;
  spec.num_features = 4;
  spec.seed = 99;
  Dataset data = MakeClassification(spec);

  auto train = [&](int threads) {
    FederationConfig cfg;
    cfg.num_parties = 2;
    cfg.params.tree.num_classes = 2;
    cfg.params.tree.max_depth = 2;
    cfg.params.key_bits = 256;
    cfg.params.crypto_threads = threads;
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
  auto seq = train(1);
  auto par = train(4);
  ASSERT_EQ(seq.size(), par.size());
  for (size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i].owner, par[i].owner);
    EXPECT_DOUBLE_EQ(seq[i].threshold, par[i].threshold);
    EXPECT_DOUBLE_EQ(seq[i].leaf_value, par[i].leaf_value);
  }
}

// Every party's serialized view (shares, masks and public fields) is the
// same for crypto_threads 0 (auto), 1 and 4, under both protocols. 30
// samples and 3 candidate splits per feature put the split-statistic,
// mask-update and decryption kernels above the inline cut-off.
TEST(ParallelDecryptionTest, EveryPartyViewIsThreadCountInvariant) {
  ClassificationSpec spec;
  spec.num_samples = 30;
  spec.num_features = 6;
  spec.seed = 17;
  Dataset data = MakeClassification(spec);

  for (Protocol protocol : {Protocol::kBasic, Protocol::kEnhanced}) {
    auto train = [&](int threads) {
      FederationConfig cfg;
      cfg.num_parties = 3;
      cfg.params.tree.num_classes = 2;
      cfg.params.tree.max_depth = 2;
      cfg.params.tree.max_splits = 3;
      cfg.params.key_bits = protocol == Protocol::kEnhanced ? 384 : 256;
      cfg.params.crypto_threads = threads;
      std::vector<Bytes> views(cfg.num_parties);
      std::mutex mu;
      Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
        TrainTreeOptions opts;
        opts.protocol = protocol;
        PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));
        std::lock_guard<std::mutex> lock(mu);
        views[ctx.id()] = SerializePivotTree(tree);
        return Status::Ok();
      });
      EXPECT_TRUE(st.ok()) << st.ToString();
      return views;
    };
    const std::vector<Bytes> sequential = train(1);
    for (int threads : {0, 4}) {
      const std::vector<Bytes> fanned = train(threads);
      for (size_t p = 0; p < sequential.size(); ++p) {
        EXPECT_EQ(fanned[p], sequential[p])
            << "party " << p << " diverged at crypto_threads " << threads
            << (protocol == Protocol::kEnhanced ? " (enhanced)" : " (basic)");
      }
    }
  }
}

// An out-of-range crypto_threads is the runner's InvalidArgument, returned
// before any party (or pool worker) exists.
TEST(ParallelDecryptionTest, OutOfRangeCryptoThreadsIsAnError) {
  ClassificationSpec spec;
  spec.num_samples = 10;
  spec.num_features = 2;
  Dataset data = MakeClassification(spec);
  for (int threads : {-1, kMaxCryptoThreads + 1}) {
    FederationConfig cfg;
    cfg.num_parties = 2;
    cfg.params.key_bits = 256;
    cfg.params.crypto_threads = threads;
    bool ran = false;
    Status st = RunFederation(data, cfg, [&](PartyContext&) -> Status {
      ran = true;
      return Status::Ok();
    });
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << "threads=" << threads;
    EXPECT_FALSE(ran);
  }
}

}  // namespace
}  // namespace pivot
