// Serving subsystem tests.
//
// Three layers:
//   1. RequestQueue / BatchScheduler unit tests — coalescing, linger,
//      close semantics, and the follower-side PopExactly contract.
//   2. Bit-exactness — every prediction entry point (ServingSession at
//      every batch size, PredictPivotMany, and PredictPivot, which is a
//      batch of one) must produce predictions identical to a plaintext
//      oracle, double for double, for every crypto thread count, on both
//      the basic and the enhanced protocol. The oracle evaluates the
//      public basic tree, or the enhanced tree rebuilt from all parties'
//      threshold and leaf shares, without any protocol code.
//   3. Serve-loop end-to-end — the coordinator/follower batch
//      announcement protocol drains mirrored queues and reports sane
//      serving statistics.

#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <thread>
#include <vector>

#include "common/fixed_point.h"
#include "data/synthetic.h"
#include "mpc/field.h"
#include "pivot/prediction.h"
#include "pivot/runner.h"
#include "pivot/trainer.h"
#include "serve/serving_session.h"

namespace pivot {
namespace {

constexpr int kParties = 3;

Dataset TinyData() {
  ClassificationSpec spec;
  spec.num_samples = 16;
  spec.num_features = 6;
  spec.num_classes = 2;
  spec.class_separation = 2.5;
  spec.seed = 91;
  return MakeClassification(spec);
}

FederationConfig TinyConfig(int key_bits, int crypto_threads = 1) {
  FederationConfig cfg;
  cfg.num_parties = kParties;
  cfg.params.tree.task = TreeTask::kClassification;
  cfg.params.tree.num_classes = 2;
  cfg.params.tree.max_depth = 2;
  cfg.params.tree.max_splits = 4;
  cfg.params.tree.min_samples_split = 5;
  cfg.params.key_bits = key_bits;
  cfg.params.crypto_threads = crypto_threads;
  return cfg;
}

// Trains one tiny tree per party and returns every party's view.
std::vector<PivotTree> TrainViews(Protocol protocol, int key_bits) {
  const Dataset data = TinyData();
  std::vector<PivotTree> views(kParties);
  std::mutex mu;
  Status st = RunFederation(data, TinyConfig(key_bits),
                            [&](PartyContext& ctx) -> Status {
                              TrainTreeOptions opts;
                              opts.protocol = protocol;
                              PIVOT_ASSIGN_OR_RETURN(PivotTree tree,
                                                     TrainPivotTree(ctx, opts));
                              std::lock_guard<std::mutex> lock(mu);
                              views[ctx.id()] = std::move(tree);
                              return Status::Ok();
                            });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return views;
}

// Plaintext oracle over the whole tiny set. Basic trees are public;
// enhanced trees are rebuilt by summing every view's threshold and leaf
// shares and evaluated with the protocol's comparison
// FixedFromDouble(x) <= tau.
std::vector<double> OraclePredict(const std::vector<PivotTree>& views) {
  const Dataset data = TinyData();
  const VerticalPartition part = PartitionVertically(data, kParties);
  std::vector<std::vector<int>> feature_map;
  for (const VerticalView& v : part.views) {
    feature_map.push_back(v.feature_indices);
  }
  const PivotTree& tree = views[0];
  std::vector<double> preds;
  for (size_t row = 0; row < data.num_samples(); ++row) {
    if (tree.protocol == Protocol::kBasic) {
      preds.push_back(tree.EvaluatePlain(data.features[row], feature_map));
      continue;
    }
    int id = 0;
    while (!tree.nodes[id].is_leaf) {
      const PivotNode& node = tree.nodes[id];
      u128 tau = 0;
      for (const PivotTree& v : views) {
        tau = FpAdd(tau, v.nodes[id].threshold_share);
      }
      const double x =
          part.views[node.owner].features[row][node.feature_local];
      id = FixedFromDouble(x) <= FpToSigned(tau) ? node.left : node.right;
    }
    u128 leaf = 0;
    for (const PivotTree& v : views) leaf = FpAdd(leaf, v.nodes[id].leaf_share);
    const i128 raw = FpToSigned(leaf);
    preds.push_back(tree.task == TreeTask::kRegression
                        ? FixedToDouble(static_cast<int64_t>(raw))
                        : static_cast<double>(raw));
  }
  return preds;
}

// Per-sample PredictPivot over the whole tiny set (a batch of one per
// row).
std::vector<double> ScalarPredict(const std::vector<PivotTree>& views,
                                  int key_bits) {
  const Dataset data = TinyData();
  std::vector<double> preds;
  std::mutex mu;
  Status st = RunFederation(
      data, TinyConfig(key_bits), [&](PartyContext& ctx) -> Status {
        const auto rows = SliceRowsForParty(data, ctx.id(), kParties);
        std::vector<double> mine;
        for (const auto& row : rows) {
          PIVOT_ASSIGN_OR_RETURN(double p,
                                 PredictPivot(ctx, views[ctx.id()], row));
          mine.push_back(p);
        }
        if (ctx.id() == 0) {
          std::lock_guard<std::mutex> lock(mu);
          preds = std::move(mine);
        }
        return Status::Ok();
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return preds;
}

// Serves the whole tiny set through ServingSession::Serve with the given
// batch size and thread count; returns party 0's predictions and stats.
std::vector<double> ServePredict(const std::vector<PivotTree>& views,
                                 int key_bits, int batch_size,
                                 int crypto_threads,
                                 serve::ServingStats* stats_out = nullptr) {
  const Dataset data = TinyData();
  std::vector<double> preds;
  std::mutex mu;
  Status st = RunFederation(
      data, TinyConfig(key_bits, crypto_threads),
      [&](PartyContext& ctx) -> Status {
        serve::ServeOptions opts;
        opts.batch_size = batch_size;
        opts.max_wait_ms = 0;
        opts.prewarm_pairs = 64;
        serve::ServingSession session(ctx, views[ctx.id()], opts);
        PIVOT_RETURN_IF_ERROR(session.Warmup());
        serve::RequestQueue queue;
        for (auto& row : SliceRowsForParty(data, ctx.id(), kParties)) {
          queue.Push(std::move(row));
        }
        queue.Close();
        std::vector<double> mine;
        PIVOT_ASSIGN_OR_RETURN(serve::ServingStats stats,
                               session.Serve(queue, &mine));
        if (ctx.id() == 0) {
          std::lock_guard<std::mutex> lock(mu);
          preds = std::move(mine);
          if (stats_out != nullptr) *stats_out = stats;
        }
        return Status::Ok();
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
  return preds;
}

// ---------------------------------------------------------------------------
// 1. Queue / scheduler units.
// ---------------------------------------------------------------------------

TEST(RequestQueueTest, PopBatchCoalescesUpToMax) {
  serve::RequestQueue q;
  for (int i = 0; i < 5; ++i) q.Push({double(i)});
  auto batch = q.PopBatch(/*max=*/3, /*linger_ms=*/0);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_EQ(batch[0].features[0], 0.0);
  EXPECT_EQ(batch[2].features[0], 2.0);
  batch = q.PopBatch(3, 0);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(q.depth(), 0u);
}

TEST(RequestQueueTest, RequestIdsAreAssignedInOrder) {
  serve::RequestQueue q;
  q.Push({1.0});
  q.Push({2.0});
  auto batch = q.PopBatch(8, 0);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_LT(batch[0].id, batch[1].id);
}

TEST(RequestQueueTest, PopBatchOnClosedEmptyQueueReturnsEmpty) {
  serve::RequestQueue q;
  q.Close();
  EXPECT_TRUE(q.PopBatch(4, 0).empty());
  // Pushes after close are dropped, not queued.
  q.Push({1.0});
  EXPECT_EQ(q.depth(), 0u);
}

TEST(RequestQueueTest, CloseDrainsRemainingRequests) {
  serve::RequestQueue q;
  q.Push({1.0});
  q.Close();
  EXPECT_EQ(q.PopBatch(4, 0).size(), 1u);
  EXPECT_TRUE(q.PopBatch(4, 0).empty());
}

TEST(RequestQueueTest, PopBatchLingersForLateArrivals) {
  serve::RequestQueue q;
  q.Push({1.0});
  std::thread late([&q] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    q.Push({2.0});
  });
  // A generous linger lets the late push join the first batch.
  auto batch = q.PopBatch(/*max=*/2, /*linger_ms=*/2000);
  late.join();
  EXPECT_EQ(batch.size(), 2u);
}

TEST(RequestQueueTest, PopExactlyDeliversAnnouncedCount) {
  serve::RequestQueue q;
  for (int i = 0; i < 4; ++i) q.Push({double(i)});
  Result<std::vector<serve::ServeRequest>> got = q.PopExactly(3, 1000);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().size(), 3u);
  EXPECT_EQ(q.depth(), 1u);
}

TEST(RequestQueueTest, PopExactlyTimesOutWhenStarved) {
  serve::RequestQueue q;
  q.Push({1.0});
  Result<std::vector<serve::ServeRequest>> got = q.PopExactly(3, 30);
  EXPECT_FALSE(got.ok());
  // The one queued request must still be there: a timed-out pop takes
  // nothing.
  EXPECT_EQ(q.depth(), 1u);
}

TEST(RequestQueueTest, PopExactlyFailsFastOnShortClosedQueue) {
  serve::RequestQueue q;
  q.Push({1.0});
  q.Close();
  Result<std::vector<serve::ServeRequest>> got = q.PopExactly(3, 10'000);
  EXPECT_FALSE(got.ok());
}

TEST(BatchSchedulerTest, NextBatchHonorsBatchSize) {
  serve::RequestQueue q;
  for (int i = 0; i < 10; ++i) q.Push({double(i)});
  serve::ServeOptions opts;
  opts.batch_size = 4;
  opts.max_wait_ms = 0;
  serve::BatchScheduler sched(&q, opts);
  EXPECT_EQ(sched.NextBatch().size(), 4u);
  EXPECT_EQ(sched.NextBatch().size(), 4u);
  EXPECT_EQ(sched.NextBatch().size(), 2u);
  q.Close();
  EXPECT_TRUE(sched.NextBatch().empty());
}

// ---------------------------------------------------------------------------
// 2. Bit-exactness against the plaintext oracle.
// ---------------------------------------------------------------------------

TEST(ServingBitExactTest, BasicBatchedMatchesScalarAtEveryBatchSize) {
  const auto views = TrainViews(Protocol::kBasic, 256);
  const auto oracle = OraclePredict(views);
  const auto scalar = ScalarPredict(views, 256);
  ASSERT_EQ(scalar.size(), TinyData().num_samples());
  EXPECT_EQ(scalar, oracle);
  for (int batch_size : {1, 2, 3, 4, 8}) {
    const auto batched = ServePredict(views, 256, batch_size, 1);
    EXPECT_EQ(batched, scalar) << "batch_size=" << batch_size;
    EXPECT_EQ(batched, oracle) << "batch_size=" << batch_size;
  }
}

TEST(ServingBitExactTest, EnhancedBatchedMatchesScalarAtEveryBatchSize) {
  const auto views = TrainViews(Protocol::kEnhanced, 384);
  const auto oracle = OraclePredict(views);
  const auto scalar = ScalarPredict(views, 384);
  ASSERT_EQ(scalar.size(), TinyData().num_samples());
  EXPECT_EQ(scalar, oracle);
  for (int batch_size : {1, 3, 8}) {
    const auto batched = ServePredict(views, 384, batch_size, 1);
    EXPECT_EQ(batched, scalar) << "batch_size=" << batch_size;
    EXPECT_EQ(batched, oracle) << "batch_size=" << batch_size;
  }
}

TEST(ServingBitExactTest, CryptoThreadCountDoesNotChangePredictions) {
  const auto views = TrainViews(Protocol::kBasic, 256);
  const auto oracle = OraclePredict(views);
  const auto scalar = ScalarPredict(views, 256);
  const auto fanned = ServePredict(views, 256, /*batch_size=*/4,
                                   /*crypto_threads=*/4);
  EXPECT_EQ(scalar, oracle);
  EXPECT_EQ(fanned, scalar);
  EXPECT_EQ(fanned, oracle);
}

TEST(ServingBitExactTest, PredictPivotManyMatchesScalar) {
  const auto views = TrainViews(Protocol::kBasic, 256);
  const auto scalar = ScalarPredict(views, 256);
  const Dataset data = TinyData();
  std::vector<double> many;
  std::mutex mu;
  Status st = RunFederation(
      data, TinyConfig(256), [&](PartyContext& ctx) -> Status {
        const auto rows = SliceRowsForParty(data, ctx.id(), kParties);
        PIVOT_ASSIGN_OR_RETURN(std::vector<double> preds,
                               PredictPivotMany(ctx, views[ctx.id()], rows));
        if (ctx.id() == 0) {
          std::lock_guard<std::mutex> lock(mu);
          many = std::move(preds);
        }
        return Status::Ok();
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(scalar, OraclePredict(views));
  EXPECT_EQ(many, scalar);
  EXPECT_EQ(many, OraclePredict(views));
}

// ---------------------------------------------------------------------------
// 3. Serve-loop end-to-end.
// ---------------------------------------------------------------------------

TEST(ServingSessionTest, ServeReportsSaneStats) {
  const auto views = TrainViews(Protocol::kBasic, 256);
  serve::ServingStats stats;
  const auto preds = ServePredict(views, 256, /*batch_size=*/4,
                                  /*crypto_threads=*/1, &stats);
  const size_t n = TinyData().num_samples();
  ASSERT_EQ(preds.size(), n);
  EXPECT_EQ(preds, OraclePredict(views));
  EXPECT_EQ(stats.requests, n);
  EXPECT_EQ(stats.batches, (n + 3) / 4);
  EXPECT_GT(stats.requests_per_sec, 0.0);
  EXPECT_GT(stats.wall_seconds, 0.0);
  EXPECT_GT(stats.mean_occupancy, 0.0);
  EXPECT_LE(stats.mean_occupancy, 1.0);
  EXPECT_LE(stats.p50_ms, stats.p99_ms);
  EXPECT_LE(stats.p99_ms, stats.max_ms + 1e-9);
  EXPECT_GE(stats.max_queue_depth, 1u);
}

TEST(ServingSessionTest, EmptyClosedQueueServesNothing) {
  const auto views = TrainViews(Protocol::kBasic, 256);
  const Dataset data = TinyData();
  Status st = RunFederation(
      data, TinyConfig(256), [&](PartyContext& ctx) -> Status {
        serve::ServeOptions opts;
        serve::ServingSession session(ctx, views[ctx.id()], opts);
        serve::RequestQueue queue;
        queue.Close();
        std::vector<double> preds;
        PIVOT_ASSIGN_OR_RETURN(serve::ServingStats stats,
                               session.Serve(queue, &preds));
        if (stats.requests != 0 || !preds.empty()) {
          return Status::Internal("served requests from an empty queue");
        }
        return Status::Ok();
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
}

TEST(ServingSessionTest, WarmupIsIdempotent) {
  const auto views = TrainViews(Protocol::kBasic, 256);
  const Dataset data = TinyData();
  Status st = RunFederation(
      data, TinyConfig(256), [&](PartyContext& ctx) -> Status {
        serve::ServeOptions opts;
        opts.prewarm_pairs = 8;
        serve::ServingSession session(ctx, views[ctx.id()], opts);
        PIVOT_RETURN_IF_ERROR(session.Warmup());
        PIVOT_RETURN_IF_ERROR(session.Warmup());
        return Status::Ok();
      });
  EXPECT_TRUE(st.ok()) << st.ToString();
}

}  // namespace
}  // namespace pivot
