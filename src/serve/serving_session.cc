#include "serve/serving_session.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "common/op_counters.h"

namespace pivot {
namespace serve {

namespace {

double MsSince(std::chrono::steady_clock::time_point start,
               std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

Status ServingSession::Warmup() {
  if (warmed_) return Status::Ok();
  cache_ = BuildPredictionCache(ctx_.pk(), tree_);
  // The enhanced sweep encrypts only to convert hidden-feature values, so
  // a model without lambda selectors never draws a pool pair.
  const bool draws_pairs =
      tree_.protocol == Protocol::kBasic || !cache_.lambda.empty();
  if (opts_.prewarm_pairs > 0 && draws_pairs) {
    ctx_.enc_pool().Prefill(opts_.prewarm_pairs);
  }
  warmed_ = true;
  return Status::Ok();
}

Result<std::vector<double>> ServingSession::PredictBatch(
    const std::vector<std::vector<double>>& rows) {
  PIVOT_RETURN_IF_ERROR(Warmup());
  return PredictPivotBatch(ctx_, tree_, rows, &cache_);
}

Result<ServingStats> ServingSession::Serve(RequestQueue& queue,
                                           std::vector<double>* predictions) {
  PIVOT_RETURN_IF_ERROR(Warmup());
  // Bind the output sink once, before any prediction exists: the loop
  // below must never branch on the (secret-carrying) prediction buffer.
  std::vector<double> discard;
  std::vector<double>& sink = predictions != nullptr ? *predictions : discard;
  const bool coordinator = ctx_.id() == 0;
  BatchScheduler scheduler(&queue, opts_);
  ServingStats stats;
  LatencyRecorder latency;
  const auto wall_start = std::chrono::steady_clock::now();

  while (true) {
    std::vector<ServeRequest> batch;
    uint64_t announced = 0;
    if (coordinator) {
      stats.max_queue_depth = std::max(stats.max_queue_depth,
                                       static_cast<uint64_t>(queue.depth()));
      batch = scheduler.NextBatch();
      announced = batch.size();
      if (ctx_.num_parties() > 1) {
        ByteWriter w;
        PIVOT_RETURN_IF_ERROR(EncodeBatchHeader(announced, w));
        PIVOT_RETURN_IF_ERROR(ctx_.endpoint().Broadcast(w.Take()));
      }
    } else {
      PIVOT_ASSIGN_OR_RETURN(Bytes msg, ctx_.endpoint().Recv(0));
      PIVOT_ASSIGN_OR_RETURN(announced, DecodeBatchHeader(msg));
      if (announced > 0) {
        PIVOT_ASSIGN_OR_RETURN(
            batch, queue.PopExactly(announced, opts_.follower_timeout_ms));
      }
    }
    if (announced == 0) break;  // stream closed and drained: shut down

    std::vector<std::vector<double>> rows;
    rows.reserve(batch.size());
    for (ServeRequest& req : batch) rows.push_back(std::move(req.features));
    PIVOT_ASSIGN_OR_RETURN(std::vector<double> preds, PredictBatch(rows));
    const auto done = std::chrono::steady_clock::now();
    for (const ServeRequest& req : batch) {
      latency.Record(MsSince(req.enqueued, done));
    }
    stats.requests += announced;
    stats.batches += 1;
    OpCounters::Global().AddServeRequests(announced);
    OpCounters::Global().AddServeBatch();
    sink.insert(sink.end(), preds.begin(), preds.end());
  }

  stats.wall_seconds =
      MsSince(wall_start, std::chrono::steady_clock::now()) / 1000.0;
  if (stats.batches > 0 && opts_.batch_size > 0) {
    stats.mean_occupancy =
        static_cast<double>(stats.requests) /
        (static_cast<double>(stats.batches) *
         static_cast<double>(opts_.batch_size));
  }
  if (stats.wall_seconds > 0.0) {
    stats.requests_per_sec =
        static_cast<double>(stats.requests) / stats.wall_seconds;
  }
  stats.p50_ms = latency.Percentile(50.0);
  stats.p99_ms = latency.Percentile(99.0);
  stats.mean_ms = latency.Mean();
  stats.max_ms = latency.Max();
  stats_ = stats;
  return stats;
}

}  // namespace serve
}  // namespace pivot
