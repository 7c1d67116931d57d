// Serving-throughput ablation: one-at-a-time prediction vs the batched
// serving path (src/serve/).
//
// Trains one basic-protocol Pivot tree, then replays a fixed request
// stream through two pipelines on the same federation topology:
//   1. "scalar" baseline — one PredictPivot call per request, i.e. a
//      batch of one per request: one Algorithm-4 round-robin sweep, one
//      joint decryption and a rebuilt prediction cache per request,
//      cold randomness pool (an offline phase of zero pairs, which also
//      stops the rolling refill, so every pair is an online miss);
//   2. ServingSession at batch sizes 1/8/64 — warm per-model caches,
//      pre-warmed encryption-randomness pool, and one batched protocol
//      sweep (one ciphertext-matrix hop per party, one joint decryption
//      of the whole batch) per coalesced batch.
// All requests are enqueued at t=0 (drain-the-backlog semantics), so
// per-request latency means the same thing in every mode: time from
// stream start to that request's completion.
//
// The bench asserts bit-exactness: every mode must produce predictions
// identical to the scalar baseline, double for double. Results go to
// bench_results/bench_serving.json (requests/sec, p50/p99 latency,
// speedup vs scalar). The speedup is algorithmic, not core-count:
// pool-hit encrypt/rerandomize costs one modular multiplication instead
// of a full exponentiation, and network rounds and joint decryptions
// amortize across the batch. Every mode runs at the library default,
// crypto_threads = 0 (auto; hardware_threads and available_cpus are
// recorded in the JSON).

#include <cstring>

#include "bench/bench_util.h"
#include "serve/serving_session.h"

using namespace pivot;
using namespace pivot::bench;

namespace {

struct ModeResult {
  std::vector<double> preds;
  serve::ServingStats stats;
  OpSnapshot ops;
};

// Builds the request stream: `requests` rows cycled from the dataset,
// sliced to one party's feature view.
std::vector<std::vector<double>> RequestRows(const Dataset& data, int party,
                                             int m, int requests) {
  const auto base = SliceRowsForParty(data, party, m);
  std::vector<std::vector<double>> rows;
  rows.reserve(requests);
  for (int i = 0; i < requests; ++i) rows.push_back(base[i % base.size()]);
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  Workload w = Workload::Default(args);
  w.n = args.tiny ? 40 : 120;
  const int requests = args.tiny ? 12 : 192;
  const int key_bits = 256;

  Dataset data = MakeWorkloadData(w, 23);
  FederationConfig cfg = MakeFederationConfig(w, args, key_bits);
  cfg.params.crypto_threads = 0;

  // --- Train the served model once (basic protocol). ---------------------
  std::vector<PivotTree> views(w.m);
  std::mutex mu;
  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    TrainTreeOptions opts;
    PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));
    std::lock_guard<std::mutex> lock(mu);
    views[ctx.id()] = std::move(tree);
    return Status::Ok();
  });
  if (!st.ok()) {
    std::fprintf(stderr, "training failed: %s\n", st.ToString().c_str());
    return 1;
  }
  const int leaves = views[0].NumLeaves();
  std::printf("# serving %d requests against a %d-leaf basic-protocol tree "
              "(m=%d, %d-bit keys, host has %u hardware threads)\n",
              requests, leaves, w.m, key_bits,
              std::thread::hardware_concurrency());

  // --- 1. Scalar baseline: one PredictPivot call per request. ------------
  auto run_scalar = [&]() -> Result<ModeResult> {
    ModeResult out;
    const OpSnapshot before = OpSnapshot::Take();
    PIVOT_RETURN_IF_ERROR(RunFederation(
        data, cfg, [&](PartyContext& ctx) -> Status {
          const auto rows = RequestRows(data, ctx.id(), w.m, requests);
          ctx.PrewarmEncPool(0);
          serve::LatencyRecorder latency;
          WallTimer timer;
          std::vector<double> preds;
          preds.reserve(rows.size());
          for (const auto& row : rows) {
            PIVOT_ASSIGN_OR_RETURN(double p,
                                   PredictPivot(ctx, views[ctx.id()], row));
            preds.push_back(p);
            latency.Record(timer.ElapsedMillis());
          }
          if (ctx.id() == 0) {
            std::lock_guard<std::mutex> lock(mu);
            out.stats.requests = preds.size();
            out.stats.batches = preds.size();
            out.stats.wall_seconds = timer.ElapsedSeconds();
            out.stats.requests_per_sec =
                preds.size() / out.stats.wall_seconds;
            out.stats.mean_occupancy = 1.0;
            out.stats.p50_ms = latency.Percentile(50.0);
            out.stats.p99_ms = latency.Percentile(99.0);
            out.stats.mean_ms = latency.Mean();
            out.stats.max_ms = latency.Max();
            out.preds = std::move(preds);
          }
          return Status::Ok();
        }));
    out.ops = OpSnapshot::Take().Delta(before);
    return out;
  };

  // --- 2. Batched serving at a given batch size. --------------------------
  auto run_batched = [&](int batch_size) -> Result<ModeResult> {
    ModeResult out;
    const OpSnapshot before = OpSnapshot::Take();
    PIVOT_RETURN_IF_ERROR(RunFederation(
        data, cfg, [&](PartyContext& ctx) -> Status {
          serve::ServeOptions opts;
          opts.batch_size = batch_size;
          opts.max_wait_ms = 0;  // backlog is pre-filled; never linger
          opts.prewarm_pairs =
              static_cast<uint64_t>(requests) * static_cast<uint64_t>(leaves);
          serve::ServingSession session(ctx, views[ctx.id()], opts);
          PIVOT_RETURN_IF_ERROR(session.Warmup());
          serve::RequestQueue queue;
          for (auto& row : RequestRows(data, ctx.id(), w.m, requests)) {
            queue.Push(std::move(row));
          }
          queue.Close();
          std::vector<double> preds;
          PIVOT_ASSIGN_OR_RETURN(serve::ServingStats stats,
                                 session.Serve(queue, &preds));
          if (ctx.id() == 0) {
            std::lock_guard<std::mutex> lock(mu);
            out.stats = stats;
            out.preds = std::move(preds);
          }
          return Status::Ok();
        }));
    out.ops = OpSnapshot::Take().Delta(before);
    return out;
  };

  std::vector<JsonObject> rows;
  std::printf("%-12s %10s %12s %10s %10s %10s\n", "mode", "seconds", "req/s",
              "p50(ms)", "p99(ms)", "speedup");

  Result<ModeResult> scalar = run_scalar();
  if (!scalar.ok()) {
    std::fprintf(stderr, "scalar baseline failed: %s\n",
                 scalar.status().ToString().c_str());
    return 1;
  }
  const double scalar_rps = scalar.value().stats.requests_per_sec;
  auto emit = [&](const std::string& mode, int batch_size,
                  const ModeResult& r) {
    const double speedup = r.stats.requests_per_sec / scalar_rps;
    std::printf("%-12s %9.3fs %12.1f %10.2f %10.2f %9.2fx\n", mode.c_str(),
                r.stats.wall_seconds, r.stats.requests_per_sec, r.stats.p50_ms,
                r.stats.p99_ms, speedup);
    JsonObject row;
    row.Set("mode", mode)
        .Set("batch_size", batch_size)
        .Set("requests", r.stats.requests)
        .Set("batches", r.stats.batches)
        .Set("wall_seconds", r.stats.wall_seconds)
        .Set("requests_per_sec", r.stats.requests_per_sec)
        .Set("mean_occupancy", r.stats.mean_occupancy)
        .Set("p50_ms", r.stats.p50_ms)
        .Set("p99_ms", r.stats.p99_ms)
        .Set("mean_ms", r.stats.mean_ms)
        .Set("max_ms", r.stats.max_ms)
        .Set("speedup_vs_scalar", speedup)
        .SetOps(r.ops);
    rows.push_back(row);
  };
  emit("scalar", 0, scalar.value());

  for (int batch_size : {1, 8, 64}) {
    Result<ModeResult> r = run_batched(batch_size);
    if (!r.ok()) {
      std::fprintf(stderr, "batch=%d failed: %s\n", batch_size,
                   r.status().ToString().c_str());
      return 1;
    }
    // Bit-exactness gate: the batched protocol must reproduce the scalar
    // predictions exactly, double for double, at every batch size.
    if (r.value().preds.size() != scalar.value().preds.size() ||
        std::memcmp(r.value().preds.data(), scalar.value().preds.data(),
                    r.value().preds.size() * sizeof(double)) != 0) {
      std::fprintf(stderr,
                   "batch=%d predictions diverge from the scalar baseline\n",
                   batch_size);
      return 1;
    }
    emit("batch" + std::to_string(batch_size), batch_size, r.value());
  }

  JsonObject meta;
  meta.Set("protocol", "basic")
      .Set("key_bits", key_bits)
      .Set("crypto_threads", cfg.params.crypto_threads)
      .Set("parties", w.m)
      .Set("tree_leaves", leaves)
      .Set("requests", requests);
  WriteBenchJson("bench_serving", meta, rows);
  std::printf("# expectation: batch-64 requests/sec >= 3x the scalar "
              "baseline (warm pool + batched sweeps); predictions are "
              "bit-identical in every mode\n");
  return 0;
}
