#ifndef PIVOT_SERVE_SERVING_SESSION_H_
#define PIVOT_SERVE_SERVING_SESSION_H_

#include <vector>

#include "pivot/prediction.h"
#include "serve/batch_scheduler.h"
#include "serve/metrics.h"

namespace pivot {
namespace serve {

// A per-party serving session: pins one loaded model and owns the warm
// per-model state every request reuses —
//
//   * a PredictionCache (leaf paths, the plaintext leaf/label vector,
//     fixed-base window tables over retained lambda selectors),
//   * a pre-warmed offline encryption-randomness pool (Warmup computes
//     prewarm_pairs (r, r^n) pairs, so online encrypts/rerandomizes cost
//     one modular multiplication instead of a full exponentiation;
//     skipped for an enhanced model without lambda selectors, whose
//     sweep encrypts nothing),
//
// and runs the batched prediction protocol over coalesced request
// batches: one Algorithm 4 round-robin sweep (or one enhanced-protocol
// pass) serves a whole batch per network round.
//
// SPMD like everything else: every party constructs a session over its
// own context/tree view and calls Serve with its own mirrored queue.
// Party 0 is the batching coordinator — it cuts the request stream into
// batches and announces each batch size via a redundant header; followers
// mirror the cut from their own queues.
class ServingSession {
 public:
  ServingSession(PartyContext& ctx, const PivotTree& tree,
                 const ServeOptions& opts)
      : ctx_(ctx), tree_(tree), opts_(opts) {}

  // Builds the prediction cache and pre-warms the randomness pool when
  // the model's sweep draws from it.
  // Idempotent; PredictBatch/Serve call it on first use, but serving
  // setups call it explicitly to keep warmup out of the measured path.
  Status Warmup();

  // One batched prediction sweep over `rows` (this party's slices),
  // against the pinned model state. All parties must pass equally many
  // rows.
  Result<std::vector<double>> PredictBatch(
      const std::vector<std::vector<double>>& rows);

  // Drains `queue` until it is closed and empty, running one batched
  // protocol sweep per coalesced batch. Predictions are appended to
  // `predictions` (in request order) when non-null. Returns the session's
  // aggregate serving statistics.
  Result<ServingStats> Serve(RequestQueue& queue,
                             std::vector<double>* predictions);

  const ServeOptions& options() const { return opts_; }
  const ServingStats& stats() const { return stats_; }

 private:
  PartyContext& ctx_;
  const PivotTree& tree_;
  ServeOptions opts_;
  PredictionCache cache_;
  ServingStats stats_;
  bool warmed_ = false;
};

}  // namespace serve
}  // namespace pivot

#endif  // PIVOT_SERVE_SERVING_SESSION_H_
