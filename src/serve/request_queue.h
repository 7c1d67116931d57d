#ifndef PIVOT_SERVE_REQUEST_QUEUE_H_
#define PIVOT_SERVE_REQUEST_QUEUE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <vector>

#include "common/status.h"

namespace pivot {
namespace serve {

// One queued prediction request, as seen by ONE party. In vertical FL a
// request fans out to all parties — each holds its own slice of the
// sample's features — so every party owns a mirrored queue carrying its
// slice of the same request stream in the same order.
struct ServeRequest {
  uint64_t id = 0;
  std::vector<double> features;  // this party's feature slice
  std::chrono::steady_clock::time_point enqueued;
};

// Thread-safe pending-request queue for one party's serving session.
// Producers Push feature slices (ids assigned in arrival order) and
// Close the stream when done; the serve loop drains it in batches.
class RequestQueue {
 public:
  // Enqueues one request; returns its id.
  uint64_t Push(std::vector<double> features);
  // Marks the stream finished. Already-queued requests remain poppable;
  // further Push calls are dropped.
  void Close();

  size_t depth() const;
  bool closed() const;

  // Coordinator side: blocks until at least one request is available (or
  // the stream is closed), then lingers up to `linger_ms` for the batch
  // to fill to `max`. An empty result means closed-and-drained.
  std::vector<ServeRequest> PopBatch(size_t max, int linger_ms);

  // Follower side: the coordinator announced a batch of exactly `n`; pop
  // exactly that many. Fails if the mirrored stream does not deliver
  // within `timeout_ms` (a desynchronized feeder, not a protocol fault)
  // or closes short of the announced count.
  Result<std::vector<ServeRequest>> PopExactly(size_t n, int timeout_ms);

 private:
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<ServeRequest> q_;
  bool closed_ = false;
  uint64_t next_id_ = 0;
};

// Batching knobs for a serving session.
struct ServeOptions {
  // Max requests coalesced into one protocol sweep.
  int batch_size = 16;
  // How long the coordinator lingers for a partial batch to fill once at
  // least one request is pending. 0 = cut immediately.
  int max_wait_ms = 5;
  // Offline (r, r^n) pairs to precompute at Warmup. 0 = none; serving
  // then pays the full encryption exponentiation online per ciphertext.
  uint64_t prewarm_pairs = 0;
  // Bound on a follower waiting for its mirrored queue to deliver the
  // coordinator-announced batch.
  int follower_timeout_ms = 120000;
};

}  // namespace serve
}  // namespace pivot

#endif  // PIVOT_SERVE_REQUEST_QUEUE_H_
