#include "serve/request_queue.h"

#include <algorithm>

namespace pivot {
namespace serve {

namespace {
// Slice of the indefinite first-request wait; short enough that Close()
// (or session teardown) is observed promptly on spurious-wakeup-free
// platforms too.
constexpr std::chrono::milliseconds kIdleSlice(50);
}  // namespace

uint64_t RequestQueue::Push(std::vector<double> features) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return next_id_;
  ServeRequest req;
  req.id = next_id_++;
  req.features = std::move(features);
  req.enqueued = std::chrono::steady_clock::now();
  q_.push_back(std::move(req));
  cv_.notify_all();
  return q_.back().id;
}

void RequestQueue::Close() {
  std::lock_guard<std::mutex> lock(mu_);
  closed_ = true;
  cv_.notify_all();
}

size_t RequestQueue::depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return q_.size();
}

bool RequestQueue::closed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return closed_;
}

std::vector<ServeRequest> RequestQueue::PopBatch(size_t max, int linger_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  // Phase 1: wait (indefinitely, in bounded slices) for the first
  // request or a closed stream. A serving session is *supposed* to idle
  // here while no traffic arrives.
  while (q_.empty() && !closed_) {
    cv_.wait_for(lock, kIdleSlice);
  }
  // Phase 2: linger up to linger_ms for the batch to fill.
  if (!q_.empty() && q_.size() < max && !closed_ && linger_ms > 0) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(linger_ms);
    while (q_.size() < max && !closed_) {
      if (cv_.wait_until(lock, deadline) == std::cv_status::timeout) break;
    }
  }
  std::vector<ServeRequest> out;
  const size_t take = std::min(max, q_.size());
  out.reserve(take);
  for (size_t i = 0; i < take; ++i) {
    out.push_back(std::move(q_.front()));
    q_.pop_front();
  }
  return out;
}

Result<std::vector<ServeRequest>> RequestQueue::PopExactly(size_t n,
                                                           int timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(std::max(0, timeout_ms));
  while (q_.size() < n) {
    if (closed_ && q_.size() < n) {
      return Status::FailedPrecondition(
          "request queue closed short of the announced batch");
    }
    if (cv_.wait_until(lock, deadline) == std::cv_status::timeout &&
        q_.size() < n) {
      return Status::ProtocolError(
          "request queue did not deliver the announced batch in time");
    }
  }
  std::vector<ServeRequest> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.push_back(std::move(q_.front()));
    q_.pop_front();
  }
  return out;
}

}  // namespace serve
}  // namespace pivot
