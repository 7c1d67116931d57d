#ifndef PIVOT_COMMON_THREAD_POOL_H_
#define PIVOT_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/status.h"

namespace pivot {

// Largest accepted crypto_threads setting. ParallelFor grows the shared
// pool toward min(threads, count) - 1 workers, so an unchecked setting
// would become that many OS threads.
constexpr int kMaxCryptoThreads = 256;

// Number of CPUs this process may run on: the size of its affinity mask
// (sched_getaffinity), so taskset and CI runner limits are respected,
// falling back to std::thread::hardware_concurrency(). Never below 1.
// This is what crypto_threads = 0 ("auto") resolves to.
int AvailableCpus();

// Accepts a crypto_threads setting in [0, kMaxCryptoThreads] (0 = auto).
[[nodiscard]] Status ValidateCryptoThreads(int threads);

// Shared task pool for compute parallelism (batched Paillier kernels,
// threshold-decryption fan-out, offline randomness precomputation).
//
// Properties the crypto layer depends on:
//   - Lazily started: no worker threads exist until the first submission
//     (or an explicit Resize), so sequential runs pay nothing.
//   - Grow-only: Resize(k) ensures at least k workers. The pool is shared
//     by every simulated party in the process, so shrinking under one
//     party's feet is not supported; per-call fan-out is instead capped by
//     the `threads` argument of ParallelFor, which is what determinism
//     contracts key off (see DESIGN.md, "Parallelism model").
//   - Tasks return Status; a thrown exception is captured and converted to
//     kInternal (this codebase otherwise never throws).
//   - All waits are bounded (wait_for loops), matching the repo-wide
//     unbounded-wait lint rule; pool threads hold no locks while running
//     user tasks.
class ThreadPool {
 public:
  // Process-wide pool shared by all parties. Destroyed (and joined) at
  // process exit.
  static ThreadPool& Global();

  ThreadPool() = default;
  explicit ThreadPool(int threads) { Resize(threads); }
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Ensures at least `threads` workers are running (grow-only; <= 0 is a
  // no-op). Thread-safe.
  void Resize(int threads);
  int size() const;

  // Tracks a set of submitted tasks and joins on their completion.
  // Wait() returns the Status of the lowest-numbered failing task (OK if
  // all succeeded), so the reported error does not depend on scheduling.
  // A WaitGroup may be reused for a new round of submissions after Wait()
  // returns, including after an error.
  class WaitGroup {
   public:
    explicit WaitGroup(ThreadPool& pool);
    ~WaitGroup();

    WaitGroup(const WaitGroup&) = delete;
    WaitGroup& operator=(const WaitGroup&) = delete;

    // Schedules `task` on the pool (starting workers if needed).
    void Submit(std::function<Status()> task);
    // Blocks until every submitted task finished; returns the first error
    // in submission order.
    [[nodiscard]] Status Wait();

   private:
    friend class ThreadPool;
    ThreadPool& pool_;
    std::mutex mu_;
    std::condition_variable cv_;
    size_t pending_ = 0;
    size_t next_seq_ = 0;
    size_t error_seq_ = 0;
    Status first_error_;
  };

  // Fire-and-forget background submission (offline randomness prefill).
  // The task's Status is discarded; completion is observed through the
  // caller's own synchronization (e.g. EncRandomnessPool's in-flight
  // counter). Workers take a background task only when no WaitGroup task
  // (a ParallelFor chunk) is queued, so a prefill backlog never delays the
  // online batch that is waiting for its chunks.
  void Post(std::function<Status()> task);

  // Runs fn(i) for every i in [0, count), fanning out across at most
  // `threads` contiguous chunks. The chunk partition is a pure function of
  // (count, threads) — NOT of the pool size — so a given (count, threads)
  // pair always produces the same per-index work assignment. The caller
  // runs chunk 0 itself and the pool the other fan_out - 1, so the pool
  // grows to at most fan_out - 1 workers. Returns the first non-OK Status
  // (by chunk order); remaining chunks still run. threads <= 1 or a small
  // count runs inline on the caller.
  [[nodiscard]] Status ParallelFor(size_t count, int threads,
                                   const std::function<Status(size_t)>& fn);

 private:
  struct Task {
    std::function<Status()> fn;
    WaitGroup* group = nullptr;
    size_t seq = 0;
  };

  void WorkerLoop();
  void SubmitTask(Task task, bool background);

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Task> queue_;       // WaitGroup tasks, run first
  std::deque<Task> background_;  // Post()ed tasks
  std::vector<std::thread> workers_;
  bool stop_ = false;
};

}  // namespace pivot

#endif  // PIVOT_COMMON_THREAD_POOL_H_
