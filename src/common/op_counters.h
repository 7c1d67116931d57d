#ifndef PIVOT_COMMON_OP_COUNTERS_H_
#define PIVOT_COMMON_OP_COUNTERS_H_

#include <atomic>
#include <cstdint>
#include <string>

namespace pivot {

// Global counters for the cost-model quantities of the paper's Table 2:
//   Ce - operations on homomorphically encrypted values
//   Cd - threshold decryptions
//   Cs - operations on secretly shared values
//   Cc - secure comparisons
// plus kernel, checkpoint and serving accounting. Network traffic is
// counted once, per endpoint (net/network.h, NetworkStats). Counters are
// process-wide and thread-safe; the bench harness snapshots them around a
// protocol run to report per-experiment operation counts.
class OpCounters {
 public:
  static OpCounters& Global();

  void AddCiphertextOp(uint64_t n = 1) { ce_.fetch_add(n, std::memory_order_relaxed); }
  void AddThresholdDecryption(uint64_t n = 1) { cd_.fetch_add(n, std::memory_order_relaxed); }
  void AddSecureOp(uint64_t n = 1) { cs_.fetch_add(n, std::memory_order_relaxed); }
  void AddSecureComparison(uint64_t n = 1) { cc_.fetch_add(n, std::memory_order_relaxed); }
  // Checkpoint write/restore accounting (pivot/checkpoint.h): one call
  // per snapshot, carrying the serialize+store / load+restore time, so
  // resume overhead shows up next to the cost-model counters.
  void AddCheckpointWrite(uint64_t micros) {
    ckpt_writes_.fetch_add(1, std::memory_order_relaxed);
    ckpt_write_us_.fetch_add(micros, std::memory_order_relaxed);
  }
  void AddCheckpointRestore(uint64_t micros) {
    ckpt_restores_.fetch_add(1, std::memory_order_relaxed);
    ckpt_restore_us_.fetch_add(micros, std::memory_order_relaxed);
  }
  // Parallel crypto kernel accounting (common/thread_pool.h and
  // crypto/paillier_batch.h): tasks scheduled on the shared pool, batch
  // kernel invocations, and offline encryption-randomness pool drains
  // (hit = pair was precomputed, miss = computed inline on demand).
  void AddPoolTask(uint64_t n = 1) {
    pool_tasks_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddBatchCall(uint64_t n = 1) {
    batch_calls_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddEncPoolHit(uint64_t n = 1) {
    enc_pool_hits_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddEncPoolMiss(uint64_t n = 1) {
    enc_pool_misses_.fetch_add(n, std::memory_order_relaxed);
  }
  // Serving accounting (serve/serving_session.h): requests answered and
  // coalesced protocol batches executed; their ratio is the realized
  // batch occupancy the cost report prints.
  void AddServeRequests(uint64_t n) {
    serve_requests_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddServeBatch(uint64_t n = 1) {
    serve_batches_.fetch_add(n, std::memory_order_relaxed);
  }

  uint64_t ciphertext_ops() const { return ce_.load(std::memory_order_relaxed); }
  uint64_t threshold_decryptions() const { return cd_.load(std::memory_order_relaxed); }
  uint64_t secure_ops() const { return cs_.load(std::memory_order_relaxed); }
  uint64_t secure_comparisons() const { return cc_.load(std::memory_order_relaxed); }
  uint64_t checkpoint_writes() const {
    return ckpt_writes_.load(std::memory_order_relaxed);
  }
  uint64_t checkpoint_write_micros() const {
    return ckpt_write_us_.load(std::memory_order_relaxed);
  }
  uint64_t checkpoint_restores() const {
    return ckpt_restores_.load(std::memory_order_relaxed);
  }
  uint64_t checkpoint_restore_micros() const {
    return ckpt_restore_us_.load(std::memory_order_relaxed);
  }
  uint64_t pool_tasks() const {
    return pool_tasks_.load(std::memory_order_relaxed);
  }
  uint64_t batch_calls() const {
    return batch_calls_.load(std::memory_order_relaxed);
  }
  uint64_t enc_pool_hits() const {
    return enc_pool_hits_.load(std::memory_order_relaxed);
  }
  uint64_t enc_pool_misses() const {
    return enc_pool_misses_.load(std::memory_order_relaxed);
  }
  uint64_t serve_requests() const {
    return serve_requests_.load(std::memory_order_relaxed);
  }
  uint64_t serve_batches() const {
    return serve_batches_.load(std::memory_order_relaxed);
  }

  void Reset();

 private:
  std::atomic<uint64_t> ce_{0};
  std::atomic<uint64_t> cd_{0};
  std::atomic<uint64_t> cs_{0};
  std::atomic<uint64_t> cc_{0};
  std::atomic<uint64_t> ckpt_writes_{0};
  std::atomic<uint64_t> ckpt_write_us_{0};
  std::atomic<uint64_t> ckpt_restores_{0};
  std::atomic<uint64_t> ckpt_restore_us_{0};
  std::atomic<uint64_t> pool_tasks_{0};
  std::atomic<uint64_t> batch_calls_{0};
  std::atomic<uint64_t> enc_pool_hits_{0};
  std::atomic<uint64_t> enc_pool_misses_{0};
  std::atomic<uint64_t> serve_requests_{0};
  std::atomic<uint64_t> serve_batches_{0};
};

// Immutable snapshot of the global counters; `Delta` computes the counts
// accumulated between two snapshots.
struct OpSnapshot {
  uint64_t ce = 0, cd = 0, cs = 0, cc = 0;
  uint64_t ckpt_writes = 0, ckpt_write_us = 0;
  uint64_t ckpt_restores = 0, ckpt_restore_us = 0;
  uint64_t pool_tasks = 0, batch_calls = 0;
  uint64_t enc_pool_hits = 0, enc_pool_misses = 0;
  uint64_t serve_requests = 0, serve_batches = 0;

  static OpSnapshot Take();
  OpSnapshot Delta(const OpSnapshot& earlier) const;
  std::string ToString() const;
};

}  // namespace pivot

#endif  // PIVOT_COMMON_OP_COUNTERS_H_
