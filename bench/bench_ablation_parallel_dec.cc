// Ablation: parallel threshold decryption (the paper's "-PP" variants).
//
// The paper parallelizes threshold decryption over 6 cores and reports up
// to a 2.7x reduction of enhanced-protocol training time (threshold
// decryption dominates). Two sweeps:
//   1. kernel-level: PartialDecryptBatch over a ciphertext vector at
//      1/2/4/8 threads — isolates the pool fan-out from protocol costs.
//      Every thread count is timed kKernelReps times, the counts
//      interleaved so host drift hits them alike; rows carry the median
//      with min/max;
//   2. end-to-end: enhanced-protocol training time vs crypto_threads.
// Results go to bench_results/bench_ablation_parallel_dec.json. Speedup
// requires real cores; the JSON records hardware_threads so numbers from
// core-starved hosts are interpretable.

#include <algorithm>

#include "bench/bench_util.h"
#include "crypto/paillier_batch.h"
#include "crypto/threshold_paillier.h"

using namespace pivot;
using namespace pivot::bench;

// Timed runs per kernel sweep point (odd, so the median is one run).
constexpr int kKernelReps = 7;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  Workload w = Workload::Default(args);
  w.n = args.full ? w.n : (args.tiny ? 40 : 300);
  std::vector<JsonObject> rows;

  // --- 1. Kernel sweep: one party's partial decryptions of a batch. ------
  const int kernel_batch = args.tiny ? 16 : 256;
  const int key_bits = args.tiny ? 256 : 384;
  {
    Rng rng(17);
    ThresholdPaillier keys = GenerateThresholdPaillier(key_bits, 3, rng);
    std::vector<Ciphertext> cts;
    for (int i = 0; i < kernel_batch; ++i) {
      cts.push_back(keys.pk.Encrypt(BigInt(i), rng));
    }
    std::printf("# Kernel: PartialDecryptBatch, %d ciphertexts, %d-bit key "
                "(host has %u hardware threads)\n",
                kernel_batch, key_bits, std::thread::hardware_concurrency());
    std::printf("%-10s %14s %14s %14s %10s\n", "threads", "median(ms)",
                "min(ms)", "max(ms)", "speedup");
    const std::vector<int> sweep = {1, 2, 4, 8};
    std::vector<std::vector<double>> ms(sweep.size());
    for (int rep = 0; rep < kKernelReps; ++rep) {
      for (size_t k = 0; k < sweep.size(); ++k) {
        WallTimer timer;
        Result<std::vector<BigInt>> out =
            PartialDecryptBatch(keys.pk, keys.partial_keys[0], cts, sweep[k]);
        ms[k].push_back(timer.ElapsedMillis());
        if (!out.ok()) {
          std::fprintf(stderr, "failed: %s\n",
                       out.status().ToString().c_str());
          return 1;
        }
      }
    }
    double base_ms = 0;
    for (size_t k = 0; k < sweep.size(); ++k) {
      std::sort(ms[k].begin(), ms[k].end());
      const double median = ms[k][ms[k].size() / 2];
      if (k == 0) base_ms = median;
      std::printf("%-10d %14.2f %14.2f %14.2f %9.2fx\n", sweep[k], median,
                  ms[k].front(), ms[k].back(), base_ms / median);
      JsonObject row;
      row.Set("sweep", "kernel_partial_decrypt")
          .Set("threads", sweep[k])
          .Set("batch_size", kernel_batch)
          .Set("key_bits", key_bits)
          .Set("reps", kKernelReps)
          .Set("wall_ms", median)
          .Set("wall_ms_min", ms[k].front())
          .Set("wall_ms_max", ms[k].back())
          .Set("speedup", base_ms / median);
      rows.push_back(row);
    }
  }

  // --- 2. End-to-end: enhanced-protocol training. ------------------------
  Dataset data = MakeWorkloadData(w, 61);
  std::printf("\n# End-to-end: enhanced-protocol training, n=%d\n", w.n);
  std::printf("%-10s %14s %10s\n", "threads", "train(s)", "speedup");
  double base_seconds = 0;
  for (int threads : {1, 2, 6}) {
    FederationConfig cfg = MakeFederationConfig(w, args, 384);
    cfg.params.crypto_threads = threads;
    const OpSnapshot before = OpSnapshot::Take();
    Result<TrainResult> r =
        TimeTreeTraining(data, cfg, System::kPivotEnhanced);
    if (!r.ok()) {
      std::fprintf(stderr, "failed: %s\n", r.status().ToString().c_str());
      return 1;
    }
    if (threads == 1) base_seconds = r.value().seconds;
    std::printf("%-10d %13.3fs %9.2fx\n", threads, r.value().seconds,
                base_seconds / r.value().seconds);
    JsonObject row;
    row.Set("sweep", "train_enhanced")
        .Set("threads", threads)
        .Set("samples", w.n)
        .Set("wall_seconds", r.value().seconds)
        .Set("speedup", base_seconds / r.value().seconds)
        .SetOps(OpSnapshot::Take().Delta(before));
    rows.push_back(row);
  }

  JsonObject meta;
  meta.Set("key_bits", key_bits).Set("kernel_batch", kernel_batch);
  WriteBenchJson("bench_ablation_parallel_dec", meta, rows);
  std::printf("\n# expectation: speedup grows with threads and saturates "
              "(the paper reports up to 2.7x with 6 cores); flat at ~1x on "
              "a single-core host\n");
  return 0;
}
