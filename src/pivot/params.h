#ifndef PIVOT_PIVOT_PARAMS_H_
#define PIVOT_PIVOT_PARAMS_H_

#include <cstdint>

#include "tree/cart.h"

namespace pivot {

// Which Pivot protocol variant to run.
enum class Protocol {
  // Section 4: the whole tree (feature, threshold, leaf labels) is released
  // in plaintext; no intermediate information leaks.
  kBasic,
  // Section 5: split thresholds and leaf labels stay hidden (secret
  // shared); only the split feature owner/index is public.
  kEnhanced,
};

// How much of the released model the enhanced protocol conceals
// (the privacy/efficiency trade-off discussed at the end of Section 5.2).
// Threshold and leaf labels are always hidden in the enhanced protocol;
// the levels below additionally hide the split feature or even the
// feature-owning client.
enum class HidingLevel {
  kThreshold,        // paper's enhanced protocol: (client, feature) public
  kFeature,          // only the owning client is public
  kClientAndFeature, // nothing about the split is public
};

// Public offset added to regression labels on the Paillier carriers so
// they stay small non-negative values: a negative one would be encoded
// near p, and its product with an enhanced child mask (up to m^2·b·p^2 as
// an integer) would wrap a 384-bit plaintext space. Every converted
// statistic drops the offset again in the share domain (trainer.cc,
// UnshiftRegressionStats). Regression labels must satisfy
// |y| < kRegressionLabelOffset - 1; both federation runners reject other
// labels before any party starts (pivot/runner.h).
constexpr int64_t kRegressionLabelOffset = 64;

// Differential-privacy settings (Section 9.2). When enabled, the pruning
// count check uses Laplace noise, the best split is chosen with the
// exponential mechanism, and leaf statistics are noised; the per-tree
// budget is split as epsilon per query with B = 2·eps·(h+1) total.
struct DpParams {
  bool enabled = false;
  double epsilon_per_query = 0.5;
};

// Hyper-parameters of a Pivot federation run. `tree` is shared verbatim
// with the plaintext baselines so that accuracy comparisons (Table 3) run
// with identical settings.
struct PivotParams {
  TreeParams tree;

  // Threshold Paillier modulus bits. 512 matches the paper's accuracy
  // experiments; the paper's efficiency default is 1024. Must satisfy the
  // plaintext-headroom requirement checked in trainer.cc (MinimumKeyBits:
  // >= 384 for the enhanced protocol, >= 320 for GBDT, >= 192 for the
  // basic protocol).
  int key_bits = 512;

  // Per-call fan-out cap for every batched crypto kernel — encryption,
  // threshold decryption, scalar multiplication, split statistics and the
  // offline randomness pool (the paper's "-PP" partially-parallelized
  // variants use 6 cores). 0 = auto: one per CPU the process may run on
  // (AvailableCpus); 1 = sequential; at most kMaxCryptoThreads. Training
  // results are bit-identical for every value; see DESIGN.md,
  // "Parallelism model".
  int crypto_threads = 0;

  // Seed for per-party local randomness (encryption, sharing).
  uint64_t run_seed = 0x5EED;

  DpParams dp;
};

}  // namespace pivot

#endif  // PIVOT_PIVOT_PARAMS_H_
