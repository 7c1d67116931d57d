#ifndef PIVOT_PIVOT_SECURE_GAIN_H_
#define PIVOT_PIVOT_SECURE_GAIN_H_

#include <vector>

#include "mpc/engine.h"

namespace pivot {

// Secure impurity-gain computation over secret-shared split statistics
// (the MPC computation step of Section 4.1 / 4.2), shared by the Pivot
// trainer and the SPDZ-DT baseline.
//
// Input layout (all additive shares), one for both tasks:
//   stats[slot][split]: slot 0/1 = n_l/n_r (integer counts), slot
//     2+2k / 3+2k = left/right sums of label vector k. Classification has
//     c vectors (class-k counts); regression has one (fixed-point label
//     sums S), so per split 2 + 2·(regression ? 1 : c) slots.
//   agg: node aggregates {count, sum of each label vector}.
//
// Output: per-split scores (fixed point) whose secure argmax selects the
// best split; full gain of a split = score - node_term (test against
// min_gain before splitting). Regression scores are already the full
// Eqn. 6 gain, (S_l^2/n_l + S_r^2/n_r - S^2/n) / n, since
// Q_l + Q_r = Q cancels the sums of squared labels; node_term is 0.
struct SecureGainResult {
  std::vector<u128> scores;
  u128 node_term = 0;
};

Result<SecureGainResult> ComputeSecureGains(
    MpcEngine& eng, const std::vector<std::vector<u128>>& stats,
    const std::vector<u128>& agg, bool regression);

}  // namespace pivot

#endif  // PIVOT_PIVOT_SECURE_GAIN_H_
