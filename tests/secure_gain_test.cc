#include "pivot/secure_gain.h"

#include <gtest/gtest.h>

#include <cmath>

#include "common/fixed_point.h"
#include "net/network.h"
#include "tree/cart.h"

namespace pivot {
namespace {

// Randomized cross-check: the secure gain pipeline must reproduce the
// plaintext GiniGain / VarianceGain formulas (used by the NP baselines)
// to fixed-point accuracy, for arbitrary split statistics. This is the
// invariant behind the Table 3 accuracy parity.

struct ClsSplit {
  std::vector<double> left_counts, right_counts;
};

void RunGainCheck(bool regression, int num_classes, uint64_t seed) {
  const int m = 2;
  Rng data_rng(seed);

  // Random node statistics. Both tasks share one layout: n_l, n_r, then
  // a left/right pair per label vector (one vector for regression).
  const int t_count = 6;
  const int per_split = 2 + 2 * (regression ? 1 : num_classes);

  // Plain values: [slot][split] (counts; label sums for regression).
  std::vector<std::vector<double>> plain(per_split,
                                         std::vector<double>(t_count));
  std::vector<double> node_count(t_count, 0);
  std::vector<ClsSplit> cls(t_count);
  std::vector<double> expected(t_count);
  double node_sum = 0, node_sumsq = 0, total = 0;

  if (!regression) {
    for (int s = 0; s < t_count; ++s) {
      cls[s].left_counts.resize(num_classes);
      cls[s].right_counts.resize(num_classes);
    }
    // All splits partition the SAME node population: fix per-class totals,
    // split them randomly per candidate.
    std::vector<double> class_totals(num_classes);
    for (int k = 0; k < num_classes; ++k) {
      class_totals[k] = static_cast<double>(5 + data_rng.NextBelow(40));
      total += class_totals[k];
    }
    for (int s = 0; s < t_count; ++s) {
      double nl = 0, nr = 0;
      for (int k = 0; k < num_classes; ++k) {
        double lk = static_cast<double>(
            data_rng.NextBelow(static_cast<uint64_t>(class_totals[k]) + 1));
        cls[s].left_counts[k] = lk;
        cls[s].right_counts[k] = class_totals[k] - lk;
        plain[2 + 2 * k][s] = lk;
        plain[3 + 2 * k][s] = class_totals[k] - lk;
        nl += lk;
        nr += class_totals[k] - lk;
      }
      plain[0][s] = nl;
      plain[1][s] = nr;
      expected[s] = GiniGain(cls[s].left_counts, cls[s].right_counts);
    }
  } else {
    // Fixed node population of labeled samples; random split assignment.
    // Split 0 sends every sample left and split 1 every sample right: an
    // empty side occurs below the root whenever a candidate threshold
    // lies outside the node's samples.
    const int n = 40;
    std::vector<double> ys(n);
    for (double& y : ys) y = data_rng.NextGaussian() * 3.0;
    for (double y : ys) {
      node_sum += y;
      node_sumsq += y * y;
    }
    total = n;
    for (int s = 0; s < t_count; ++s) {
      double nl = 0, sl = 0, ql = 0;
      for (int t = 0; t < n; ++t) {
        const bool left = s == 0 || (s > 1 && data_rng.NextBelow(2) == 1);
        if (left) {
          nl += 1;
          sl += ys[t];
          ql += ys[t] * ys[t];
        }
      }
      // The secure side sees no sums of squares; the plaintext reference
      // still scores the split from them.
      plain[0][s] = nl;
      plain[1][s] = total - nl;
      plain[2][s] = sl;
      plain[3][s] = node_sum - sl;
      expected[s] = VarianceGain(nl, sl, ql, total - nl, node_sum - sl,
                                 node_sumsq - ql);
    }
  }

  InMemoryNetwork net(m);
  Status st = RunParties(net, [&](int id, Endpoint& ep) -> Status {
    Preprocessing prep(id, m, seed * 3 + 1);
    MpcEngine eng(&ep, &prep, seed + id);
    [[maybe_unused]] const int f = kFracBits;

    // Share the statistics (counts at integer scale, sums fixed-point —
    // matching the trainer's conventions).
    std::vector<std::vector<u128>> stats(per_split);
    for (int slot = 0; slot < per_split; ++slot) {
      std::vector<i128> vals(t_count);
      for (int s = 0; s < t_count; ++s) {
        const bool fixed_scaled = regression && slot >= 2;
        vals[s] = fixed_scaled ? FixedFromDouble(plain[slot][s])
                               : static_cast<i128>(std::llround(plain[slot][s]));
      }
      PIVOT_ASSIGN_OR_RETURN(stats[slot], eng.InputVector(0, vals, t_count));
    }
    std::vector<u128> agg;
    {
      std::vector<i128> vals;
      vals.push_back(static_cast<i128>(std::llround(total)));
      if (regression) {
        vals.push_back(FixedFromDouble(node_sum));
      } else {
        for (int k = 0; k < num_classes; ++k) {
          double g = 0;
          // class totals = left + right of any split (use split 0).
          g = plain[2 + 2 * k][0] + plain[3 + 2 * k][0];
          vals.push_back(static_cast<i128>(std::llround(g)));
        }
      }
      PIVOT_ASSIGN_OR_RETURN(agg, eng.InputVector(0, vals, vals.size()));
    }

    PIVOT_ASSIGN_OR_RETURN(
        SecureGainResult gains,
        ComputeSecureGains(eng, stats, agg, regression));
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> scores,
                           eng.OpenVec(gains.scores));
    PIVOT_ASSIGN_OR_RETURN(u128 node_term, eng.Open(gains.node_term));

    for (int s = 0; s < t_count; ++s) {
      const double full_gain =
          FixedToDouble(static_cast<int64_t>(FpToSigned(scores[s]))) -
          FixedToDouble(static_cast<int64_t>(FpToSigned(node_term)));
      // Fixed-point + secure-division tolerance.
      const double tol = regression ? 0.05 : 0.01;
      if (std::abs(full_gain - expected[s]) > tol) {
        return Status::Internal(
            "gain mismatch at split " + std::to_string(s) + ": got " +
            std::to_string(full_gain) + " want " + std::to_string(expected[s]));
      }
    }
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

TEST(SecureGainTest, BinaryGiniMatchesPlaintext) {
  RunGainCheck(/*regression=*/false, 2, 11);
}

TEST(SecureGainTest, FourClassGiniMatchesPlaintext) {
  RunGainCheck(/*regression=*/false, 4, 12);
}

TEST(SecureGainTest, VarianceGainMatchesPlaintext) {
  RunGainCheck(/*regression=*/true, 2, 13);
}

TEST(SecureGainTest, MultipleSeeds) {
  for (uint64_t seed : {21u, 22u, 23u}) {
    RunGainCheck(false, 3, seed);
    RunGainCheck(/*regression=*/true, 1, seed);
  }
}

TEST(SecureGainTest, EmptyChildGivesNoAdvantage) {
  // A split sending everything left must score no better than the node
  // itself (full gain ~ 0).
  const int m = 2;
  InMemoryNetwork net(m);
  Status st = RunParties(net, [&](int id, Endpoint& ep) -> Status {
    Preprocessing prep(id, m, 99);
    MpcEngine eng(&ep, &prep, 3 + id);
    // 10 samples, 6/4 class balance, all on the left child.
    std::vector<std::vector<u128>> stats(6);
    PIVOT_ASSIGN_OR_RETURN(stats[0], eng.InputVector(0, {10}, 1));  // n_l
    PIVOT_ASSIGN_OR_RETURN(stats[1], eng.InputVector(0, {0}, 1));   // n_r
    PIVOT_ASSIGN_OR_RETURN(stats[2], eng.InputVector(0, {6}, 1));   // g_l0
    PIVOT_ASSIGN_OR_RETURN(stats[3], eng.InputVector(0, {0}, 1));   // g_r0
    PIVOT_ASSIGN_OR_RETURN(stats[4], eng.InputVector(0, {4}, 1));   // g_l1
    PIVOT_ASSIGN_OR_RETURN(stats[5], eng.InputVector(0, {0}, 1));   // g_r1
    std::vector<u128> agg;
    PIVOT_ASSIGN_OR_RETURN(agg, eng.InputVector(0, {10, 6, 4}, 3));
    PIVOT_ASSIGN_OR_RETURN(SecureGainResult gains,
                           ComputeSecureGains(eng, stats, agg, false));
    PIVOT_ASSIGN_OR_RETURN(u128 score, eng.Open(gains.scores[0]));
    PIVOT_ASSIGN_OR_RETURN(u128 node, eng.Open(gains.node_term));
    const double full =
        FixedToDouble(static_cast<int64_t>(FpToSigned(score))) -
        FixedToDouble(static_cast<int64_t>(FpToSigned(node)));
    if (std::abs(full) > 0.01) return Status::Internal("empty split gained");
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

}  // namespace
}  // namespace pivot
