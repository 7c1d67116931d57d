#include "mpc/dp.h"

#include "common/check.h"
#include "common/fixed_point.h"

namespace pivot {

namespace {

// Share of a secret uniform value in [0, 2^bits) built from dealer bits.
u128 SharedUniformBits(Preprocessing& prep, int bits) {
  u128 acc = 0;
  for (int j = 0; j < bits; ++j) {
    acc = FpAdd(acc, FpMul(prep.NextBitShare(), static_cast<u128>(1) << j));
  }
  return acc;
}

}  // namespace

Result<u128> SampleLaplaceShared(MpcEngine& eng, Preprocessing& prep,
                                 double mu, double scale) {
  const int f = kFracBits;

  // |U| uniform in [0, 1/2) from f-1 secret bits; 1 - 2|U| in (2^-f, 1].
  const u128 ua = SharedUniformBits(prep, f - 1);
  u128 inner = eng.ConstantField(static_cast<u128>(1) << f);
  inner = FpSub(inner, FpAdd(ua, ua));

  // ln(1 - 2|U|) <= 0.
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> logs, eng.LogFixedVec({inner}));

  // Secret sign: s' = 1 - 2s for a secret bit s.
  const u128 sign_bit = prep.NextBitShare();
  u128 sign = eng.ConstantField(1);
  sign = FpSub(sign, FpAdd(sign_bit, sign_bit));

  // X = mu - scale · s' · ln(1 - 2|U|).
  PIVOT_ASSIGN_OR_RETURN(u128 signed_log, eng.Mul(sign, logs[0]));
  const u128 scale_fixed = FpFromSigned(FixedFromDouble(scale));
  PIVOT_ASSIGN_OR_RETURN(
      std::vector<u128> scaled,
      eng.TruncPrVec({FpMul(signed_log, scale_fixed)}, f, 70));
  u128 x = eng.ConstantField(FpFromSigned(FixedFromDouble(mu)));
  return FpSub(x, scaled[0]);
}

Result<u128> ExponentialMechanismIndex(MpcEngine& eng, Preprocessing& prep,
                                       const std::vector<u128>& score_shares,
                                       double epsilon, double sensitivity) {
  PIVOT_CHECK_MSG(!score_shares.empty(), "no scores to select from");
  PIVOT_CHECK_MSG(sensitivity > 0, "sensitivity must be positive");
  const int f = kFracBits;
  const size_t r_count = score_shares.size();

  // 1. Scaled scores eps·score / (2·sensitivity).
  const u128 factor =
      FpFromSigned(FixedFromDouble(epsilon / (2.0 * sensitivity)));
  std::vector<u128> scaled(r_count);
  for (size_t r = 0; r < r_count; ++r) {
    scaled[r] = FpMul(score_shares[r], factor);
  }
  PIVOT_ASSIGN_OR_RETURN(scaled, eng.TruncPrVec(scaled, f, 70));

  // 2. Unnormalized probabilities and their normalization (lines 1-6 of
  // Algorithm 6).
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> probs, eng.ExpFixedVec(scaled));
  u128 total = 0;
  for (u128 p : probs) total = FpAdd(total, p);
  PIVOT_ASSIGN_OR_RETURN(
      std::vector<u128> norm,
      eng.DivFixedVec(probs, std::vector<u128>(r_count, total)));

  // 3. Shared CDF sub-intervals (line 7).
  std::vector<u128> cdf(r_count);
  u128 acc = 0;
  for (size_t r = 0; r < r_count; ++r) {
    acc = FpAdd(acc, norm[r]);
    cdf[r] = acc;
  }

  // 4. Secret uniform U in (0,1) (line 8) and interval membership test
  // (lines 9-14): the index is sum_r r·([U < F_r] - [U < F_{r-1}]).
  const u128 u = SharedUniformBits(prep, f);
  std::vector<u128> diffs(r_count);
  for (size_t r = 0; r < r_count; ++r) diffs[r] = FpSub(u, cdf[r]);
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> below,
                         eng.LessThanZeroVec(diffs, 40));

  u128 index = 0;
  u128 prev = 0;
  for (size_t r = 0; r < r_count; ++r) {
    const u128 hit = FpSub(below[r], prev);  // one-hot slot r
    index = FpAdd(index, FpMul(hit, static_cast<u128>(r)));
    prev = below[r];
  }
  return index;
}

}  // namespace pivot
