#ifndef PIVOT_COMMON_FIXED_POINT_H_
#define PIVOT_COMMON_FIXED_POINT_H_

#include <cmath>
#include <cstdint>

#include "common/check.h"

namespace pivot {

// The one fixed-point format of the whole system.
//
// The cryptographic substrates (Paillier, additive secret sharing) operate
// on integers, so every real-valued quantity (feature values, labels,
// impurity gains, probabilities) is represented as round(x * 2^f). The
// paper's implementation does the same ("we convert the floating point
// datasets into fixed-point integer representation", Section 8). These
// are protocol constants, not settings: the MPC truncation, comparison
// and division protocols, the DP samplers and the Paillier headroom
// checks all assume them.

// f: fractional bits.
inline constexpr int kFracBits = 16;
// k: logical values satisfy |x| < 2^(k-1); comparison and truncation
// protocols rely on this bound.
inline constexpr int kValueBits = 64;
// κ: statistical masking security (bits) of truncation/comparison opens.
inline constexpr int kStatSec = 40;

inline int64_t FixedFromDouble(double x) {
  const double scaled = x * static_cast<double>(int64_t{1} << kFracBits);
  PIVOT_CHECK_MSG(std::abs(scaled) < std::ldexp(1.0, kValueBits - 1),
                  "fixed-point overflow");
  return static_cast<int64_t>(std::llround(scaled));
}

inline double FixedToDouble(int64_t v) {
  return static_cast<double>(v) / static_cast<double>(int64_t{1} << kFracBits);
}

}  // namespace pivot

#endif  // PIVOT_COMMON_FIXED_POINT_H_
