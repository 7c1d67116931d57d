#ifndef PIVOT_MPC_DP_H_
#define PIVOT_MPC_DP_H_

#include <vector>

#include "mpc/engine.h"

namespace pivot {

// Differential-privacy samplers computed inside MPC (Section 9.2 of the
// paper): no party ever sees the sampled noise or the selected index in
// plaintext.

// Algorithm 5: returns a share of X ~ Laplace(mu, scale) via inverse
// transform sampling on a secret uniform draw:
//   X = mu - scale · sgn(U) · ln(1 - 2|U|),  U uniform in (-1/2, 1/2).
// Output is fixed-point at kFracBits (common/fixed_point.h).
Result<u128> SampleLaplaceShared(MpcEngine& eng, Preprocessing& prep,
                                 double mu, double scale);

// Algorithm 6: exponential mechanism. Given shares of R scores, privacy
// budget epsilon and score sensitivity, computes shared (unnormalized)
// probabilities exp(eps·score / (2·sensitivity)), normalizes them, builds
// the shared CDF, draws a secret uniform U in (0,1), and returns a share
// of the selected index (a field element in [0, R)).
//
// REQUIRES: |eps·score/(2·sensitivity)| <= 8 for every score (the secure
// exponential's domain); Gini/variance gains in Pivot satisfy this.
Result<u128> ExponentialMechanismIndex(MpcEngine& eng, Preprocessing& prep,
                                       const std::vector<u128>& score_shares,
                                       double epsilon, double sensitivity);

}  // namespace pivot

#endif  // PIVOT_MPC_DP_H_
