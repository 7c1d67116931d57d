#include "pivot/logreg.h"

#include <cmath>

#include "common/check.h"
#include "common/fixed_point.h"

namespace pivot {

namespace {

// Secure logistic function on a batch of shared fixed-point scores:
// sigma(u) = 1 / (1 + exp(-u)), with u first clamped into the secure
// exponential's domain [-8, 8] via two comparisons per element.
Result<std::vector<u128>> SecureSigmoid(MpcEngine& eng,
                                        const std::vector<u128>& us) {
  const size_t n = us.size();
  const int f = kFracBits;
  const i128 bound = FixedFromDouble(8.0);

  // Clamp: u' = u + [u > 8]·(8 - u) + [u < -8]·(-8 - u).
  std::vector<u128> hi_diff(n), lo_diff(n);
  for (size_t i = 0; i < n; ++i) {
    hi_diff[i] = eng.AddConst(MpcEngine::Neg(us[i]), bound);   // 8 - u
    lo_diff[i] = eng.AddConst(us[i], bound);                   // u + 8
  }
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> above,
                         eng.LessThanZeroVec(hi_diff, 64));    // [u > 8]
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> below,
                         eng.LessThanZeroVec(lo_diff, 64));    // [u < -8]
  std::vector<u128> sel_a, sel_b;
  sel_a.reserve(2 * n);
  sel_b.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) {
    sel_a.push_back(above[i]);
    sel_b.push_back(hi_diff[i]);  // (8 - u)
  }
  for (size_t i = 0; i < n; ++i) {
    sel_a.push_back(below[i]);
    sel_b.push_back(eng.AddConst(MpcEngine::Neg(us[i]), -bound));  // -8 - u
  }
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> corrections,
                         eng.MulVec(sel_a, sel_b));
  std::vector<u128> clamped(n);
  for (size_t i = 0; i < n; ++i) {
    clamped[i] =
        FpAdd(us[i], FpAdd(corrections[i], corrections[n + i]));
  }

  // exp(-u'), then 1 / (1 + exp(-u')).
  std::vector<u128> neg(n);
  for (size_t i = 0; i < n; ++i) neg[i] = MpcEngine::Neg(clamped[i]);
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> exps, eng.ExpFixedVec(neg));
  std::vector<u128> denom(n);
  for (size_t i = 0; i < n; ++i) {
    denom[i] = eng.AddConstField(exps[i], static_cast<u128>(1) << f);
  }
  return eng.ReciprocalVec(denom);
}

}  // namespace

Result<PivotLogRegModel> TrainPivotLogReg(PartyContext& ctx,
                                          const PivotLogRegParams& params) {
  if (ctx.pk().key_bits() < 512) {
    return Status::FailedPrecondition(
        "vertical logistic regression needs >= 512-bit Paillier keys "
        "(negative fixed-point scalars double the carrier width)");
  }
  MpcEngine& eng = ctx.engine();
  const int f = kFracBits;
  const int n = static_cast<int>(ctx.view().features.size());
  const int d_local = static_cast<int>(ctx.view().num_features());
  const int m = ctx.num_parties();

  // Encrypted weights at 2f fractional bits (products with f-scaled
  // feature scalars then convert+truncate back to f; see logreg.h).
  std::vector<Ciphertext> theta(d_local);
  for (int j = 0; j < d_local; ++j) {
    theta[j] = ctx.pk().Encrypt(BigInt(0), ctx.rng());
  }
  // The bias lives on the super client, also encrypted at 2f.
  Ciphertext bias = ctx.pk().Encrypt(BigInt(0), ctx.rng());

  // Labels as shares (once).
  std::vector<i128> y_fixed(n, 0);
  if (ctx.is_super()) {
    for (int t = 0; t < n; ++t) {
      y_fixed[t] = FixedFromDouble(ctx.labels()[t]);
    }
  }
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> y_shares,
                         eng.InputVector(ctx.super_client(), y_fixed, n));

  const int batch = std::max(1, params.batch_size);
  for (int epoch = 0; epoch < params.epochs; ++epoch) {
    for (int start = 0; start < n; start += batch) {
      const int end = std::min(n, start + batch);
      const int bsize = end - start;

      // 1. Local computation: encrypted partial scores per sample.
      std::vector<Ciphertext> partial(bsize);
      for (int t = 0; t < bsize; ++t) {
        std::vector<BigInt> x_fixed(d_local);
        for (int j = 0; j < d_local; ++j) {
          x_fixed[j] = FpToBigInt(FpFromSigned(
              FixedFromDouble(ctx.view().features[start + t][j])));
        }
        partial[t] = ctx.pk().DotProduct(x_fixed, theta);
        if (ctx.is_super()) {
          // Bias contributes 1·[bias]; scale match: bias at 2f, partial
          // terms at 3f, so scale the bias by 2^f.
          partial[t] = ctx.pk().Add(
              partial[t],
              ctx.pk().ScalarMul(BigInt(int64_t{1} << f), bias));
        }
      }

      // 2. MPC computation: convert per-client partials, sum, truncate
      // from 3f to f, secure sigmoid, shared loss derivative.
      std::vector<u128> u_sum(bsize, 0);
      for (int p = 0; p < m; ++p) {
        PIVOT_ASSIGN_OR_RETURN(std::vector<u128> shares,
                               ctx.CiphertextsToShares(partial, p));
        for (int t = 0; t < bsize; ++t) {
          u_sum[t] = FpAdd(u_sum[t], shares[t]);
        }
      }
      PIVOT_ASSIGN_OR_RETURN(u_sum, eng.TruncPrVec(u_sum, 2 * f, 80));
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> sigma,
                             SecureSigmoid(eng, u_sum));
      std::vector<u128> err(bsize);
      for (int t = 0; t < bsize; ++t) {
        err[t] = FpSub(sigma[t], y_shares[start + t]);
      }

      // 3. Back to ciphertexts; every client updates its encrypted
      // weights without learning the loss.
      PIVOT_ASSIGN_OR_RETURN(std::vector<Ciphertext> err_cts,
                             ctx.SharesToCiphertexts(err));
      const double step = params.learning_rate / bsize;
      for (int t = 0; t < bsize; ++t) {
        for (int j = 0; j < d_local; ++j) {
          const i128 scalar = FixedFromDouble(
              -step * ctx.view().features[start + t][j]);
          theta[j] = ctx.pk().Add(
              theta[j],
              ctx.pk().ScalarMul(FpToBigInt(FpFromSigned(scalar)),
                                 err_cts[t]));
        }
        if (ctx.is_super()) {
          const i128 scalar = FixedFromDouble(-step);
          bias = ctx.pk().Add(
              bias, ctx.pk().ScalarMul(FpToBigInt(FpFromSigned(scalar)),
                                       err_cts[t]));
        }
      }

      // Carrier reset: negative scalars make the Paillier plaintexts grow
      // by ~p per update; a conversion round-trip reduces them mod p so
      // the headroom bound stays step-local (DESIGN.md §3). One conversion
      // per holder, every party participating (SPMD).
      for (int p = 0; p < m; ++p) {
        PIVOT_ASSIGN_OR_RETURN(
            std::vector<u128> shares,
            ctx.CiphertextsToShares(
                p == ctx.id() ? theta : std::vector<Ciphertext>{}, p));
        PIVOT_ASSIGN_OR_RETURN(std::vector<Ciphertext> fresh,
                               ctx.SharesToCiphertexts(shares));
        if (p == ctx.id()) theta = std::move(fresh);
      }
      {
        PIVOT_ASSIGN_OR_RETURN(
            std::vector<u128> bias_shares,
            ctx.CiphertextsToShares(ctx.is_super()
                                        ? std::vector<Ciphertext>{bias}
                                        : std::vector<Ciphertext>{},
                                    ctx.super_client()));
        PIVOT_ASSIGN_OR_RETURN(std::vector<Ciphertext> bias_cts,
                               ctx.SharesToCiphertexts(bias_shares));
        bias = bias_cts[0];
      }
    }
  }

  // Release the final model: joint decryption of every client's weights
  // and of the bias.
  PivotLogRegModel model;
  model.my_weights.resize(d_local);
  for (int p = 0; p < m; ++p) {
    std::vector<Ciphertext> to_open;
    if (p == ctx.id()) to_open = theta;
    PIVOT_ASSIGN_OR_RETURN(std::vector<BigInt> opened,
                           ctx.JointDecrypt(to_open, p));
    if (p == ctx.id()) {
      for (int j = 0; j < d_local; ++j) {
        // Weights carry 2f fractional bits.
        model.my_weights[j] =
            static_cast<double>(FpToSigned(FpFromBigInt(opened[j]))) /
            std::ldexp(1.0, 2 * f);
      }
    }
  }
  PIVOT_ASSIGN_OR_RETURN(std::vector<BigInt> bias_open,
                         ctx.JointDecrypt({bias}, ctx.super_client()));
  model.bias = static_cast<double>(FpToSigned(FpFromBigInt(bias_open[0]))) /
               std::ldexp(1.0, 2 * f);
  return model;
}

Result<double> PredictPivotLogReg(PartyContext& ctx,
                                  const PivotLogRegModel& model,
                                  const std::vector<double>& my_features) {
  MpcEngine& eng = ctx.engine();
  // Each party's plaintext partial score enters as a secret share.
  double partial = 0.0;
  for (size_t j = 0; j < model.my_weights.size(); ++j) {
    partial += model.my_weights[j] * my_features[j];
  }
  if (ctx.is_super()) partial += model.bias;

  u128 u = 0;
  for (int p = 0; p < ctx.num_parties(); ++p) {
    PIVOT_ASSIGN_OR_RETURN(
        u128 share,
        eng.Input(p, p == ctx.id() ? FixedFromDouble(partial) : 0));
    u = FpAdd(u, share);
  }
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> sigma, SecureSigmoid(eng, {u}));
  PIVOT_ASSIGN_OR_RETURN(u128 opened, eng.Open(sigma[0]));
  return FixedToDouble(static_cast<int64_t>(FpToSigned(opened)));
}

}  // namespace pivot
