#include "mpc/engine.h"

#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "common/fixed_point.h"
#include "mpc/dp.h"
#include "net/network.h"

namespace pivot {
namespace {

constexpr double kFixTol = 3.0 / (1 << 16);  // a few ulp of f=16 fixed point

[[maybe_unused]] u128 ToFix(double x) {
  return FpFromSigned(FixedFromDouble(x));
}
double FromFix(u128 v) {
  return FixedToDouble(static_cast<int64_t>(FpToSigned(v)));
}

// Uniform signed value with |x| < 2^(k_bound-1), the engine's input bound.
i128 RandomInBound(Rng& rng, int k_bound) {
  const u128 mask = (static_cast<u128>(1) << (k_bound - 1)) - 1;
  const u128 raw = (static_cast<u128>(rng.NextU64()) << 64) | rng.NextU64();
  const auto mag = static_cast<i128>(raw & mask);
  return (rng.NextU64() & 1) ? -mag : mag;
}

// Edge values of the bound: 0, ±1 and ±(2^(k_bound-1) - 1).
std::vector<i128> EdgeValues(int k_bound) {
  const i128 top = (i128{1} << (k_bound - 1)) - 1;
  return {0, 1, -1, top, -top};
}

// Runs `body` as an SPMD protocol over `m` parties and asserts success.
void RunMpc(int m, const std::function<Status(MpcEngine&, Preprocessing&)>& body,
            uint64_t seed = 1234) {
  InMemoryNetwork net(m);
  Status st = RunParties(net, [&](int id, Endpoint& ep) -> Status {
    Preprocessing prep(id, m, seed);
    MpcEngine eng(&ep, &prep, seed * 31 + id);
    return body(eng, prep);
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
}

#define MPC_EXPECT_OK(expr)                                \
  do {                                                     \
    if (!(expr).ok()) return (expr).status();              \
  } while (0)

class EngineBasicTest : public ::testing::TestWithParam<int> {};

TEST_P(EngineBasicTest, InputOpenRoundTrip) {
  RunMpc(GetParam(), [](MpcEngine& eng, Preprocessing&) -> Status {
    for (i128 v : {i128{0}, i128{42}, i128{-17}, i128{1} << 60}) {
      PIVOT_ASSIGN_OR_RETURN(u128 share, eng.Input(0, v));
      PIVOT_ASSIGN_OR_RETURN(u128 opened, eng.Open(share));
      if (FpToSigned(opened) != v) return Status::Internal("open mismatch");
    }
    return Status::Ok();
  });
}

TEST_P(EngineBasicTest, InputFromEveryOwner) {
  const int m = GetParam();
  RunMpc(m, [m](MpcEngine& eng, Preprocessing&) -> Status {
    for (int owner = 0; owner < m; ++owner) {
      PIVOT_ASSIGN_OR_RETURN(u128 share, eng.Input(owner, 100 + owner));
      PIVOT_ASSIGN_OR_RETURN(u128 opened, eng.Open(share));
      if (FpToSigned(opened) != 100 + owner) {
        return Status::Internal("owner input mismatch");
      }
    }
    return Status::Ok();
  });
}

TEST_P(EngineBasicTest, SharesLookRandom) {
  // With more than one party, an individual share should not equal the
  // secret (overwhelmingly).
  const int m = GetParam();
  if (m == 1) return;
  RunMpc(m, [](MpcEngine& eng, Preprocessing&) -> Status {
    int hits = 0;
    for (int i = 0; i < 32; ++i) {
      PIVOT_ASSIGN_OR_RETURN(u128 share, eng.Input(0, 7));
      if (share == 7) ++hits;
    }
    if (hits > 1) return Status::Internal("shares leak the secret");
    return Status::Ok();
  });
}

TEST_P(EngineBasicTest, LinearOps) {
  RunMpc(GetParam(), [](MpcEngine& eng, Preprocessing&) -> Status {
    PIVOT_ASSIGN_OR_RETURN(u128 a, eng.Input(0, 30));
    PIVOT_ASSIGN_OR_RETURN(u128 b, eng.Input(0, 12));
    PIVOT_ASSIGN_OR_RETURN(u128 sum, eng.Open(MpcEngine::Add(a, b)));
    PIVOT_ASSIGN_OR_RETURN(u128 diff, eng.Open(MpcEngine::Sub(a, b)));
    PIVOT_ASSIGN_OR_RETURN(u128 neg, eng.Open(MpcEngine::Neg(a)));
    PIVOT_ASSIGN_OR_RETURN(u128 scaled, eng.Open(MpcEngine::MulPub(a, 3)));
    PIVOT_ASSIGN_OR_RETURN(u128 shifted, eng.Open(eng.AddConst(a, -50)));
    if (FpToSigned(sum) != 42) return Status::Internal("add");
    if (FpToSigned(diff) != 18) return Status::Internal("sub");
    if (FpToSigned(neg) != -30) return Status::Internal("neg");
    if (FpToSigned(scaled) != 90) return Status::Internal("mulpub");
    if (FpToSigned(shifted) != -20) return Status::Internal("addconst");
    return Status::Ok();
  });
}

TEST_P(EngineBasicTest, BeaverMultiplication) {
  RunMpc(GetParam(), [](MpcEngine& eng, Preprocessing&) -> Status {
    Rng vals(55);
    for (int i = 0; i < 20; ++i) {
      i128 x = static_cast<i128>(vals.NextInRange(-1000000, 1000000));
      i128 y = static_cast<i128>(vals.NextInRange(-1000000, 1000000));
      PIVOT_ASSIGN_OR_RETURN(u128 a, eng.Input(0, x));
      PIVOT_ASSIGN_OR_RETURN(u128 b, eng.Input(0, y));
      PIVOT_ASSIGN_OR_RETURN(u128 c, eng.Mul(a, b));
      PIVOT_ASSIGN_OR_RETURN(u128 opened, eng.Open(c));
      if (FpToSigned(opened) != x * y) return Status::Internal("mul mismatch");
    }
    return Status::Ok();
  });
}

TEST_P(EngineBasicTest, BatchedMultiplication) {
  RunMpc(GetParam(), [](MpcEngine& eng, Preprocessing&) -> Status {
    std::vector<i128> xs = {3, -4, 0, 1000};
    std::vector<i128> ys = {7, 5, 99, -1000};
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> a, eng.InputVector(0, xs, 4));
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> b, eng.InputVector(0, ys, 4));
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> c, eng.MulVec(a, b));
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> opened, eng.OpenVec(c));
    for (int i = 0; i < 4; ++i) {
      if (FpToSigned(opened[i]) != xs[i] * ys[i]) {
        return Status::Internal("batched mul mismatch");
      }
    }
    return Status::Ok();
  });
}

INSTANTIATE_TEST_SUITE_P(Parties, EngineBasicTest, ::testing::Values(1, 2, 3, 5));

TEST(EngineFixedTest, MulFixed) {
  RunMpc(3, [](MpcEngine& eng, Preprocessing&) -> Status {
    for (auto [x, y] : {std::pair{1.5, 2.0}, {0.25, -8.0}, {-3.5, -2.0},
                        {100.0, 0.001}}) {
      PIVOT_ASSIGN_OR_RETURN(u128 a, eng.Input(0, FixedFromDouble(x)));
      PIVOT_ASSIGN_OR_RETURN(u128 b, eng.Input(0, FixedFromDouble(y)));
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> c, eng.MulFixedVec({a}, {b}));
      PIVOT_ASSIGN_OR_RETURN(u128 opened, eng.Open(c[0]));
      // Compare against the product of the *quantized* inputs.
      const double want = FixedToDouble(FixedFromDouble(x)) *
                          FixedToDouble(FixedFromDouble(y));
      if (std::abs(FromFix(opened) - want) > kFixTol) {
        return Status::Internal("mulfixed out of tolerance");
      }
    }
    return Status::Ok();
  });
}

TEST(EngineTruncTest, TruncPrWithinOneUlp) {
  RunMpc(2, [](MpcEngine& eng, Preprocessing&) -> Status {
    Rng vals(77);
    std::vector<i128> xs;
    for (int i = 0; i < 50; ++i) {
      xs.push_back(static_cast<i128>(vals.NextInRange(-1'000'000'000,
                                                      1'000'000'000)));
    }
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> shares,
                           eng.InputVector(0, xs, xs.size()));
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> trunc,
                           eng.TruncPrVec(shares, 16, 64));
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> opened, eng.OpenVec(trunc));
    for (size_t i = 0; i < xs.size(); ++i) {
      i128 expected = xs[i] >> 16;  // floor division
      i128 got = FpToSigned(opened[i]);
      if (got != expected && got != expected + 1) {
        return Status::Internal("truncpr error > 1 ulp");
      }
    }
    return Status::Ok();
  });
}

TEST(EngineTruncTest, TruncExactIsExact) {
  RunMpc(3, [](MpcEngine& eng, Preprocessing&) -> Status {
    Rng vals(88);
    std::vector<i128> xs = {0, 1, -1, 65535, 65536, -65536, -65537};
    for (int i = 0; i < 40; ++i) {
      xs.push_back(static_cast<i128>(vals.NextInRange(-1'000'000'000'000,
                                                      1'000'000'000'000)));
    }
    // (f, k_bound) = (16, 64), then the pairs of Normalize (26, 57),
    // ReciprocalVec's denormalization (56, 90) and LogFixedVec (14, 38)
    // at frac_bits 16.
    struct Case {
      int f;
      int k_bound;
      std::vector<i128> values;
    };
    std::vector<Case> cases = {{16, 64, xs}};
    for (auto [f, k] : {std::pair{26, 57}, {56, 90}, {14, 38}}) {
      Case c{f, k, EdgeValues(k)};
      for (i128 v : {i128{1} << f, (i128{1} << f) - 1}) {
        c.values.push_back(v);
        c.values.push_back(-v);
      }
      for (int i = 0; i < 20; ++i) c.values.push_back(RandomInBound(vals, k));
      cases.push_back(std::move(c));
    }
    for (const Case& c : cases) {
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> shares,
                             eng.InputVector(0, c.values, c.values.size()));
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> trunc,
                             eng.TruncExactVec(shares, c.f, c.k_bound));
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> opened, eng.OpenVec(trunc));
      for (size_t i = 0; i < c.values.size(); ++i) {
        // Floor division by 2^f (arithmetic shift).
        i128 expected = c.values[i] >> c.f;
        if (FpToSigned(opened[i]) != expected) {
          return Status::Internal("truncexact mismatch at f=" +
                                  std::to_string(c.f) + " index " +
                                  std::to_string(i));
        }
      }
    }
    return Status::Ok();
  });
}

TEST(EngineCompareTest, LessThanZero) {
  RunMpc(3, [](MpcEngine& eng, Preprocessing&) -> Status {
    Rng vals(99);
    for (int k : {40, 48, 64}) {
      std::vector<i128> xs = EdgeValues(k);
      if (k == 64) {
        for (i128 v : {i128{5}, i128{-5}, i128{1} << 62, -(i128{1} << 62),
                       i128{65536}, i128{-65536}}) {
          xs.push_back(v);
        }
      }
      for (int i = 0; i < 20; ++i) xs.push_back(RandomInBound(vals, k));
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> shares,
                             eng.InputVector(0, xs, xs.size()));
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> bits,
                             eng.LessThanZeroVec(shares, k));
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> opened, eng.OpenVec(bits));
      for (size_t i = 0; i < xs.size(); ++i) {
        i128 expected = xs[i] < 0 ? 1 : 0;
        if (FpToSigned(opened[i]) != expected) {
          return Status::Internal("ltz mismatch at k=" + std::to_string(k) +
                                  " index " + std::to_string(i));
        }
      }
    }
    return Status::Ok();
  });
}

TEST(EngineCompareTest, ArgmaxFindsMaximum) {
  RunMpc(3, [](MpcEngine& eng, Preprocessing&) -> Status {
    std::vector<i128> vals = {3, -7, 22, 21, 0, 22, 8};  // max 22 first at 2
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> shares,
                           eng.InputVector(0, vals, vals.size()));
    PIVOT_ASSIGN_OR_RETURN(MpcEngine::ArgmaxShares best,
                           eng.Argmax(shares, 64));
    PIVOT_ASSIGN_OR_RETURN(u128 idx, eng.Open(best.index));
    PIVOT_ASSIGN_OR_RETURN(u128 max, eng.Open(best.max));
    if (FpToSigned(max) != 22) return Status::Internal("argmax value");
    if (FpToSigned(idx) != 2) return Status::Internal("argmax index");
    return Status::Ok();
  });
}

TEST(EngineCompareTest, ArgmaxSingleElement) {
  RunMpc(2, [](MpcEngine& eng, Preprocessing&) -> Status {
    PIVOT_ASSIGN_OR_RETURN(u128 v, eng.Input(0, -5));
    PIVOT_ASSIGN_OR_RETURN(MpcEngine::ArgmaxShares best, eng.Argmax({v}, 64));
    PIVOT_ASSIGN_OR_RETURN(u128 idx, eng.Open(best.index));
    if (FpToSigned(idx) != 0) return Status::Internal("argmax single");
    return Status::Ok();
  });
}

TEST(EngineCompareTest, OneHotSelectsIndex) {
  RunMpc(3, [](MpcEngine& eng, Preprocessing&) -> Status {
    for (int target : {0, 3, 6}) {
      PIVOT_ASSIGN_OR_RETURN(u128 idx, eng.Input(0, target));
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> onehot, eng.OneHot(idx, 7));
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> opened, eng.OpenVec(onehot));
      for (int t = 0; t < 7; ++t) {
        i128 expected = (t == target) ? 1 : 0;
        if (FpToSigned(opened[t]) != expected) {
          return Status::Internal("onehot mismatch");
        }
      }
    }
    return Status::Ok();
  });
}

TEST(EngineBitTest, BitDecomposition) {
  RunMpc(2, [](MpcEngine& eng, Preprocessing&) -> Status {
    std::vector<i128> xs = {0,         1,          2,
                            255,       256,        123456789,
                            i128{1} << 40,         (i128{1} << 48) - 1};
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> shares,
                           eng.InputVector(0, xs, xs.size()));
    PIVOT_ASSIGN_OR_RETURN(auto bits, eng.BitDecVec(shares, 48));
    for (size_t i = 0; i < xs.size(); ++i) {
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> opened, eng.OpenVec(bits[i]));
      for (int j = 0; j < 48; ++j) {
        i128 expected = (xs[i] >> j) & 1;
        if (FpToSigned(opened[j]) != expected) {
          return Status::Internal("bitdec mismatch");
        }
      }
    }
    return Status::Ok();
  });
}

TEST(EngineDivTest, ReciprocalAccuracy) {
  RunMpc(2, [](MpcEngine& eng, Preprocessing&) -> Status {
    // Spans tiny fractions to large counts (the Pivot workload range).
    std::vector<double> xs = {0.001, 0.5, 1.0, 3.0, 7.77, 100.0, 50000.0,
                              1000000.0};
    std::vector<i128> raw;
    for (double x : xs) raw.push_back(FixedFromDouble(x));
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> shares,
                           eng.InputVector(0, raw, raw.size()));
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> recip, eng.ReciprocalVec(shares));
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> opened, eng.OpenVec(recip));
    for (size_t i = 0; i < xs.size(); ++i) {
      double got = FromFix(opened[i]);
      // The reference is the reciprocal of the quantized input.
      double want = 1.0 / FixedToDouble(FixedFromDouble(xs[i]));
      double tol = std::max(1e-3 * want, 2.0 * kFixTol);
      if (std::abs(got - want) > tol) {
        return Status::Internal("reciprocal off: x=" + std::to_string(xs[i]) +
                                " got=" + std::to_string(got));
      }
    }
    return Status::Ok();
  });
}

TEST(EngineDivTest, DivisionMatchesPlain) {
  RunMpc(3, [](MpcEngine& eng, Preprocessing&) -> Status {
    std::vector<std::pair<double, double>> cases = {
        {1.0, 3.0}, {10.0, 4.0}, {-5.0, 2.0}, {7.0, 7.0}, {0.0, 9.0},
        {3.0, 1000.0}, {250000.0, 5.0}};
    for (auto [num, den] : cases) {
      PIVOT_ASSIGN_OR_RETURN(u128 a, eng.Input(0, FixedFromDouble(num)));
      PIVOT_ASSIGN_OR_RETURN(u128 b, eng.Input(0, FixedFromDouble(den)));
      PIVOT_ASSIGN_OR_RETURN(u128 q, eng.DivFixed(a, b));
      PIVOT_ASSIGN_OR_RETURN(u128 opened, eng.Open(q));
      double got = FromFix(opened);
      double want = num / den;
      double tol = std::max(2e-3 * std::abs(want), 3.0 * kFixTol);
      if (std::abs(got - want) > tol) {
        return Status::Internal("division off: " + std::to_string(num) + "/" +
                                std::to_string(den) + " got " +
                                std::to_string(got));
      }
    }
    return Status::Ok();
  });
}

TEST(EngineExpTest, ExpAccuracy) {
  RunMpc(2, [](MpcEngine& eng, Preprocessing&) -> Status {
    std::vector<double> xs = {-4.0, -1.0, -0.1, 0.0, 0.1, 1.0, 2.5, 4.0};
    std::vector<i128> raw;
    for (double x : xs) raw.push_back(FixedFromDouble(x));
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> shares,
                           eng.InputVector(0, raw, raw.size()));
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> exps, eng.ExpFixedVec(shares));
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> opened, eng.OpenVec(exps));
    for (size_t i = 0; i < xs.size(); ++i) {
      double got = FromFix(opened[i]);
      double want = std::exp(xs[i]);
      // Limit-formula approximation: ~1% relative error budget.
      if (std::abs(got - want) > 0.02 * want + 3 * kFixTol) {
        return Status::Internal("exp off at x=" + std::to_string(xs[i]) +
                                " got=" + std::to_string(got));
      }
    }
    return Status::Ok();
  });
}

TEST(EngineExpTest, LogAccuracy) {
  RunMpc(2, [](MpcEngine& eng, Preprocessing&) -> Status {
    std::vector<double> xs = {0.001, 0.01, 0.5, 0.9999, 1.0, 2.0, 100.0,
                              65536.0};
    std::vector<i128> raw;
    for (double x : xs) raw.push_back(FixedFromDouble(x));
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> shares,
                           eng.InputVector(0, raw, raw.size()));
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> logs, eng.LogFixedVec(shares));
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> opened, eng.OpenVec(logs));
    for (size_t i = 0; i < xs.size(); ++i) {
      double got = FromFix(opened[i]);
      double want = std::log(FixedToDouble(FixedFromDouble(xs[i])));
      if (std::abs(got - want) > 0.002 + 5 * kFixTol) {
        return Status::Internal("log off at x=" + std::to_string(xs[i]) +
                                " got=" + std::to_string(got) + " want=" +
                                std::to_string(want));
      }
    }
    return Status::Ok();
  });
}

TEST(EngineExpTest, SoftmaxNormalizesAndOrders) {
  RunMpc(2, [](MpcEngine& eng, Preprocessing&) -> Status {
    // logits[t][k]: class k's logit for sample t; the engine takes the
    // class-major transpose.
    const std::vector<std::vector<double>> logits = {{0.5, 2.0, -1.0, 1.0},
                                                     {-2.0, 0.0, 1.5, 0.25}};
    const size_t n = logits.size(), c = logits[0].size();
    std::vector<std::vector<u128>> scores(c);
    for (size_t k = 0; k < c; ++k) {
      std::vector<i128> raw;
      for (size_t t = 0; t < n; ++t) raw.push_back(FixedFromDouble(logits[t][k]));
      PIVOT_ASSIGN_OR_RETURN(scores[k], eng.InputVector(0, raw, n));
    }
    PIVOT_ASSIGN_OR_RETURN(std::vector<std::vector<u128>> probs,
                           eng.Softmax(scores));
    std::vector<std::vector<u128>> opened(c);
    for (size_t k = 0; k < c; ++k) {
      PIVOT_ASSIGN_OR_RETURN(opened[k], eng.OpenVec(probs[k]));
    }
    for (size_t t = 0; t < n; ++t) {
      double total = 0.0, denom = 0.0;
      std::vector<double> p;
      for (size_t k = 0; k < c; ++k) {
        p.push_back(FromFix(opened[k][t]));
        total += p.back();
        denom += std::exp(logits[t][k]);
      }
      if (std::abs(total - 1.0) > 0.01) return Status::Internal("softmax sum");
      // Ordering must match each sample's logits.
      for (size_t a = 0; a < c; ++a) {
        for (size_t b = 0; b < c; ++b) {
          if (logits[t][a] > logits[t][b] && !(p[a] > p[b])) {
            return Status::Internal("softmax ordering");
          }
        }
      }
      // Cross-check against plaintext softmax.
      for (size_t k = 0; k < c; ++k) {
        if (std::abs(p[k] - std::exp(logits[t][k]) / denom) > 0.02) {
          return Status::Internal("softmax value off");
        }
      }
    }
    return Status::Ok();
  });
}

TEST(MpcDpTest, LaplaceMomentsRoughlyCorrect) {
  RunMpc(2, [](MpcEngine& eng, Preprocessing& prep) -> Status {
    const double mu = 1.0, b = 2.0;
    const int n = 60;
    double sum = 0.0, sumsq = 0.0;
    for (int i = 0; i < n; ++i) {
      PIVOT_ASSIGN_OR_RETURN(u128 x, SampleLaplaceShared(eng, prep, mu, b));
      PIVOT_ASSIGN_OR_RETURN(u128 opened, eng.Open(x));
      double v = FromFix(opened);
      if (std::abs(v - mu) > 40.0) return Status::Internal("laplace outlier");
      sum += v;
      sumsq += (v - mu) * (v - mu);
    }
    const double mean = sum / n;
    const double var = sumsq / n;
    // Loose bounds: Laplace(1, 2) has mean 1, var 2b^2 = 8.
    if (std::abs(mean - mu) > 1.5) return Status::Internal("laplace mean off");
    if (var < 2.0 || var > 30.0) return Status::Internal("laplace var off");
    return Status::Ok();
  });
}

TEST(MpcDpTest, ExponentialMechanismPrefersHighScore) {
  RunMpc(2, [](MpcEngine& eng, Preprocessing& prep) -> Status {
    // Score 2 is overwhelmingly better under eps=8, delta=1.
    std::vector<i128> scores = {FixedFromDouble(0.1), FixedFromDouble(0.2),
                                FixedFromDouble(1.9), FixedFromDouble(0.3)};
    int hits = 0;
    const int trials = 6;
    for (int trial = 0; trial < trials; ++trial) {
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> shares,
                             eng.InputVector(0, scores, scores.size()));
      PIVOT_ASSIGN_OR_RETURN(
          u128 idx, ExponentialMechanismIndex(eng, prep, shares, 8.0, 1.0));
      PIVOT_ASSIGN_OR_RETURN(u128 opened, eng.Open(idx));
      i128 v = FpToSigned(opened);
      if (v < 0 || v > 3) return Status::Internal("index out of range");
      if (v == 2) ++hits;
    }
    if (hits < trials - 1) return Status::Internal("mechanism not selective");
    return Status::Ok();
  });
}

TEST(EngineStatsTest, RoundsAreCounted) {
  RunMpc(2, [](MpcEngine& eng, Preprocessing&) -> Status {
    uint64_t before = eng.rounds();
    PIVOT_ASSIGN_OR_RETURN(u128 a, eng.Input(0, 1));
    PIVOT_ASSIGN_OR_RETURN(u128 b, eng.Input(0, 2));
    PIVOT_ASSIGN_OR_RETURN(u128 c, eng.Mul(a, b));
    (void)c;
    if (eng.rounds() <= before) return Status::Internal("rounds not counted");
    return Status::Ok();
  });
}

}  // namespace
}  // namespace pivot
