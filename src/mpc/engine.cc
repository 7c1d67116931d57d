#include "mpc/engine.h"

#include <algorithm>

#include "common/check.h"
#include "common/fixed_point.h"
#include "common/op_counters.h"
#include "net/codec.h"

namespace pivot {

namespace {

// Catrina-Saxena initial approximation constant 2.9142 at 30 fractional
// bits, used by the Newton reciprocal iteration.
constexpr int kRecipFrac = 30;
// round(2.9142 * 2^30)
constexpr u128 kRecipInit = 3128781047ULL;
// Normalization domain for reciprocal inputs.
constexpr int kNormBits = 56;
// exp(x) ~ (1 + x/2^l)^(2^l).
constexpr int kExpLimitLog = 10;
// Domain bound of a fixed-point product before truncation: 2(k-1)
// magnitude bits, capped so the statistical mask still fits in F_p.
constexpr int kProductBits = std::min(2 * kValueBits, 126 - kStatSec - 1);

static_assert(kFracBits > 0 && kFracBits < 60);
static_assert(kValueBits + kStatSec + 1 <= 126);

}  // namespace

MpcEngine::MpcEngine(Endpoint* endpoint, Preprocessing* prep,
                     uint64_t personal_seed)
    : endpoint_(endpoint),
      prep_(prep),
      rng_(personal_seed ^ (0x9d3f * (endpoint->id() + 1))) {}

// ---------------------------------------------------------------------------
// Input / Open
// ---------------------------------------------------------------------------

Result<u128> MpcEngine::Input(int owner, i128 value) {
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> shares,
                         InputVector(owner, {value}, 1));
  return shares[0];
}

Result<std::vector<u128>> MpcEngine::InputVector(
    int owner, const std::vector<i128>& values, size_t size) {
  const int m = num_parties();
  if (m == 1) {
    std::vector<u128> out(size);
    for (size_t i = 0; i < size; ++i) out[i] = FpFromSigned(values[i]);
    return out;
  }
  ++rounds_;
  if (party_id() == owner) {
    PIVOT_CHECK_MSG(values.size() == size, "input size mismatch");
    std::vector<std::vector<u128>> all(m, std::vector<u128>(size));
    for (size_t i = 0; i < size; ++i) {
      u128 sum = 0;
      for (int p = 0; p < m; ++p) {
        if (p == owner) continue;
        all[p][i] = FpRandom(rng_);
        sum = FpAdd(sum, all[p][i]);
      }
      all[owner][i] = FpSub(FpFromSigned(values[i]), sum);
    }
    for (int p = 0; p < m; ++p) {
      if (p != owner) {
        // pivot-taint: allow(raw-send) additive share distribution: each
        // vector all[p] is fresh uniform randomness, independent of the
        // secret unless all m shares are combined.
        PIVOT_RETURN_IF_ERROR(endpoint_->Send(p, EncodeU128Vector(all[p])));
      }
    }
    return all[owner];
  }
  PIVOT_ASSIGN_OR_RETURN(Bytes msg, endpoint_->Recv(owner));
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> mine, DecodeU128Vector(msg));
  if (mine.size() != size) {
    return Status::ProtocolError("input share vector has wrong size");
  }
  return mine;
}

Result<u128> MpcEngine::Open(u128 share) {
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> out, OpenVec({share}));
  return out[0];
}

Result<std::vector<u128>> MpcEngine::OpenVec(const std::vector<u128>& shares) {
  if (shares.empty()) return std::vector<u128>{};
  if (num_parties() == 1) return shares;
  ++rounds_;
  PIVOT_RETURN_IF_ERROR(endpoint_->Broadcast(EncodeU128Vector(shares)));
  std::vector<u128> sum = shares;
  for (int p = 0; p < num_parties(); ++p) {
    if (p == party_id()) continue;
    PIVOT_ASSIGN_OR_RETURN(Bytes msg, endpoint_->Recv(p));
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> theirs, DecodeU128Vector(msg));
    if (theirs.size() != shares.size()) {
      return Status::ProtocolError("opened share vector size mismatch");
    }
    for (size_t i = 0; i < sum.size(); ++i) sum[i] = FpAdd(sum[i], theirs[i]);
  }
  return sum;
}

// ---------------------------------------------------------------------------
// Multiplication
// ---------------------------------------------------------------------------

Result<u128> MpcEngine::Mul(u128 a, u128 b) {
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> out, MulVec({a}, {b}));
  return out[0];
}

Result<std::vector<u128>> MpcEngine::MulVec(const std::vector<u128>& a,
                                            const std::vector<u128>& b) {
  PIVOT_CHECK_MSG(a.size() == b.size(), "MulVec size mismatch");
  if (a.empty()) return std::vector<u128>{};
  const size_t n = a.size();
  OpCounters::Global().AddSecureOp(n);

  std::vector<Preprocessing::Triple> triples(n);
  std::vector<u128> masked(2 * n);
  for (size_t i = 0; i < n; ++i) {
    triples[i] = prep_->NextTriple();
    masked[i] = FpSub(a[i], triples[i].a);          // e = a - ta
    masked[n + i] = FpSub(b[i], triples[i].b);      // f = b - tb
  }
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> opened, OpenVec(masked));

  std::vector<u128> c(n);
  for (size_t i = 0; i < n; ++i) {
    const u128 e = opened[i];
    const u128 f = opened[n + i];
    // ab = ef + e·tb + f·ta + ta·tb
    u128 share = triples[i].c;
    share = FpAdd(share, FpMul(e, triples[i].b));
    share = FpAdd(share, FpMul(f, triples[i].a));
    if (party_id() == 0) share = FpAdd(share, FpMul(e, f));
    c[i] = share;
  }
  return c;
}

Result<std::vector<u128>> MpcEngine::MulFixedVec(const std::vector<u128>& a,
                                                 const std::vector<u128>& b) {
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> prod, MulVec(a, b));
  // Product carries 2f fractional bits and up to 2(k-1) magnitude bits;
  // truncate back.
  return TruncPrVec(prod, kFracBits, kProductBits);
}

// ---------------------------------------------------------------------------
// Truncation
// ---------------------------------------------------------------------------

Result<std::vector<u128>> MpcEngine::TruncPrVec(const std::vector<u128>& xs,
                                                int f, int k_bound) {
  if (xs.empty()) return std::vector<u128>{};
  PIVOT_CHECK(f > 0 && f < k_bound);
  const int kappa = std::min(kStatSec, 125 - k_bound);
  PIVOT_CHECK_MSG(kappa >= 20, "k_bound too large for statistical masking");
  const size_t n = xs.size();
  OpCounters::Global().AddSecureOp(n);

  const u128 offset = static_cast<u128>(1) << (k_bound - 1);
  std::vector<Preprocessing::TruncMask> masks;
  masks.reserve(n);
  std::vector<u128> ys(n);
  for (size_t i = 0; i < n; ++i) {
    masks.push_back(prep_->NextTruncMask(f, k_bound + kappa - f));
    u128 r0 = 0;
    for (int j = 0; j < f; ++j) {
      r0 = FpAdd(r0, FpMul(masks[i].low_bit_shares[j],
                           static_cast<u128>(1) << j));
    }
    u128 y = FpAdd(xs[i], AddConstField(0, offset));
    y = FpAdd(y, r0);
    y = FpAdd(y, FpMul(masks[i].r1_share, static_cast<u128>(1) << f));
    ys[i] = y;
  }
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> opened, OpenVec(ys));

  std::vector<u128> out(n);
  const u128 offset_hi = offset >> f;
  for (size_t i = 0; i < n; ++i) {
    // floor(y / 2^f) = floor(xhat / 2^f) + r1 + carry (carry in {0,1}).
    const u128 c_hi = opened[i] >> f;
    u128 share = FpSub(ConstantField(c_hi), masks[i].r1_share);
    share = FpSub(share, ConstantField(offset_hi));
    out[i] = share;
  }
  return out;
}

Result<std::vector<u128>> MpcEngine::TruncExactVec(const std::vector<u128>& xs,
                                                   int f, int k_bound) {
  if (xs.empty()) return std::vector<u128>{};
  PIVOT_CHECK(f > 0 && f < k_bound && f <= 63);
  const int kappa = std::min(kStatSec, 125 - k_bound);
  PIVOT_CHECK_MSG(kappa >= 20, "k_bound too large for statistical masking");
  const size_t n = xs.size();
  OpCounters::Global().AddSecureOp(n);

  const u128 offset = static_cast<u128>(1) << (k_bound - 1);
  std::vector<Preprocessing::TruncMask> masks;
  masks.reserve(n);
  std::vector<u128> ys(n);
  for (size_t i = 0; i < n; ++i) {
    masks.push_back(prep_->NextTruncMask(f, k_bound + kappa - f));
    u128 r0 = 0;
    for (int j = 0; j < f; ++j) {
      r0 = FpAdd(r0, FpMul(masks[i].low_bit_shares[j],
                           static_cast<u128>(1) << j));
    }
    u128 y = FpAdd(xs[i], AddConstField(0, offset));
    y = FpAdd(y, r0);
    y = FpAdd(y, FpMul(masks[i].r1_share, static_cast<u128>(1) << f));
    ys[i] = y;
  }
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> opened, OpenVec(ys));

  // u = [c' < r0] via bitwise comparison on the masked low bits.
  std::vector<uint64_t> c_low(n);
  std::vector<std::vector<u128>> r_bits(n);
  for (size_t i = 0; i < n; ++i) {
    c_low[i] = static_cast<uint64_t>(opened[i] & ((static_cast<u128>(1) << f) - 1));
    r_bits[i] = masks[i].low_bit_shares;
  }
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> u, BitLT(c_low, r_bits));

  const u128 inv2f = FpInv(static_cast<u128>(1) << f);
  const u128 offset_hi = offset >> f;
  std::vector<u128> out(n);
  for (size_t i = 0; i < n; ++i) {
    // <xhat mod 2^f> = c' - <r0> + 2^f·<u>
    u128 r0 = 0;
    for (int j = 0; j < f; ++j) {
      r0 = FpAdd(r0, FpMul(masks[i].low_bit_shares[j],
                           static_cast<u128>(1) << j));
    }
    u128 low = FpSub(ConstantField(c_low[i]), r0);
    low = FpAdd(low, FpMul(u[i], static_cast<u128>(1) << f));
    // <floor(xhat / 2^f)> = (<xhat> - <xhat mod 2^f>) / 2^f (exact)
    u128 xhat = FpAdd(xs[i], AddConstField(0, offset));
    u128 hi = FpMul(FpSub(xhat, low), inv2f);
    out[i] = FpSub(hi, ConstantField(offset_hi));
  }
  return out;
}

Result<std::vector<u128>> MpcEngine::BitLT(
    const std::vector<uint64_t>& c_public,
    const std::vector<std::vector<u128>>& r_bits) {
  const size_t n = c_public.size();
  PIVOT_CHECK(r_bits.size() == n);
  if (n == 0) return std::vector<u128>{};
  const size_t f = r_bits[0].size();

  // e = "all more-significant bits equal so far"; acc = result.
  std::vector<u128> e(n, ConstantField(1));
  std::vector<u128> acc(n, 0);
  for (size_t level = f; level-- > 0;) {
    std::vector<u128> rj(n);
    for (size_t i = 0; i < n; ++i) rj[i] = r_bits[i][level];
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> t, MulVec(e, rj));
    for (size_t i = 0; i < n; ++i) {
      const bool c_bit = (c_public[i] >> level) & 1;
      if (c_bit) {
        // c_j = 1: no contribution; equality requires r_j = 1.
        e[i] = t[i];
      } else {
        // c_j = 0: r_j = 1 decides r > c; equality requires r_j = 0.
        acc[i] = FpAdd(acc[i], t[i]);
        e[i] = FpSub(e[i], t[i]);
      }
    }
  }
  return acc;
}

// ---------------------------------------------------------------------------
// Comparisons
// ---------------------------------------------------------------------------

Result<std::vector<u128>> MpcEngine::LessThanZeroVec(
    const std::vector<u128>& xs, int k_bound) {
  OpCounters::Global().AddSecureComparison(xs.size());
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> trunc,
                         TruncExactVec(xs, k_bound - 1, k_bound));
  // floor(x / 2^(k-1)) is 0 for x >= 0 and -1 for x < 0.
  std::vector<u128> out(xs.size());
  for (size_t i = 0; i < xs.size(); ++i) out[i] = FpNeg(trunc[i]);
  return out;
}

Result<u128> MpcEngine::LessThanZero(u128 x, int k_bound) {
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> out, LessThanZeroVec({x}, k_bound));
  return out[0];
}

Result<MpcEngine::ArgmaxShares> MpcEngine::Argmax(
    const std::vector<u128>& values, int k_bound) {
  PIVOT_CHECK_MSG(!values.empty(), "Argmax of empty vector");
  ArgmaxShares best;
  best.max = values[0];
  best.index = ConstantField(0);
  for (size_t i = 1; i < values.size(); ++i) {
    PIVOT_ASSIGN_OR_RETURN(u128 gt, LessThanZero(Sub(best.max, values[i]),
                                                 k_bound));
    // One batched round for both selects.
    PIVOT_ASSIGN_OR_RETURN(
        std::vector<u128> upd,
        MulVec({gt, gt},
               {Sub(values[i], best.max),
                Sub(ConstantField(static_cast<u128>(i)), best.index)}));
    best.max = Add(best.max, upd[0]);
    best.index = Add(best.index, upd[1]);
  }
  return best;
}

Result<std::vector<u128>> MpcEngine::OneHot(u128 index, size_t size) {
  PIVOT_CHECK(size > 0);
  // b_t = [index < t + 1], computed in one comparison batch; the one-hot
  // vector is the discrete derivative of b.
  std::vector<u128> diffs(size);
  const int k_bound = 40;  // indices are tiny; small bound keeps this cheap
  for (size_t t = 0; t < size; ++t) {
    diffs[t] = Sub(index, ConstantField(static_cast<u128>(t + 1)));
  }
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> below,
                         LessThanZeroVec(diffs, k_bound));
  std::vector<u128> onehot(size);
  onehot[0] = below[0];
  for (size_t t = 1; t < size; ++t) onehot[t] = FpSub(below[t], below[t - 1]);
  return onehot;
}

// ---------------------------------------------------------------------------
// Bit decomposition
// ---------------------------------------------------------------------------

Result<std::vector<std::vector<u128>>> MpcEngine::BitDecVec(
    const std::vector<u128>& xs, int bits) {
  PIVOT_CHECK(bits > 0 && bits <= 63);
  const int kappa = std::min(kStatSec, 125 - bits);
  const size_t n = xs.size();
  if (n == 0) return std::vector<std::vector<u128>>{};
  OpCounters::Global().AddSecureOp(n);

  std::vector<Preprocessing::TruncMask> masks;
  masks.reserve(n);
  std::vector<u128> ys(n);
  for (size_t i = 0; i < n; ++i) {
    masks.push_back(prep_->NextTruncMask(bits, kappa));
    u128 r0 = 0;
    for (int j = 0; j < bits; ++j) {
      r0 = FpAdd(r0, FpMul(masks[i].low_bit_shares[j],
                           static_cast<u128>(1) << j));
    }
    ys[i] = FpAdd(xs[i], FpAdd(r0, FpMul(masks[i].r1_share,
                                         static_cast<u128>(1) << bits)));
  }
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> opened, OpenVec(ys));

  // x = c - r: ripple-borrow binary subtraction over the low `bits` bits,
  // with public c bits and shared r bits. One multiplication per level.
  std::vector<std::vector<u128>> out(n, std::vector<u128>(bits));
  std::vector<u128> borrow(n, 0);
  for (int j = 0; j < bits; ++j) {
    std::vector<u128> rj(n);
    for (size_t i = 0; i < n; ++i) rj[i] = masks[i].low_bit_shares[j];
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> rb, MulVec(rj, borrow));
    for (size_t i = 0; i < n; ++i) {
      const bool c_bit = (opened[i] >> j) & 1;
      // xor_rb = r_j XOR borrow
      const u128 xor_rb = FpSub(FpAdd(rj[i], borrow[i]),
                                FpAdd(rb[i], rb[i]));
      // x_j = c_j XOR r_j XOR borrow
      out[i][j] = c_bit ? FpSub(ConstantField(1), xor_rb) : xor_rb;
      // next borrow: c_j = 0 -> r + b - r·b ; c_j = 1 -> r·b
      borrow[i] = c_bit ? rb[i] : FpSub(FpAdd(rj[i], borrow[i]), rb[i]);
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Reciprocal / division
// ---------------------------------------------------------------------------

Result<MpcEngine::Normalized> MpcEngine::Normalize(const std::vector<u128>& xs) {
  const size_t n = xs.size();
  const int f = kFracBits;

  // 1. Bits of x (as a raw field integer < 2^kNormBits).
  PIVOT_ASSIGN_OR_RETURN(std::vector<std::vector<u128>> bits,
                         BitDecVec(xs, kNormBits));

  // 2. MSB one-hot via prefix-OR from the top; accumulate the
  //    normalization factor c = 2^(kNormBits-1-j), the denormalizer
  //    c2 = 2^(kNormBits+1-j), and the exponent e = j + 1 - f (all affine
  //    in the one-hot bits, hence local).
  std::vector<u128> any_above(n, 0);
  std::vector<u128> c(n, 0);
  Normalized norm;
  norm.c2.assign(n, 0);
  norm.exponent.assign(n, 0);
  for (int j = kNormBits - 1; j >= 0; --j) {
    std::vector<u128> bj(n);
    for (size_t i = 0; i < n; ++i) bj[i] = bits[i][j];
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> t, MulVec(any_above, bj));
    const u128 exp_coeff = FpFromSigned(j + 1 - f);
    for (size_t i = 0; i < n; ++i) {
      const u128 y_new = FpSub(FpAdd(any_above[i], bj[i]), t[i]);
      const u128 m_j = FpSub(y_new, any_above[i]);  // [j is the MSB]
      any_above[i] = y_new;
      c[i] = FpAdd(c[i], FpMul(m_j, static_cast<u128>(1) << (kNormBits - 1 - j)));
      norm.c2[i] = FpAdd(norm.c2[i],
                         FpMul(m_j, static_cast<u128>(1) << (kNormBits + 1 - j)));
      norm.exponent[i] = FpAdd(norm.exponent[i], FpMul(m_j, exp_coeff));
    }
  }

  // 3. x_norm = x·c in [2^(kNormBits-1), 2^kNormBits); shrink to the
  //    kRecipFrac domain: x2 in [2^(kRecipFrac-1), 2^kRecipFrac).
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> xnorm, MulVec(xs, c));
  PIVOT_ASSIGN_OR_RETURN(
      norm.x2, TruncExactVec(xnorm, kNormBits - kRecipFrac, kNormBits + 1));
  return norm;
}

Result<std::vector<u128>> MpcEngine::ReciprocalVec(const std::vector<u128>& xs) {
  const size_t n = xs.size();
  if (n == 0) return std::vector<u128>{};
  const int f = kFracBits;

  PIVOT_ASSIGN_OR_RETURN(Normalized norm, Normalize(xs));
  const std::vector<u128>& x2 = norm.x2;
  const std::vector<u128>& c2 = norm.c2;

  // Newton iterations for w ~ 1/X_norm at kRecipFrac fractional bits.
  // w0 = 2.9142 - 2·x2 gives |1 - X·w0| <= 0.0858; 4 iterations square
  // the error far below the output precision.
  std::vector<u128> w(n);
  for (size_t i = 0; i < n; ++i) {
    w[i] = FpSub(ConstantField(kRecipInit), FpAdd(x2[i], x2[i]));
  }
  const u128 two = static_cast<u128>(2) << kRecipFrac;
  for (int iter = 0; iter < 4; ++iter) {
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> t, MulVec(w, x2));
    PIVOT_ASSIGN_OR_RETURN(t, TruncPrVec(t, kRecipFrac, 2 * kRecipFrac + 3));
    for (size_t i = 0; i < n; ++i) t[i] = FpSub(ConstantField(two), t[i]);
    PIVOT_ASSIGN_OR_RETURN(w, MulVec(w, t));
    PIVOT_ASSIGN_OR_RETURN(w, TruncPrVec(w, kRecipFrac, 2 * kRecipFrac + 3));
  }

  // 5. Denormalize. With MSB index j: 2^f·(1/X) = w·2^(2f-j-1-kRecipFrac),
  //    and c2 = 2^(kNormBits+1-j), so the result is
  //    Trunc(w·c2, kNormBits + kRecipFrac + 2 - 2f).
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> scaled, MulVec(w, c2));
  const int shift = kNormBits + kRecipFrac + 2 - 2 * f;
  PIVOT_CHECK(shift > 0 && shift <= 63);
  // Bound: w < 2^(kRecipFrac+1), c2 <= 2^(kNormBits+1) -> product < 2^88.
  return TruncExactVec(scaled, shift, kNormBits + kRecipFrac + 4);
}

Result<std::vector<u128>> MpcEngine::LogFixedVec(const std::vector<u128>& xs) {
  const size_t n = xs.size();
  if (n == 0) return std::vector<u128>{};
  const int f = kFracBits;
  const int kb = 2 * kRecipFrac + 3;  // product bound for f2-domain values

  PIVOT_ASSIGN_OR_RETURN(Normalized norm, Normalize(xs));
  const std::vector<u128>& z = norm.x2;  // X_norm in [0.5, 1) at kRecipFrac

  // ln z = 2·atanh(t), t = (z-1)/(z+1) in (-1/3, 0].
  const u128 one = static_cast<u128>(1) << kRecipFrac;
  std::vector<u128> num(n), den(n);
  for (size_t i = 0; i < n; ++i) {
    num[i] = FpSub(z[i], ConstantField(one));
    den[i] = FpAdd(z[i], ConstantField(one));
  }
  // 1/den via Newton; w0 = (2.9142 - den)/2 gives |1 - den·w0| <= 0.0858
  // over den in [1.5, 2).
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> half_den,
                         TruncPrVec(den, 1, kRecipFrac + 3));
  std::vector<u128> w(n);
  constexpr u128 kRecipInitHalf = 1564390523ULL;  // round(2.9142 * 2^29)
  for (size_t i = 0; i < n; ++i) {
    w[i] = FpSub(ConstantField(kRecipInitHalf), half_den[i]);
  }
  const u128 two = static_cast<u128>(2) << kRecipFrac;
  for (int iter = 0; iter < 4; ++iter) {
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> t, MulVec(w, den));
    PIVOT_ASSIGN_OR_RETURN(t, TruncPrVec(t, kRecipFrac, kb));
    for (size_t i = 0; i < n; ++i) t[i] = FpSub(ConstantField(two), t[i]);
    PIVOT_ASSIGN_OR_RETURN(w, MulVec(w, t));
    PIVOT_ASSIGN_OR_RETURN(w, TruncPrVec(w, kRecipFrac, kb));
  }

  // t = num/den; atanh series t + t^3/3 + t^5/5 (|t| <= 1/3: the t^7 term
  // is below 1e-4, within fixed-point tolerance).
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> t, MulVec(num, w));
  PIVOT_ASSIGN_OR_RETURN(t, TruncPrVec(t, kRecipFrac, kb));
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> t2, MulVec(t, t));
  PIVOT_ASSIGN_OR_RETURN(t2, TruncPrVec(t2, kRecipFrac, kb));
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> t3, MulVec(t2, t));
  PIVOT_ASSIGN_OR_RETURN(t3, TruncPrVec(t3, kRecipFrac, kb));
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> t5, MulVec(t3, t2));
  PIVOT_ASSIGN_OR_RETURN(t5, TruncPrVec(t5, kRecipFrac, kb));

  constexpr u128 kInvThree = 357913941ULL;  // round(2^30 / 3)
  constexpr u128 kInvFive = 214748365ULL;   // round(2^30 / 5)
  constexpr u128 kLn2 = 744261118ULL;       // round(ln 2 · 2^30)
  std::vector<u128> series(n);
  for (size_t i = 0; i < n; ++i) {
    series[i] = FpAdd(FpMul(t3[i], kInvThree), FpMul(t5[i], kInvFive));
  }
  PIVOT_ASSIGN_OR_RETURN(series, TruncPrVec(series, kRecipFrac, kb));
  std::vector<u128> result(n);
  for (size_t i = 0; i < n; ++i) {
    const u128 atanh = FpAdd(t[i], series[i]);
    // ln X = 2·atanh + e·ln2 (e is an integer share; the product with the
    // public fixed-point ln2 stays exact).
    result[i] = FpAdd(FpAdd(atanh, atanh), FpMul(norm.exponent[i], kLn2));
  }
  // Convert kRecipFrac -> f fractional bits. |ln X| < 40.
  return TruncExactVec(result, kRecipFrac - f, kRecipFrac + 8);
}

Result<u128> MpcEngine::DivFixed(u128 numerator, u128 denominator) {
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> out,
                         DivFixedVec({numerator}, {denominator}));
  return out[0];
}

Result<std::vector<u128>> MpcEngine::DivFixedVec(
    const std::vector<u128>& nums, const std::vector<u128>& dens) {
  PIVOT_CHECK(nums.size() == dens.size());
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> recip, ReciprocalVec(dens));
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> prod, MulVec(nums, recip));
  return TruncPrVec(prod, kFracBits, kProductBits);
}

// ---------------------------------------------------------------------------
// Exponential / softmax
// ---------------------------------------------------------------------------

Result<std::vector<u128>> MpcEngine::ExpFixedVec(const std::vector<u128>& xs) {
  const size_t n = xs.size();
  if (n == 0) return std::vector<u128>{};
  const int f = kFracBits;
  const int f2 = f + kExpLimitLog;  // internal precision

  // t = 1 + x·2^-l, expressed directly at f2 fractional bits (the raw
  // field value of x already equals x·2^f = (x·2^-l)·2^f2).
  std::vector<u128> t(n);
  const u128 one_f2 = static_cast<u128>(1) << f2;
  for (size_t i = 0; i < n; ++i) t[i] = AddConstField(xs[i], one_f2);

  // Square l times: t <- t^2 (fixed point at f2).
  for (int s = 0; s < kExpLimitLog; ++s) {
    PIVOT_ASSIGN_OR_RETURN(t, MulVec(t, t));
    PIVOT_ASSIGN_OR_RETURN(t, TruncPrVec(t, f2, 80));
  }
  // Back to f fractional bits.
  return TruncPrVec(t, kExpLimitLog, 60);
}

Result<std::vector<std::vector<u128>>> MpcEngine::Softmax(
    const std::vector<std::vector<u128>>& scores) {
  PIVOT_CHECK(!scores.empty());
  const size_t c = scores.size();
  const size_t n = scores[0].size();
  std::vector<u128> flat;
  flat.reserve(c * n);
  for (const auto& row : scores) {
    flat.insert(flat.end(), row.begin(), row.end());
  }
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> exps, ExpFixedVec(flat));
  // Per-sample sums.
  std::vector<u128> dens(c * n);
  for (size_t t = 0; t < n; ++t) {
    u128 sum = 0;
    for (size_t k = 0; k < c; ++k) sum = FpAdd(sum, exps[k * n + t]);
    for (size_t k = 0; k < c; ++k) dens[k * n + t] = sum;
  }
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> flat_probs, DivFixedVec(exps, dens));
  std::vector<std::vector<u128>> probs(c, std::vector<u128>(n));
  for (size_t k = 0; k < c; ++k) {
    for (size_t t = 0; t < n; ++t) probs[k][t] = flat_probs[k * n + t];
  }
  return probs;
}

}  // namespace pivot
