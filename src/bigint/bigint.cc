#include "bigint/bigint.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace pivot {

namespace {

using u128 = unsigned __int128;

constexpr uint64_t kLimbMax = ~uint64_t{0};

}  // namespace

BigInt::BigInt(int64_t v) {
  if (v == 0) return;
  negative_ = v < 0;
  // Careful with INT64_MIN: negate in unsigned space.
  uint64_t mag = negative_ ? ~static_cast<uint64_t>(v) + 1 : static_cast<uint64_t>(v);
  limbs_.push_back(mag);
}

BigInt::BigInt(uint64_t v) {
  if (v != 0) limbs_.push_back(v);
}

void BigInt::Normalize() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
  if (limbs_.empty()) negative_ = false;
}

int BigInt::BitLength() const {
  if (limbs_.empty()) return 0;
  return static_cast<int>(64 * (limbs_.size() - 1)) +
         (64 - std::countl_zero(limbs_.back()));
}

bool BigInt::TestBit(int i) const {
  PIVOT_DCHECK(i >= 0);
  size_t limb = static_cast<size_t>(i) / 64;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 64)) & 1;
}

BigInt BigInt::operator-() const {
  BigInt r = *this;
  if (!r.IsZero()) r.negative_ = !r.negative_;
  return r;
}

BigInt BigInt::Abs() const {
  BigInt r = *this;
  r.negative_ = false;
  return r;
}

int BigInt::CompareMagnitude(const BigInt& a, const BigInt& b) {
  if (a.limbs_.size() != b.limbs_.size())
    return a.limbs_.size() < b.limbs_.size() ? -1 : 1;
  for (size_t i = a.limbs_.size(); i-- > 0;) {
    if (a.limbs_[i] != b.limbs_[i]) return a.limbs_[i] < b.limbs_[i] ? -1 : 1;
  }
  return 0;
}

std::strong_ordering BigInt::operator<=>(const BigInt& o) const {
  if (negative_ != o.negative_)
    return negative_ ? std::strong_ordering::less : std::strong_ordering::greater;
  int c = CompareMagnitude(*this, o);
  if (negative_) c = -c;
  if (c < 0) return std::strong_ordering::less;
  if (c > 0) return std::strong_ordering::greater;
  return std::strong_ordering::equal;
}

bool BigInt::operator==(const BigInt& o) const {
  return negative_ == o.negative_ && limbs_ == o.limbs_;
}

BigInt BigInt::AddMagnitude(const BigInt& a, const BigInt& b) {
  BigInt r;
  const size_t n = std::max(a.limbs_.size(), b.limbs_.size());
  r.limbs_.resize(n + 1, 0);
  uint64_t carry = 0;
  for (size_t i = 0; i < n; ++i) {
    u128 s = static_cast<u128>(i < a.limbs_.size() ? a.limbs_[i] : 0) +
             (i < b.limbs_.size() ? b.limbs_[i] : 0) + carry;
    r.limbs_[i] = static_cast<uint64_t>(s);
    carry = static_cast<uint64_t>(s >> 64);
  }
  r.limbs_[n] = carry;
  r.Normalize();
  return r;
}

BigInt BigInt::SubMagnitude(const BigInt& a, const BigInt& b) {
  PIVOT_DCHECK(CompareMagnitude(a, b) >= 0);
  BigInt r;
  r.limbs_.resize(a.limbs_.size(), 0);
  uint64_t borrow = 0;
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t bi = i < b.limbs_.size() ? b.limbs_[i] : 0;
    uint64_t ai = a.limbs_[i];
    uint64_t d = ai - bi - borrow;
    borrow = (ai < bi || (ai == bi && borrow)) ? 1 : 0;
    r.limbs_[i] = d;
  }
  r.Normalize();
  return r;
}

BigInt BigInt::MulMagnitude(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) return BigInt();
  BigInt r;
  r.limbs_.assign(a.limbs_.size() + b.limbs_.size(), 0);
  for (size_t i = 0; i < a.limbs_.size(); ++i) {
    uint64_t carry = 0;
    uint64_t ai = a.limbs_[i];
    for (size_t j = 0; j < b.limbs_.size(); ++j) {
      u128 cur = static_cast<u128>(ai) * b.limbs_[j] + r.limbs_[i + j] + carry;
      r.limbs_[i + j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    r.limbs_[i + b.limbs_.size()] += carry;
  }
  r.Normalize();
  return r;
}

BigInt BigInt::operator+(const BigInt& o) const {
  if (negative_ == o.negative_) {
    BigInt r = AddMagnitude(*this, o);
    r.negative_ = negative_ && !r.IsZero();
    return r;
  }
  int c = CompareMagnitude(*this, o);
  if (c == 0) return BigInt();
  if (c > 0) {
    BigInt r = SubMagnitude(*this, o);
    r.negative_ = negative_ && !r.IsZero();
    return r;
  }
  BigInt r = SubMagnitude(o, *this);
  r.negative_ = o.negative_ && !r.IsZero();
  return r;
}

BigInt BigInt::operator-(const BigInt& o) const { return *this + (-o); }

BigInt BigInt::operator*(const BigInt& o) const {
  BigInt r = MulMagnitude(*this, o);
  r.negative_ = (negative_ != o.negative_) && !r.IsZero();
  return r;
}

void BigInt::DivModMagnitude(const BigInt& a, const BigInt& b, BigInt* q,
                             BigInt* r) {
  PIVOT_CHECK_MSG(!b.IsZero(), "division by zero");
  if (CompareMagnitude(a, b) < 0) {
    *q = BigInt();
    *r = a.Abs();
    return;
  }
  if (b.limbs_.size() == 1) {
    // Single-limb fast path.
    uint64_t d = b.limbs_[0];
    BigInt quot;
    quot.limbs_.resize(a.limbs_.size(), 0);
    u128 rem = 0;
    for (size_t i = a.limbs_.size(); i-- > 0;) {
      u128 cur = (rem << 64) | a.limbs_[i];
      quot.limbs_[i] = static_cast<uint64_t>(cur / d);
      rem = cur % d;
    }
    quot.Normalize();
    *q = std::move(quot);
    *r = BigInt(static_cast<uint64_t>(rem));
    return;
  }

  // Knuth Algorithm D.
  const int s = std::countl_zero(b.limbs_.back());
  const BigInt u_big = a.Abs() << s;
  const BigInt v_big = b.Abs() << s;
  const size_t n = v_big.limbs_.size();
  const size_t m = u_big.limbs_.size() >= n ? u_big.limbs_.size() - n : 0;

  std::vector<uint64_t> u(u_big.limbs_);
  u.resize(u_big.limbs_.size() + 1, 0);  // u has m + n + 1 limbs
  const std::vector<uint64_t>& v = v_big.limbs_;

  BigInt quot;
  quot.limbs_.assign(m + 1, 0);

  const uint64_t v1 = v[n - 1];
  const uint64_t v2 = v[n - 2];

  for (size_t j = m + 1; j-- > 0;) {
    // Estimate qhat = (u[j+n]*B + u[j+n-1]) / v1.
    u128 numerator = (static_cast<u128>(u[j + n]) << 64) | u[j + n - 1];
    u128 qhat = numerator / v1;
    u128 rhat = numerator % v1;
    while (qhat > kLimbMax ||
           qhat * v2 > ((rhat << 64) | u[j + n - 2])) {
      --qhat;
      rhat += v1;
      if (rhat > kLimbMax) break;
    }

    // Multiply and subtract: u[j..j+n] -= qhat * v.
    u128 borrow = 0;
    u128 carry = 0;
    for (size_t i = 0; i < n; ++i) {
      u128 p = qhat * v[i] + carry;
      carry = p >> 64;
      uint64_t sub = static_cast<uint64_t>(p);
      u128 diff = static_cast<u128>(u[i + j]) - sub - borrow;
      u[i + j] = static_cast<uint64_t>(diff);
      borrow = (diff >> 64) ? 1 : 0;
    }
    u128 diff = static_cast<u128>(u[j + n]) - carry - borrow;
    u[j + n] = static_cast<uint64_t>(diff);
    bool negative = (diff >> 64) != 0;

    if (negative) {
      // qhat was one too large; add v back.
      --qhat;
      u128 c2 = 0;
      for (size_t i = 0; i < n; ++i) {
        u128 s2 = static_cast<u128>(u[i + j]) + v[i] + c2;
        u[i + j] = static_cast<uint64_t>(s2);
        c2 = s2 >> 64;
      }
      u[j + n] = static_cast<uint64_t>(u[j + n] + c2);
    }
    quot.limbs_[j] = static_cast<uint64_t>(qhat);
  }

  quot.Normalize();
  BigInt rem;
  rem.limbs_.assign(u.begin(), u.begin() + n);
  rem.Normalize();
  *q = std::move(quot);
  *r = rem >> s;
}

DivModResult BigInt::DivMod(const BigInt& divisor) const {
  BigInt q, r;
  DivModMagnitude(*this, divisor, &q, &r);
  // Truncated division: quotient sign = xor of signs; remainder sign =
  // dividend sign.
  q.negative_ = (negative_ != divisor.negative_) && !q.IsZero();
  r.negative_ = negative_ && !r.IsZero();
  return {std::move(q), std::move(r)};
}

BigInt BigInt::operator/(const BigInt& o) const { return DivMod(o).quotient; }
BigInt BigInt::operator%(const BigInt& o) const { return DivMod(o).remainder; }

BigInt BigInt::operator<<(int bits) const {
  PIVOT_DCHECK(bits >= 0);
  if (IsZero() || bits == 0) return *this;
  const size_t limb_shift = static_cast<size_t>(bits) / 64;
  const int bit_shift = bits % 64;
  BigInt r;
  r.negative_ = negative_;
  r.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (size_t i = 0; i < limbs_.size(); ++i) {
    r.limbs_[i + limb_shift] |= bit_shift ? (limbs_[i] << bit_shift) : limbs_[i];
    if (bit_shift)
      r.limbs_[i + limb_shift + 1] |= limbs_[i] >> (64 - bit_shift);
  }
  r.Normalize();
  return r;
}

BigInt BigInt::operator>>(int bits) const {
  PIVOT_DCHECK(bits >= 0);
  if (IsZero() || bits == 0) return *this;
  const size_t limb_shift = static_cast<size_t>(bits) / 64;
  const int bit_shift = bits % 64;
  if (limb_shift >= limbs_.size()) return BigInt();
  BigInt r;
  r.negative_ = negative_;
  r.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (size_t i = 0; i < r.limbs_.size(); ++i) {
    r.limbs_[i] = bit_shift ? (limbs_[i + limb_shift] >> bit_shift)
                            : limbs_[i + limb_shift];
    if (bit_shift && i + limb_shift + 1 < limbs_.size())
      r.limbs_[i] |= limbs_[i + limb_shift + 1] << (64 - bit_shift);
  }
  r.Normalize();
  return r;
}

BigInt BigInt::Mod(const BigInt& m) const {
  PIVOT_CHECK_MSG(!m.IsZero() && !m.IsNegative(), "modulus must be positive");
  BigInt r = *this % m;
  if (r.IsNegative()) r = r + m;
  return r;
}

BigInt BigInt::ModAdd(const BigInt& o, const BigInt& m) const {
  return (*this + o).Mod(m);
}

BigInt BigInt::ModSub(const BigInt& o, const BigInt& m) const {
  return (*this - o).Mod(m);
}

BigInt BigInt::ModMul(const BigInt& o, const BigInt& m) const {
  return (*this * o).Mod(m);
}

BigInt BigInt::ModExp(const BigInt& exp, const BigInt& m) const {
  PIVOT_CHECK_MSG(!exp.IsNegative(), "negative exponent");
  PIVOT_CHECK_MSG(m > BigInt(1), "modulus must be > 1");
  if (m.IsOdd()) {
    MontgomeryContext ctx(m);
    return ctx.ModExp(this->Mod(m), exp);
  }
  // Generic square-and-multiply for even moduli (not used by Paillier but
  // kept for completeness).
  BigInt base = this->Mod(m);
  BigInt result(1);
  for (int i = exp.BitLength() - 1; i >= 0; --i) {
    result = result.ModMul(result, m);
    if (exp.TestBit(i)) result = result.ModMul(base, m);
  }
  return result;
}

Result<BigInt> BigInt::ModInverse(const BigInt& m) const {
  PIVOT_CHECK_MSG(m > BigInt(1), "modulus must be > 1");
  // Extended Euclid on (a, m).
  BigInt a = this->Mod(m);
  if (a.IsZero()) return Status::InvalidArgument("no inverse: zero");
  BigInt r0 = m, r1 = a;
  BigInt t0(0), t1(1);
  while (!r1.IsZero()) {
    DivModResult dm = r0.DivMod(r1);
    BigInt r2 = dm.remainder;
    BigInt t2 = t0 - dm.quotient * t1;
    r0 = std::move(r1);
    r1 = std::move(r2);
    t0 = std::move(t1);
    t1 = std::move(t2);
  }
  if (!(r0 == BigInt(1))) {
    return Status::InvalidArgument("no inverse: gcd != 1");
  }
  return t0.Mod(m);
}

BigInt BigInt::Gcd(const BigInt& a, const BigInt& b) {
  BigInt x = a.Abs(), y = b.Abs();
  while (!y.IsZero()) {
    BigInt r = x % y;
    x = std::move(y);
    y = std::move(r);
  }
  return x;
}

BigInt BigInt::Lcm(const BigInt& a, const BigInt& b) {
  if (a.IsZero() || b.IsZero()) return BigInt();
  return (a.Abs() / Gcd(a, b)) * b.Abs();
}

Result<uint64_t> BigInt::ToU64() const {
  if (negative_) return Status::OutOfRange("negative value in ToU64");
  if (limbs_.size() > 1) return Status::OutOfRange("value exceeds 64 bits");
  return limbs_.empty() ? 0 : limbs_[0];
}

Result<int64_t> BigInt::ToI64() const {
  if (limbs_.empty()) return int64_t{0};
  if (limbs_.size() > 1) return Status::OutOfRange("value exceeds 63 bits");
  uint64_t mag = limbs_[0];
  if (negative_) {
    if (mag > (uint64_t{1} << 63)) return Status::OutOfRange("below INT64_MIN");
    return -static_cast<int64_t>(mag - 1) - 1;
  }
  if (mag >= (uint64_t{1} << 63)) return Status::OutOfRange("above INT64_MAX");
  return static_cast<int64_t>(mag);
}

Result<BigInt> BigInt::FromDecString(const std::string& s) {
  if (s.empty()) return Status::InvalidArgument("empty decimal string");
  size_t i = 0;
  bool neg = false;
  if (s[0] == '-') {
    neg = true;
    i = 1;
    if (s.size() == 1) return Status::InvalidArgument("bare '-'");
  }
  BigInt r;
  const BigInt ten(10);
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9')
      return Status::InvalidArgument("invalid decimal digit");
    r = r * ten + BigInt(static_cast<int64_t>(s[i] - '0'));
  }
  if (neg && !r.IsZero()) r.negative_ = true;
  return r;
}

Result<BigInt> BigInt::FromHexString(const std::string& s) {
  if (s.empty()) return Status::InvalidArgument("empty hex string");
  size_t i = 0;
  bool neg = false;
  if (s[0] == '-') {
    neg = true;
    i = 1;
    if (s.size() == 1) return Status::InvalidArgument("bare '-'");
  }
  BigInt r;
  for (; i < s.size(); ++i) {
    char c = s[i];
    int digit;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else if (c >= 'A' && c <= 'F') digit = c - 'A' + 10;
    else return Status::InvalidArgument("invalid hex digit");
    r = (r << 4) + BigInt(static_cast<int64_t>(digit));
  }
  if (neg && !r.IsZero()) r.negative_ = true;
  return r;
}

BigInt BigInt::FromBytes(const Bytes& bytes) {
  BigInt r;
  for (uint8_t b : bytes) {
    r = (r << 8) + BigInt(static_cast<int64_t>(b));
  }
  return r;
}

std::string BigInt::ToDecString() const {
  if (IsZero()) return "0";
  std::string digits;
  BigInt v = Abs();
  const BigInt chunk_div(uint64_t{10'000'000'000'000'000'000ULL});  // 10^19
  while (!v.IsZero()) {
    DivModResult dm = v.DivMod(chunk_div);
    Result<uint64_t> chunk_r = dm.remainder.ToU64();
    PIVOT_CHECK_MSG(chunk_r.ok(), "DivMod remainder exceeds 64 bits");
    uint64_t chunk = chunk_r.value();
    v = std::move(dm.quotient);
    for (int i = 0; i < 19; ++i) {
      digits.push_back(static_cast<char>('0' + chunk % 10));
      chunk /= 10;
    }
  }
  while (digits.size() > 1 && digits.back() == '0') digits.pop_back();
  if (negative_) digits.push_back('-');
  std::reverse(digits.begin(), digits.end());
  return digits;
}

std::string BigInt::ToHexString() const {
  if (IsZero()) return "0";
  static const char* kHex = "0123456789abcdef";
  std::string out;
  if (negative_) out.push_back('-');
  bool leading = true;
  for (size_t i = limbs_.size(); i-- > 0;) {
    for (int nib = 15; nib >= 0; --nib) {
      int d = static_cast<int>((limbs_[i] >> (4 * nib)) & 0xf);
      if (leading && d == 0) continue;
      leading = false;
      out.push_back(kHex[d]);
    }
  }
  return out;
}

Bytes BigInt::ToBytes() const {
  if (IsZero()) return {};
  Bytes out;
  const int bytes = (BitLength() + 7) / 8;
  out.reserve(bytes);
  for (int i = bytes - 1; i >= 0; --i) {
    size_t limb = static_cast<size_t>(i) / 8;
    int shift = (i % 8) * 8;
    out.push_back(static_cast<uint8_t>(limbs_[limb] >> shift));
  }
  return out;
}

Bytes BigInt::ToBytesPadded(size_t width) const {
  Bytes raw = ToBytes();
  PIVOT_CHECK_MSG(raw.size() <= width, "value wider than requested padding");
  Bytes out(width - raw.size(), 0);
  out.insert(out.end(), raw.begin(), raw.end());
  return out;
}

BigInt BigInt::RandomBits(int bits, Rng& rng) {
  PIVOT_CHECK(bits >= 0);
  if (bits == 0) return BigInt();
  BigInt r;
  const size_t limbs = (static_cast<size_t>(bits) + 63) / 64;
  r.limbs_.resize(limbs);
  for (auto& l : r.limbs_) l = rng.NextU64();
  const int top_bits = bits % 64;
  if (top_bits) r.limbs_.back() &= (uint64_t{1} << top_bits) - 1;
  r.Normalize();
  return r;
}

BigInt BigInt::RandomBelow(const BigInt& bound, Rng& rng) {
  PIVOT_CHECK_MSG(!bound.IsZero() && !bound.IsNegative(), "bound must be > 0");
  const int bits = bound.BitLength();
  for (;;) {
    BigInt r = RandomBits(bits, rng);
    if (r < bound) return r;
  }
}

// ---------------------------------------------------------------------------
// MontgomeryContext
//
// Every operation runs on k-limb arrays through one Kernel at the modulus'
// runtime width k. A call keeps all its values in one Workspace (on the
// stack for every modulus this repository uses) and builds one BigInt at
// the end.
// ---------------------------------------------------------------------------

namespace {

// Limb storage for one call: `values` k-limb values plus the 2k scratch
// limbs a kernel product needs, all starting at zero. Up to kStackLimbs
// limbs (n^2 of a 1024-bit key; the 1536-bit PSI group is 24) it lives on
// the stack; a wider modulus takes one heap block per call.
class Workspace {
 public:
  static constexpr size_t kStackLimbs = 32;
  static constexpr size_t kMaxValues = 18;

  Workspace(size_t k, size_t values) : k_(k), values_(values) {
    PIVOT_CHECK(values <= kMaxValues);
    const size_t limbs = (values + 2) * k;
    if (k > kStackLimbs) {
      heap_.resize(limbs);
      base_ = heap_.data();
    } else {
      std::fill_n(stack_, limbs, 0);
    }
  }

  uint64_t* operator[](size_t i) { return base_ + i * k_; }
  uint64_t* scratch() { return base_ + values_ * k_; }

 private:
  size_t k_;
  size_t values_;
  uint64_t stack_[(kMaxValues + 2) * kStackLimbs];
  uint64_t* base_ = stack_;
  std::vector<uint64_t> heap_;
};

// Column accumulator for product scanning: a sum of 64x64-bit products
// in three limbs (lo holds the low two).
struct Column {
  u128 lo = 0;
  uint64_t hi = 0;

  void Add(uint64_t x, uint64_t y) {
    const u128 p = static_cast<u128>(x) * y;
    lo += p;
    hi += lo < p;
  }
  void Add(const Column& o) {
    lo += o.lo;
    hi += o.hi + (lo < o.lo);
  }
  void Double() {
    hi = (hi << 1) | static_cast<uint64_t>(lo >> 127);
    lo <<= 1;
  }
  uint64_t Low() const { return static_cast<uint64_t>(lo); }
  // Moves to the next column: drops the low limb.
  void Shift() {
    lo = (lo >> 64) | (static_cast<u128>(hi) << 64);
    hi = 0;
  }
};

// Montgomery multiplication and squaring modulo the k-limb odd modulus n,
// R = 2^(64k). Operands are k-limb values below n; results are the unique
// representative below n, so every kernel output is bit-identical to any
// other correct Montgomery product. The output may alias an input.
//
// Both run column by column over a·b + q·n (finely integrated product
// scanning, Koc, Acar and Kaliski 1996): column i < k picks the quotient
// limb q[i] that clears it, and columns k..2k hold the result, below 2n.
// Summing each column in three registers keeps one carry chain per
// product, where operand scanning stores a limb per product.
class Kernel {
 public:
  // Runs in ws's scratch limbs.
  Kernel(const BigInt& modulus, uint64_t n_prime, Workspace& ws)
      : n_(modulus.limbs().data()),
        n_prime_(n_prime),
        k_(modulus.limbs().size()),
        scratch_(ws.scratch()) {}

  size_t k() const { return k_; }

  // r = a·b·R^-1 mod n.
  void Mul(uint64_t* r, const uint64_t* a, const uint64_t* b) const {
    const size_t k = k_;
    uint64_t* q = scratch_;
    uint64_t* t = q + k;
    Column col;
    for (size_t i = 0; i < k; ++i) {
      for (size_t j = 0; j <= i; ++j) col.Add(a[j], b[i - j]);
      for (size_t j = 0; j < i; ++j) col.Add(q[j], n_[i - j]);
      q[i] = col.Low() * n_prime_;
      col.Add(q[i], n_[0]);
      col.Shift();
    }
    for (size_t i = k; i < 2 * k; ++i) {
      for (size_t j = i - k + 1; j < k; ++j) {
        col.Add(a[j], b[i - j]);
        col.Add(q[j], n_[i - j]);
      }
      t[i - k] = col.Low();
      col.Shift();
    }
    ReduceOnce(r, t, col.Low());
  }

  // r = a·a·R^-1 mod n. Each column adds its cross products a[j]·a[i-j]
  // (j < i - j) once, doubled, plus the diagonal: about half the
  // products of Mul(r, a, a), and equal to it bit for bit.
  void Sqr(uint64_t* r, const uint64_t* a) const {
    const size_t k = k_;
    uint64_t* q = scratch_;
    uint64_t* t = q + k;
    Column col;
    for (size_t i = 0; i + 1 < 2 * k; ++i) {
      const size_t lo = i < k ? 0 : i - k + 1;
      Column cross;
      for (size_t j = lo; j < i - j; ++j) cross.Add(a[j], a[i - j]);
      cross.Double();
      if (i % 2 == 0) cross.Add(a[i / 2], a[i / 2]);
      col.Add(cross);
      if (i < k) {
        for (size_t j = 0; j < i; ++j) col.Add(q[j], n_[i - j]);
        q[i] = col.Low() * n_prime_;
        col.Add(q[i], n_[0]);
      } else {
        for (size_t j = lo; j < k; ++j) col.Add(q[j], n_[i - j]);
        t[i - k] = col.Low();
      }
      col.Shift();
    }
    t[k - 1] = col.Low();  // column 2k - 1 holds only the carry
    col.Shift();
    ReduceOnce(r, t, col.Low());
  }

 private:
  // r = v - n if v >= n, else v, for v = hi·R + t < 2n. The subtraction
  // is a mask, not a branch.
  void ReduceOnce(uint64_t* r, const uint64_t* t, uint64_t hi) const {
    const size_t k = k_;
    uint64_t borrow = 0;
    for (size_t j = 0; j < k; ++j) {
      const u128 d = static_cast<u128>(t[j]) - n_[j] - borrow;
      borrow = static_cast<uint64_t>(d >> 64) & 1;
    }
    const uint64_t mask = 0 - ((hi | (borrow ^ 1)) & 1);
    borrow = 0;
    for (size_t j = 0; j < k; ++j) {
      const u128 d = static_cast<u128>(t[j]) - (n_[j] & mask) - borrow;
      r[j] = static_cast<uint64_t>(d);
      borrow = static_cast<uint64_t>(d >> 64) & 1;
    }
  }

  const uint64_t* n_;
  uint64_t n_prime_;
  size_t k_;
  uint64_t* scratch_;  // 2k limbs
};

// Copies v (0 <= v < 2^(64k)) into k zero-padded limbs.
void CopyLimbs(const BigInt& v, uint64_t* out, size_t k) {
  const std::vector<uint64_t>& l = v.limbs();
  std::copy(l.begin(), l.end(), out);
  std::fill(out + l.size(), out + k, 0);
}

// Loads a mod m into k = |m| limbs. Values in [0, m) are copied as they
// are; anything else (negative, or m and above, however wide) is reduced
// first, so every input has a defined residue.
void LoadResidue(const BigInt& a, const BigInt& m, uint64_t* out) {
  const size_t k = m.limbs().size();
  if (a.IsNegative() || a >= m) {
    CopyLimbs(a.Mod(m), out, k);
  } else {
    CopyLimbs(a, out, k);
  }
}

// table[w] = base^w (Montgomery domain) for w in [2, 16), from table[1].
void FillWindowTable(const Kernel& kern, uint64_t* table) {
  const size_t k = kern.k();
  for (size_t w = 2; w < 16; ++w) {
    if (w % 2 == 0) {
      kern.Sqr(table + w * k, table + (w / 2) * k);
    } else {
      kern.Mul(table + w * k, table + (w - 1) * k, table + k);
    }
  }
}

// acc = base^exp (Montgomery domain) for exp > 0, a fixed 4-bit window
// ladder over table[w] = base^w, w in [1, 16). The top window is nonzero,
// so the ladder starts from its table entry rather than from one.
void WindowLadder(const Kernel& kern, const uint64_t* table,
                  const BigInt& exp, uint64_t* acc) {
  const size_t k = kern.k();
  const std::vector<uint64_t>& e = exp.limbs();
  // A window never straddles limbs: 4 divides 64.
  auto window = [&e](int w) -> size_t {
    const int bit = 4 * w;
    return (e[bit / 64] >> (bit % 64)) & 0xf;
  };
  int w = (exp.BitLength() + 3) / 4 - 1;
  const uint64_t* top = table + window(w) * k;
  std::copy(top, top + k, acc);
  while (w-- > 0) {
    for (int i = 0; i < 4; ++i) kern.Sqr(acc, acc);
    if (const size_t d = window(w)) kern.Mul(acc, acc, table + d * k);
  }
}

}  // namespace

MontgomeryContext::MontgomeryContext(const BigInt& modulus)
    : modulus_(modulus), k_(modulus.limbs().size()) {
  PIVOT_CHECK_MSG(modulus.IsOdd() && modulus > BigInt(1),
                  "Montgomery modulus must be odd and > 1");
  // n' = -modulus^{-1} mod 2^64, via Newton iteration on 64-bit words.
  uint64_t m0 = modulus.limbs()[0];
  uint64_t inv = 1;
  for (int i = 0; i < 6; ++i) inv *= 2 - m0 * inv;  // 2^64-adic Newton
  n_prime_ = ~inv + 1;  // -inv mod 2^64

  BigInt r = BigInt(1) << static_cast<int>(64 * k_);
  r_mod_ = r.Mod(modulus_);
  r2_mod_ = r_mod_.ModMul(r_mod_, modulus_);
}

BigInt MontgomeryContext::FromLimbs(const uint64_t* limbs, size_t k) {
  BigInt r;
  r.limbs_.assign(limbs, limbs + k);
  r.Normalize();
  return r;
}

BigInt MontgomeryContext::MontMul(const BigInt& a, const BigInt& b) const {
  Workspace ws(k_, 2);
  const Kernel kern(modulus_, n_prime_, ws);
  LoadResidue(a, modulus_, ws[0]);
  LoadResidue(b, modulus_, ws[1]);
  kern.Mul(ws[0], ws[0], ws[1]);
  return FromLimbs(ws[0], k_);
}

BigInt MontgomeryContext::ToMontgomery(const BigInt& a) const {
  return MontMul(a, r2_mod_);
}

BigInt MontgomeryContext::FromMontgomery(const BigInt& a) const {
  return MontMul(a, BigInt(1));
}

BigInt MontgomeryContext::ModMul(const BigInt& a, const BigInt& b) const {
  // MontMul(a·b·R^-1, R^2) = a·b: two products instead of a round trip
  // through the Montgomery domain.
  Workspace ws(k_, 3);
  const Kernel kern(modulus_, n_prime_, ws);
  LoadResidue(a, modulus_, ws[0]);
  LoadResidue(b, modulus_, ws[1]);
  CopyLimbs(r2_mod_, ws[2], k_);
  kern.Mul(ws[0], ws[0], ws[1]);
  kern.Mul(ws[0], ws[0], ws[2]);
  return FromLimbs(ws[0], k_);
}

void MontgomeryContext::BuildWindowTable(const BigInt& mbase,
                                         BigInt table[16]) const {
  Workspace ws(k_, 16);
  const Kernel kern(modulus_, n_prime_, ws);
  LoadResidue(mbase, modulus_, ws[1]);
  FillWindowTable(kern, ws[0]);
  table[0] = r_mod_;  // Montgomery representation of 1
  for (size_t w = 1; w < 16; ++w) table[w] = FromLimbs(ws[w], k_);
}

BigInt MontgomeryContext::MontExpWithTable(const BigInt table[16],
                                           const BigInt& exp) const {
  PIVOT_CHECK_MSG(!exp.IsNegative(), "negative exponent");
  if (exp.IsZero()) return r_mod_;
  Workspace ws(k_, 17);
  const Kernel kern(modulus_, n_prime_, ws);
  for (size_t w = 1; w < 16; ++w) LoadResidue(table[w], modulus_, ws[w]);
  WindowLadder(kern, ws[0], exp, ws[16]);
  return FromLimbs(ws[16], k_);
}

BigInt MontgomeryContext::MontExp(const BigInt& mbase, const BigInt& exp) const {
  PIVOT_CHECK_MSG(!exp.IsNegative(), "negative exponent");
  if (exp.IsZero()) return r_mod_;
  Workspace ws(k_, 17);
  const Kernel kern(modulus_, n_prime_, ws);
  LoadResidue(mbase, modulus_, ws[1]);
  FillWindowTable(kern, ws[0]);
  WindowLadder(kern, ws[0], exp, ws[16]);
  return FromLimbs(ws[16], k_);
}

BigInt MontgomeryContext::ModExp(const BigInt& base, const BigInt& exp) const {
  PIVOT_CHECK_MSG(!exp.IsNegative(), "negative exponent");
  if (exp.IsZero()) return BigInt(1).Mod(modulus_);
  Workspace ws(k_, 18);
  const Kernel kern(modulus_, n_prime_, ws);
  uint64_t* conv = ws[17];  // R^2 going in, 1 coming out
  LoadResidue(base, modulus_, ws[1]);
  CopyLimbs(r2_mod_, conv, k_);
  kern.Mul(ws[1], ws[1], conv);
  FillWindowTable(kern, ws[0]);
  WindowLadder(kern, ws[0], exp, ws[16]);
  CopyLimbs(BigInt(1), conv, k_);
  kern.Mul(ws[16], ws[16], conv);
  return FromLimbs(ws[16], k_);
}

}  // namespace pivot
