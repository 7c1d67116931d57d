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
// ---------------------------------------------------------------------------

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

BigInt MontgomeryContext::MontMul(const BigInt& a, const BigInt& b) const {
  // CIOS (coarsely integrated operand scanning) Montgomery multiplication.
  const std::vector<uint64_t>& n = modulus_.limbs();
  std::vector<uint64_t> t(k_ + 2, 0);
  const std::vector<uint64_t>& al = a.limbs();
  const std::vector<uint64_t>& bl = b.limbs();

  for (size_t i = 0; i < k_; ++i) {
    const uint64_t ai = i < al.size() ? al[i] : 0;
    // t += ai * b
    uint64_t carry = 0;
    for (size_t j = 0; j < k_; ++j) {
      const uint64_t bj = j < bl.size() ? bl[j] : 0;
      u128 cur = static_cast<u128>(ai) * bj + t[j] + carry;
      t[j] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    u128 s = static_cast<u128>(t[k_]) + carry;
    t[k_] = static_cast<uint64_t>(s);
    t[k_ + 1] = static_cast<uint64_t>(s >> 64);

    // m = t[0] * n' mod 2^64; t += m * n; t >>= 64
    const uint64_t m = t[0] * n_prime_;
    u128 cur = static_cast<u128>(m) * n[0] + t[0];
    carry = static_cast<uint64_t>(cur >> 64);
    for (size_t j = 1; j < k_; ++j) {
      cur = static_cast<u128>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<uint64_t>(cur);
      carry = static_cast<uint64_t>(cur >> 64);
    }
    s = static_cast<u128>(t[k_]) + carry;
    t[k_ - 1] = static_cast<uint64_t>(s);
    t[k_] = t[k_ + 1] + static_cast<uint64_t>(s >> 64);
    t[k_ + 1] = 0;
  }

  BigInt result;
  result.limbs_.assign(t.begin(), t.begin() + k_ + 1);
  result.Normalize();
  if (BigInt::CompareMagnitude(result, modulus_) >= 0) {
    result = BigInt::SubMagnitude(result, modulus_);
  }
  return result;
}

BigInt MontgomeryContext::ToMontgomery(const BigInt& a) const {
  return MontMul(a, r2_mod_);
}

BigInt MontgomeryContext::FromMontgomery(const BigInt& a) const {
  return MontMul(a, BigInt(1));
}

BigInt MontgomeryContext::ModMul(const BigInt& a, const BigInt& b) const {
  return FromMontgomery(MontMul(ToMontgomery(a), ToMontgomery(b)));
}

void MontgomeryContext::BuildWindowTable(const BigInt& mbase,
                                         BigInt table[16]) const {
  table[0] = r_mod_;  // Montgomery representation of 1
  for (int i = 1; i < 16; ++i) table[i] = MontMul(table[i - 1], mbase);
}

BigInt MontgomeryContext::MontExpWithTable(const BigInt table[16],
                                           const BigInt& exp) const {
  PIVOT_CHECK_MSG(!exp.IsNegative(), "negative exponent");
  if (exp.IsZero()) return r_mod_;
  const int bits = exp.BitLength();
  int top = ((bits + 3) / 4) * 4;  // round up to a window boundary
  BigInt acc = r_mod_;
  for (int pos = top - 4; pos >= 0; pos -= 4) {
    for (int i = 0; i < 4; ++i) acc = MontMul(acc, acc);
    int window = (exp.TestBit(pos + 3) << 3) | (exp.TestBit(pos + 2) << 2) |
                 (exp.TestBit(pos + 1) << 1) | exp.TestBit(pos);
    if (window) acc = MontMul(acc, table[window]);
  }
  return acc;
}

BigInt MontgomeryContext::MontExp(const BigInt& mbase, const BigInt& exp) const {
  BigInt table[16];
  BuildWindowTable(mbase, table);
  return MontExpWithTable(table, exp);
}

BigInt MontgomeryContext::ModExp(const BigInt& base, const BigInt& exp) const {
  PIVOT_CHECK_MSG(!exp.IsNegative(), "negative exponent");
  if (exp.IsZero()) return BigInt(1).Mod(modulus_);
  const BigInt mbase = ToMontgomery(base.Mod(modulus_));
  return FromMontgomery(MontExp(mbase, exp));
}

}  // namespace pivot
