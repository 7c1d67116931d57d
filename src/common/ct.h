#ifndef PIVOT_COMMON_CT_H_
#define PIVOT_COMMON_CT_H_

#include <cstddef>
#include <cstdint>

#include "common/bytes.h"

namespace pivot {

// Constant-time primitives for secret-dependent data.
//
// Variable-time code on secret bytes (early-exit comparisons, branches on
// key or share material) is a timing side channel: a co-located observer —
// or, in a multi-party protocol, simply the other parties measuring round
// latency — can learn bits of the secret from how long an operation took.
// Everything in this header runs in time that depends only on operand
// *lengths*, never on operand *values* (lengths are public throughout the
// protocol: batch sizes, key widths and share counts are agreed up front).
//
// The taint analyzer (tools/pivot_taint.py) flags `==`/`!=`/`memcmp` on
// tainted data and secret-dependent branches; routing the operation through
// CtEqual / CtSelect / the mask helpers below is the sanctioned fix. See
// DESIGN.md, "Leakage model".

namespace ct {

using u128ct = unsigned __int128;

// Compiler value barrier: keeps the optimizer from reasoning about the
// accumulated difference and re-introducing an early exit.
inline uint32_t ValueBarrier(uint32_t v) {
#if defined(__GNUC__) || defined(__clang__)
  __asm__ volatile("" : "+r"(v) : : );
#endif
  return v;
}

// 0xFF..FF if v != 0, else 0 — without a data-dependent branch.
inline uint32_t MaskNonZeroU32(uint32_t v) {
  v = ValueBarrier(v);
  // For v != 0, v | -v has the top bit set; arithmetic shift smears it.
  return static_cast<uint32_t>(
      static_cast<int32_t>(v | (0u - v)) >> 31);
}

inline uint64_t MaskNonZeroU64(uint64_t v) {
  uint32_t folded = static_cast<uint32_t>(v) | static_cast<uint32_t>(v >> 32);
  uint64_t m = MaskNonZeroU32(folded);
  return (m << 32) | m;
}

inline u128ct MaskNonZeroU128(u128ct v) {
  uint64_t folded =
      static_cast<uint64_t>(v) | static_cast<uint64_t>(v >> 64);
  uint64_t m = MaskNonZeroU64(folded);
  return (static_cast<u128ct>(m) << 64) | m;
}

// 1 if v == 0, else 0, in constant time.
inline bool IsZeroU64(uint64_t v) { return (MaskNonZeroU64(v) & 1) == 0; }
inline bool IsZeroU128(u128ct v) {
  return (static_cast<uint64_t>(MaskNonZeroU128(v)) & 1) == 0;
}

// Constant-time equality of fixed-width words.
inline bool EqualU64(uint64_t a, uint64_t b) { return IsZeroU64(a ^ b); }
inline bool EqualU128(u128ct a, u128ct b) { return IsZeroU128(a ^ b); }

// Constant-time select: mask must be all-ones (take a) or all-zeros
// (take b), e.g. from MaskNonZeroU64.
inline uint64_t SelectU64(uint64_t mask, uint64_t a, uint64_t b) {
  return (a & mask) | (b & ~mask);
}
inline u128ct SelectU128(u128ct mask, u128ct a, u128ct b) {
  return (a & mask) | (b & ~mask);
}

// Byte-span equality: touches every byte of both spans regardless of where
// (or whether) they differ. REQUIRES equal lengths from the caller's
// protocol context; a length mismatch returns false immediately, which
// only reveals the (public) lengths.
inline bool CtEqual(const uint8_t* a, const uint8_t* b, size_t len) {
  uint32_t diff = 0;
  for (size_t i = 0; i < len; ++i) {
    diff |= static_cast<uint32_t>(a[i] ^ b[i]);
  }
  return MaskNonZeroU32(diff) == 0;
}

inline bool CtEqual(const Bytes& a, const Bytes& b) {
  if (a.size() != b.size()) return false;
  return CtEqual(a.data(), b.data(), a.size());
}

// Byte-span select: out[i] = pick_a ? a[i] : b[i] without branching on
// pick_a. pick_a must be 0 or 1. out may alias a or b.
inline void CtSelect(uint8_t pick_a, const uint8_t* a, const uint8_t* b,
                     uint8_t* out, size_t len) {
  const uint8_t mask = static_cast<uint8_t>(
      MaskNonZeroU32(static_cast<uint32_t>(pick_a)));
  for (size_t i = 0; i < len; ++i) {
    out[i] = static_cast<uint8_t>((a[i] & mask) | (b[i] & ~mask));
  }
}

inline void CtSelect(uint8_t pick_a, const Bytes& a, const Bytes& b,
                     Bytes& out) {
  out.resize(a.size());
  CtSelect(pick_a, a.data(), b.data(), out.data(), a.size());
}

// Folds a vector-shaped check into one constant-time verdict: true iff
// every word is zero. The loop shape is identical for pass and fail, so
// timing cannot reveal *which* element failed.
inline bool AllZeroU128(const u128ct* values, size_t count) {
  u128ct acc = 0;
  for (size_t i = 0; i < count; ++i) acc |= values[i];
  return IsZeroU128(acc);
}

}  // namespace ct

}  // namespace pivot

#endif  // PIVOT_COMMON_CT_H_
