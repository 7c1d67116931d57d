#ifndef PIVOT_COMMON_SHA256_H_
#define PIVOT_COMMON_SHA256_H_

#include <array>
#include <cstdint>
#include <string>

#include "common/bytes.h"

namespace pivot {

// Incremental SHA-256 (FIPS 180-4). Used to hash sample ids into the PSI
// group and to fingerprint model files and trees; implemented here so the
// library has no external crypto dependency.
class Sha256 {
 public:
  static constexpr size_t kDigestSize = 32;

  Sha256();

  void Update(const uint8_t* data, size_t len);
  void Update(const Bytes& data) { Update(data.data(), data.size()); }
  void Update(const std::string& s) {
    Update(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  // Finalizes and returns the digest. The object must not be reused after.
  std::array<uint8_t, kDigestSize> Finish();

  // One-shot convenience.
  static std::array<uint8_t, kDigestSize> Hash(const Bytes& data);

 private:
  void ProcessBlock(const uint8_t* block);

  uint32_t state_[8];
  uint64_t total_len_ = 0;
  uint8_t buffer_[64];
  size_t buffer_len_ = 0;
  bool finished_ = false;
};

std::string HexDigest(const std::array<uint8_t, Sha256::kDigestSize>& digest);

}  // namespace pivot

#endif  // PIVOT_COMMON_SHA256_H_
