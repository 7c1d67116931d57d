#ifndef PIVOT_COMMON_CRC32_H_
#define PIVOT_COMMON_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace pivot {

// CRC-32 (IEEE 802.3, polynomial 0xEDB88320, reflected). Used by the
// reliable-channel framing layer (net/network.h) to detect corrupted or
// truncated frames before they reach protocol code. Not cryptographic:
// it guards against injected transmission faults, not adversaries. The
// protocols are semi-honest; checks against malicious parties (the paper's
// §9.1) are not implemented.
uint32_t Crc32(const uint8_t* data, size_t len);

// Incremental form: feed `crc` from a previous call (start with 0).
uint32_t Crc32Update(uint32_t crc, const uint8_t* data, size_t len);

}  // namespace pivot

#endif  // PIVOT_COMMON_CRC32_H_
