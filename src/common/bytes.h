#ifndef PIVOT_COMMON_BYTES_H_
#define PIVOT_COMMON_BYTES_H_

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"

namespace pivot {

using Bytes = std::vector<uint8_t>;

// Append-only binary writer with little-endian fixed-width encodings and
// length-prefixed variable payloads. Used by the network layer and by the
// cryptographic serializers.
class ByteWriter {
 public:
  ByteWriter() = default;

  void WriteU8(uint8_t v) { buf_.push_back(v); }
  void WriteU32(uint32_t v);
  void WriteU64(uint64_t v);
  void WriteI64(int64_t v) { WriteU64(static_cast<uint64_t>(v)); }
  void WriteDouble(double v);
  // Length-prefixed byte blob.
  void WriteBytes(const Bytes& b);
  void WriteString(const std::string& s);

  const Bytes& data() const { return buf_; }
  Bytes Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

// Sequential binary reader matching ByteWriter's encodings. All reads
// return an error Status on truncated input rather than aborting, so the
// network layer can reject malformed messages.
class ByteReader {
 public:
  explicit ByteReader(const Bytes& buf) : buf_(buf.data()), size_(buf.size()) {}
  ByteReader(const uint8_t* data, size_t size) : buf_(data), size_(size) {}

  Result<uint8_t> ReadU8();
  Result<uint32_t> ReadU32();
  Result<uint64_t> ReadU64();
  Result<int64_t> ReadI64();
  Result<double> ReadDouble();
  Result<Bytes> ReadBytes();
  Result<std::string> ReadString();

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

 private:
  Status Need(size_t n);

  const uint8_t* buf_;
  size_t size_;
  size_t pos_ = 0;
};

}  // namespace pivot

#endif  // PIVOT_COMMON_BYTES_H_
