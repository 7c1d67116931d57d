#include "common/bytes.h"

#include <cstring>

namespace pivot {

void ByteWriter::WriteU32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::WriteU64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void ByteWriter::WriteDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  WriteU64(bits);
}

void ByteWriter::WriteBytes(const Bytes& b) {
  WriteU64(b.size());
  buf_.insert(buf_.end(), b.begin(), b.end());
}

void ByteWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  buf_.insert(buf_.end(), s.begin(), s.end());
}

Status ByteReader::Need(size_t n) {
  if (pos_ + n > size_) {
    return Status::OutOfRange("truncated buffer: need " + std::to_string(n) +
                              " bytes, have " + std::to_string(size_ - pos_));
  }
  return Status::Ok();
}

Result<uint8_t> ByteReader::ReadU8() {
  PIVOT_RETURN_IF_ERROR(Need(1));
  return buf_[pos_++];
}

Result<uint32_t> ByteReader::ReadU32() {
  PIVOT_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<uint32_t>(buf_[pos_ + i]) << (8 * i);
  pos_ += 4;
  return v;
}

Result<uint64_t> ByteReader::ReadU64() {
  PIVOT_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(buf_[pos_ + i]) << (8 * i);
  pos_ += 8;
  return v;
}

Result<int64_t> ByteReader::ReadI64() {
  PIVOT_ASSIGN_OR_RETURN(uint64_t v, ReadU64());
  return static_cast<int64_t>(v);
}

Result<double> ByteReader::ReadDouble() {
  PIVOT_ASSIGN_OR_RETURN(uint64_t bits, ReadU64());
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

Result<Bytes> ByteReader::ReadBytes() {
  PIVOT_ASSIGN_OR_RETURN(uint64_t len, ReadU64());
  PIVOT_RETURN_IF_ERROR(Need(len));
  Bytes out(buf_ + pos_, buf_ + pos_ + len);
  pos_ += len;
  return out;
}

Result<std::string> ByteReader::ReadString() {
  PIVOT_ASSIGN_OR_RETURN(uint64_t len, ReadU64());
  PIVOT_RETURN_IF_ERROR(Need(len));
  std::string out(reinterpret_cast<const char*>(buf_ + pos_), len);
  pos_ += len;
  return out;
}

}  // namespace pivot
