#ifndef PIVOT_COMMON_STATUS_H_
#define PIVOT_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace pivot {

// Error categories used across the library. Modeled after the
// Arrow/RocksDB convention of returning status objects instead of
// throwing exceptions (exceptions are not used in this codebase).
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kNotFound,
  kUnimplemented,
  kIoError,
  kProtocolError,   // a multi-party protocol step failed or was aborted
  kIntegrityError,  // a decryption failed its range or divisibility check
  kAborted,         // the party mesh was aborted after a peer failed
};

const char* StatusCodeToString(StatusCode code);

// A success-or-error value. Cheap to copy in the success case.
// [[nodiscard]]: silently dropping a Status can mask failed decryptions,
// aborted protocol rounds, or truncated wire reads — callers must consume
// it (propagate, check, or test-assert on it).
class [[nodiscard]] Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status IoError(std::string msg) {
    return Status(StatusCode::kIoError, std::move(msg));
  }
  static Status ProtocolError(std::string msg) {
    return Status(StatusCode::kProtocolError, std::move(msg));
  }
  static Status IntegrityError(std::string msg) {
    return Status(StatusCode::kIntegrityError, std::move(msg));
  }
  static Status Aborted(std::string msg) {
    return Status(StatusCode::kAborted, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "<code>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline bool operator==(const Status& a, const Status& b) {
  return a.code() == b.code() && a.message() == b.message();
}

// A value-or-error. `value()` must only be called when `ok()`.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : data_(std::move(value)) {}               // NOLINT
  Result(Status status) : data_(std::move(status)) {}        // NOLINT

  bool ok() const { return std::holds_alternative<T>(data_); }
  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(data_);
  }
  T& value() & { return std::get<T>(data_); }
  const T& value() const& { return std::get<T>(data_); }
  T&& value() && { return std::get<T>(std::move(data_)); }

  T ValueOr(T fallback) const {
    return ok() ? std::get<T>(data_) : std::move(fallback);
  }

 private:
  std::variant<T, Status> data_;
};

// Propagate a non-OK Status to the caller.
#define PIVOT_RETURN_IF_ERROR(expr)          \
  do {                                       \
    ::pivot::Status _st = (expr);            \
    if (!_st.ok()) return _st;               \
  } while (0)

// Evaluate a Result expression; on error return its status, otherwise
// bind the value to `lhs`.
#define PIVOT_ASSIGN_OR_RETURN(lhs, rexpr)                  \
  auto PIVOT_CONCAT_(_res_, __LINE__) = (rexpr);            \
  if (!PIVOT_CONCAT_(_res_, __LINE__).ok())                 \
    return PIVOT_CONCAT_(_res_, __LINE__).status();         \
  lhs = std::move(PIVOT_CONCAT_(_res_, __LINE__)).value()

#define PIVOT_CONCAT_INNER_(a, b) a##b
#define PIVOT_CONCAT_(a, b) PIVOT_CONCAT_INNER_(a, b)

}  // namespace pivot

#endif  // PIVOT_COMMON_STATUS_H_
