#ifndef PAWS_UTIL_STATUS_H_
#define PAWS_UTIL_STATUS_H_

#include <optional>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

namespace paws {

/// Error categories used across the PAWS library. Modeled after the
/// Arrow/RocksDB status idiom: functions that can fail return a Status (or
/// StatusOr<T>) instead of throwing exceptions.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kFailedPrecondition,
  kNotFound,
  kOutOfRange,
  kInternal,
  kUnimplemented,
  kResourceExhausted,  // e.g. MILP node limit reached without proof
  kInfeasible,         // LP/MILP has no feasible solution
  kUnbounded,          // LP objective is unbounded
};

/// Human-readable name of a status code, e.g. "InvalidArgument".
const char* StatusCodeName(StatusCode code);

/// A cheap value type carrying success or an error (code + message).
///
/// Usage:
///   Status s = DoThing();
///   if (!s.ok()) return s;
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Infeasible(std::string msg) {
    return Status(StatusCode::kInfeasible, std::move(msg));
  }
  static Status Unbounded(std::string msg) {
    return Status(StatusCode::kUnbounded, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

inline std::ostream& operator<<(std::ostream& os, const Status& s) {
  return os << s.ToString();
}

/// Aborts the process with `msg` if `condition` is false. Used for internal
/// invariants that indicate programmer error rather than bad input.
void CheckOrDie(bool condition, const char* msg);

/// First non-OK status in `statuses`, or OK. The deterministic way to
/// surface an error out of a parallel loop that collected one Status per
/// index: the reported error does not depend on execution order.
Status FirstError(const std::vector<Status>& statuses);

/// Either a value of type T or an error Status. Accessing value() on an
/// error aborts with the status message, so callers must check ok() first
/// (Google style: no exceptions).
template <typename T>
class StatusOr {
 public:
  /// Implicit construction from a value or from an error Status keeps call
  /// sites terse: `return result;` / `return Status::InvalidArgument(...)`.
  StatusOr(T value) : value_(std::move(value)) {}          // NOLINT
  StatusOr(Status status) : status_(std::move(status)) {}  // NOLINT
  /// An error until assigned: the target a decoder reads into.
  StatusOr() : status_(StatusCode::kInternal, "StatusOr: no value") {}

  bool ok() const { return status_.ok(); }
  const Status& status() const { return status_; }

  const T& value() const& {
    CheckOrDie(ok(), status_.message().c_str());
    return *value_;
  }
  T& value() & {
    CheckOrDie(ok(), status_.message().c_str());
    return *value_;
  }
  T&& value() && {
    CheckOrDie(ok(), status_.message().c_str());
    return *std::move(value_);
  }

  const T& operator*() const& { return *value_; }
  T& operator*() & { return *value_; }
  const T* operator->() const { return &*value_; }
  T* operator->() { return &*value_; }

 private:
  Status status_;
  std::optional<T> value_;
};

#define PAWS_RETURN_IF_ERROR(expr)              \
  do {                                          \
    ::paws::Status _paws_status = (expr);       \
    if (!_paws_status.ok()) return _paws_status; \
  } while (0)

#define PAWS_CONCAT_IMPL(a, b) a##b
#define PAWS_CONCAT(a, b) PAWS_CONCAT_IMPL(a, b)

#define PAWS_ASSIGN_OR_RETURN_IMPL(tmp, lhs, expr) \
  auto tmp = (expr);                               \
  if (!tmp.ok()) return tmp.status();              \
  lhs = std::move(tmp).value()

#define PAWS_ASSIGN_OR_RETURN(lhs, expr) \
  PAWS_ASSIGN_OR_RETURN_IMPL(PAWS_CONCAT(_paws_statusor_, __LINE__), lhs, expr)

}  // namespace paws

#endif  // PAWS_UTIL_STATUS_H_
