// Status and Result<T>: exception-free error handling in the style of
// RocksDB's Status / Arrow's Result. All fallible public APIs in XSQ++
// return one of these types.
#ifndef XSQ_COMMON_STATUS_H_
#define XSQ_COMMON_STATUS_H_

#include <cassert>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace xsq {

// Broad error categories, kept deliberately small; detail lives in the
// human-readable message (with line/column for parse errors). Each
// error code is declared once, here: a row X(Name) makes the
// enumerator StatusCode::kName, the factory Status::Name(msg) and the
// stable name "Name" (StatusCodeName, and the <Code> of the line
// protocol's "ERR <Code>: <message>" replies).
#define XSQ_ERROR_CODES(X)                                                    \
  X(InvalidArgument)    /* caller passed something malformed (bad query) */   \
  X(ParseError)         /* malformed XML / XPath input */                     \
  X(NotSupported)       /* feature outside the implemented XPath subset */    \
  X(OutOfRange)         /* index/size violation */                            \
  X(ResourceExhausted)  /* admission/backpressure/memory budget rejection */  \
  X(Internal)           /* invariant violation inside the library */          \
  X(Cancelled)          /* caller cancelled the operation (CancelToken) */    \
  X(DeadlineExceeded)   /* the deadline passed before the work finished */    \
  X(LimitExceeded)      /* input exceeded a configured hard limit */          \
  X(DataCorruption)     /* stored bytes failed integrity checks (tape CRC) */ \
  X(NotFound)           /* a named object is absent (document not recorded) */

enum class StatusCode : uint8_t {
  kOk = 0,
#define XSQ_STATUS_ENUMERATOR(name) k##name,
  XSQ_ERROR_CODES(XSQ_STATUS_ENUMERATOR)
#undef XSQ_STATUS_ENUMERATOR
};

// Returns a stable human-readable name such as "ParseError" ("OK" for
// kOk).
const char* StatusCodeName(StatusCode code);

// The error code StatusCodeName names `name`; nullopt for any other
// name, "OK" included.
std::optional<StatusCode> StatusCodeFromName(std::string_view name);

// A cheap value type describing the outcome of an operation.
class Status {
 public:
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status OK() { return Status(); }
#define XSQ_STATUS_FACTORY(name)                        \
  static Status name(std::string msg) {                 \
    return Status(StatusCode::k##name, std::move(msg)); \
  }
  XSQ_ERROR_CODES(XSQ_STATUS_FACTORY)
#undef XSQ_STATUS_FACTORY

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "OK" or "ParseError: unexpected '<' at line 3, column 7".
  std::string ToString() const;

  bool operator==(const Status& other) const {
    return code_ == other.code_ && message_ == other.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

// Result<T> holds either a value or an error Status.
template <typename T>
class Result {
 public:
  // Intentionally implicit so `return value;` and `return status;` both work.
  Result(T value) : value_(std::move(value)) {}       // NOLINT
  Result(Status status) : value_(std::move(status)) {  // NOLINT
    assert(!std::get<Status>(value_).ok() &&
           "Result constructed from OK status");
  }

  bool ok() const { return std::holds_alternative<T>(value_); }

  const T& value() const& {
    assert(ok());
    return std::get<T>(value_);
  }
  T& value() & {
    assert(ok());
    return std::get<T>(value_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(value_));
  }

  Status status() const {
    if (ok()) return Status::OK();
    return std::get<Status>(value_);
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<T, Status> value_;
};

// Propagates a non-OK status to the caller.
#define XSQ_RETURN_IF_ERROR(expr)            \
  do {                                       \
    ::xsq::Status _st = (expr);              \
    if (!_st.ok()) return _st;               \
  } while (false)

// Evaluates a Result<T> expression, propagating errors, else binds `lhs`.
#define XSQ_ASSIGN_OR_RETURN(lhs, expr)      \
  auto XSQ_CONCAT_(_res, __LINE__) = (expr); \
  if (!XSQ_CONCAT_(_res, __LINE__).ok())     \
    return XSQ_CONCAT_(_res, __LINE__).status(); \
  lhs = std::move(XSQ_CONCAT_(_res, __LINE__)).value()

#define XSQ_CONCAT_IMPL_(a, b) a##b
#define XSQ_CONCAT_(a, b) XSQ_CONCAT_IMPL_(a, b)

}  // namespace xsq

#endif  // XSQ_COMMON_STATUS_H_
