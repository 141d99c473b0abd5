#include "common/status.h"

#include <iterator>

namespace xsq {

namespace {

constexpr const char* kCodeNames[] = {
    "OK",
#define XSQ_STATUS_NAME(name) #name,
    XSQ_ERROR_CODES(XSQ_STATUS_NAME)
#undef XSQ_STATUS_NAME
};

}  // namespace

const char* StatusCodeName(StatusCode code) {
  size_t index = static_cast<size_t>(code);
  return index < std::size(kCodeNames) ? kCodeNames[index] : "Unknown";
}

std::optional<StatusCode> StatusCodeFromName(std::string_view name) {
  for (size_t i = 1; i < std::size(kCodeNames); ++i) {
    if (name == kCodeNames[i]) return static_cast<StatusCode>(i);
  }
  return std::nullopt;
}

std::string Status::ToString() const {
  if (ok()) return "OK";
  std::string out = StatusCodeName(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

}  // namespace xsq
