#include "common/strings.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace xsq {

std::string_view TrimWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() && IsXmlWhitespace(s[begin])) ++begin;
  size_t end = s.size();
  while (end > begin && IsXmlWhitespace(s[end - 1])) --end;
  return s.substr(begin, end - begin);
}

std::optional<uint64_t> ParseUint64(std::string_view text) {
  if (text.empty()) return std::nullopt;
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') return std::nullopt;
    uint64_t digit = static_cast<uint64_t>(c - '0');
    if (value > (UINT64_MAX - digit) / 10) return std::nullopt;
    value = value * 10 + digit;
  }
  return value;
}

std::string_view TakeWord(std::string_view* rest) {
  size_t space = rest->find(' ');
  std::string_view word = rest->substr(0, space);
  *rest = space == std::string_view::npos ? std::string_view()
                                          : rest->substr(space + 1);
  return word;
}

std::optional<double> ParseNumber(std::string_view s) {
  std::string_view t = TrimWhitespace(s);
  if (t.empty()) return std::nullopt;
  // strtod needs NUL termination; numerals short enough for the stack
  // buffer (the overwhelming majority) avoid a heap allocation, longer
  // ones — legal XPath numerals like a 70-digit integer or a padded
  // "0.000...1" — take the std::string path instead of being rejected.
  char stack_buf[64];
  std::string heap_buf;
  const char* begin;
  if (t.size() < sizeof(stack_buf)) {
    std::memcpy(stack_buf, t.data(), t.size());
    stack_buf[t.size()] = '\0';
    begin = stack_buf;
  } else {
    heap_buf.assign(t);
    begin = heap_buf.c_str();
  }
  char* end = nullptr;
  double value = std::strtod(begin, &end);
  if (end != begin + t.size()) return std::nullopt;
  if (std::isnan(value)) return std::nullopt;
  return value;
}

bool Contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string FormatNumber(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "Infinity" : "-Infinity";
  double integral_part;
  if (std::modf(value, &integral_part) == 0.0 &&
      std::fabs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", value);
    return buf;
  }
  // Shortest representation that round-trips: %.15g suffices for most
  // doubles, %.17g always does. Fixed %.12g silently lost precision,
  // which made streaming and DOM evaluators disagree on values that
  // differ only past the 12th significant digit.
  char buf[64];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, value);
    if (std::strtod(buf, nullptr) == value) break;
  }
  return buf;
}

std::string XmlEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '<':
        out += "&lt;";
        break;
      case '>':
        out += "&gt;";
        break;
      case '&':
        out += "&amp;";
        break;
      case '"':
        out += "&quot;";
        break;
      case '\'':
        out += "&apos;";
        break;
      default:
        out += c;
    }
  }
  return out;
}

std::string LineEscape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\\': out += "\\\\"; break;
      default: out.push_back(c); break;
    }
  }
  return out;
}

std::string LineUnescape(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (size_t i = 0; i < text.size(); ++i) {
    if (text[i] == '\\' && i + 1 < text.size()) {
      ++i;
      switch (text[i]) {
        case 'n': out.push_back('\n'); break;
        case 't': out.push_back('\t'); break;
        case '\\': out.push_back('\\'); break;
        default: out.push_back(text[i]); break;
      }
    } else {
      out.push_back(text[i]);
    }
  }
  return out;
}

}  // namespace xsq
