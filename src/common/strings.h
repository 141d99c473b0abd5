// Small string and number utilities shared across XSQ++ modules.
//
// XPath 1.0 comparisons coerce operands to numbers when both sides look
// numeric; `contains` and `=` fall back to string comparison otherwise.
// These helpers centralize that logic so the streaming engines and the
// DOM oracle agree bit-for-bit.
#ifndef XSQ_COMMON_STRINGS_H_
#define XSQ_COMMON_STRINGS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace xsq {

// Parses a decimal floating point number after trimming XML whitespace.
// Returns nullopt when the trimmed string is not a complete number.
std::optional<double> ParseNumber(std::string_view s);

// "123" -> 123; nullopt when empty, not all digits, or above 2^64 - 1.
std::optional<uint64_t> ParseUint64(std::string_view text);

// Takes the word before the first space off the front of *rest:
// "RECORD shake <doc>" -> "RECORD", *rest = "shake <doc>". Empty when
// *rest is empty.
std::string_view TakeWord(std::string_view* rest);

// True for the XML whitespace characters space, tab, CR, LF.
inline bool IsXmlWhitespace(char c) {
  return c == ' ' || c == '\t' || c == '\r' || c == '\n';
}

// Removes leading and trailing XML whitespace.
std::string_view TrimWhitespace(std::string_view s);

// True if `haystack` contains `needle` (XPath contains()).
bool Contains(std::string_view haystack, std::string_view needle);

// Splits on a single character; keeps empty pieces.
std::vector<std::string_view> Split(std::string_view s, char sep);

// Formats a double the way XPath 1.0 number-to-string conversion does:
// integral values print without a decimal point ("42"), others with
// shortest round-trip precision.
std::string FormatNumber(double value);

// Escapes <, >, &, ", ' for inclusion in XML text or attribute values.
std::string XmlEscape(std::string_view s);

// Line-oriented payload escaping used by the xsqd wire protocol and the
// pub/sub EVENT frames: "\n" = newline, "\t" = tab, "\\" = backslash,
// so arbitrary document and item bytes fit on one protocol line. Kept
// here (not in net/) so the service layer can format event frames with
// exactly the encoding the transports decode.
std::string LineEscape(std::string_view text);
std::string LineUnescape(std::string_view text);

// A deterministic 64-bit split-mix style PRNG used by data generators and
// property tests so corpora and test cases are reproducible across runs.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  // Uniform integer in [0, bound). bound must be > 0.
  uint64_t Below(uint64_t bound) { return Next() % bound; }

  // Uniform double in [0, 1).
  double NextDouble() {
    return static_cast<double>(Next() >> 11) * (1.0 / 9007199254740992.0);
  }

  // True with probability p.
  bool Chance(double p) { return NextDouble() < p; }

 private:
  uint64_t state_;
};

}  // namespace xsq

#endif  // XSQ_COMMON_STRINGS_H_
