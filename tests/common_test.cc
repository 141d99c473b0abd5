#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>

#include "common/crc32c.h"
#include "common/memory_tracker.h"
#include "common/status.h"
#include "common/strings.h"
#include "core/aggregator.h"
#include "core/item.h"

namespace xsq {
namespace {

TEST(StatusTest, OkByDefault) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status status = Status::ParseError("bad tag");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kParseError);
  EXPECT_EQ(status.ToString(), "ParseError: bad tag");
}

TEST(StatusTest, EveryCodeHasAName) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotSupported), "NotSupported");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_STREQ(StatusCodeName(StatusCode::kCancelled), "Cancelled");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDeadlineExceeded),
               "DeadlineExceeded");
  EXPECT_STREQ(StatusCodeName(StatusCode::kLimitExceeded), "LimitExceeded");
  EXPECT_STREQ(StatusCodeName(StatusCode::kDataCorruption), "DataCorruption");
  EXPECT_STREQ(StatusCodeName(StatusCode::kNotFound), "NotFound");
  // The wire decoder inverts the names; "OK" and unknown names are not
  // error codes.
  EXPECT_EQ(StatusCodeFromName("NotFound"), StatusCode::kNotFound);
  EXPECT_EQ(StatusCodeFromName("ParseError"), StatusCode::kParseError);
  EXPECT_FALSE(StatusCodeFromName("OK").has_value());
  EXPECT_FALSE(StatusCodeFromName("Frob").has_value());
}

TEST(Crc32cTest, KnownAnswerVectors) {
  // RFC 3720 appendix B.4 test vectors for CRC32C (Castagnoli).
  EXPECT_EQ(Crc32c("", 0), 0x00000000u);
  EXPECT_EQ(Crc32c("123456789", 9), 0xE3069283u);
  std::string zeros(32, '\0');
  EXPECT_EQ(Crc32c(zeros.data(), zeros.size()), 0x8A9136AAu);
  std::string ones(32, '\xff');
  EXPECT_EQ(Crc32c(ones.data(), ones.size()), 0x62A8AB43u);
}

TEST(Crc32cTest, SeedChainingMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  uint32_t whole = Crc32c(data.data(), data.size());
  for (size_t split = 0; split <= data.size(); ++split) {
    uint32_t crc = Crc32c(data.data(), split);
    crc = Crc32c(data.data() + split, data.size() - split, crc);
    EXPECT_EQ(crc, whole) << "split " << split;
  }
}

TEST(Crc32cTest, SingleBitFlipsAlwaysChangeTheChecksum) {
  const std::string data = "XSQTAPE2 payload bytes for the flip check";
  const uint32_t reference = Crc32c(data.data(), data.size());
  for (size_t byte = 0; byte < data.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::string mutated = data;
      mutated[byte] = static_cast<char>(mutated[byte] ^ (1 << bit));
      EXPECT_NE(Crc32c(mutated.data(), mutated.size()), reference)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(ResultTest, HoldsValueOrStatus) {
  Result<int> good = 42;
  ASSERT_TRUE(good.ok());
  EXPECT_EQ(*good, 42);
  EXPECT_TRUE(good.status().ok());
  Result<int> bad = Status::InvalidArgument("nope");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("abc");
  std::string moved = *std::move(r);
  EXPECT_EQ(moved, "abc");
}

TEST(StringsTest, ParseNumber) {
  EXPECT_DOUBLE_EQ(*ParseNumber("12.5"), 12.5);
  EXPECT_DOUBLE_EQ(*ParseNumber("  -3 "), -3.0);
  EXPECT_DOUBLE_EQ(*ParseNumber("1e3"), 1000.0);
  EXPECT_FALSE(ParseNumber("").has_value());
  EXPECT_FALSE(ParseNumber("12x").has_value());
  EXPECT_FALSE(ParseNumber("x12").has_value());
  EXPECT_FALSE(ParseNumber("1 2").has_value());
}

// Regression: numerals longer than the 64-byte stack buffer used to be
// rejected outright; they must now take the heap path and parse.
TEST(StringsTest, ParseNumberLongNumerals) {
  // 70-digit integer: value saturates the double mantissa but parses.
  std::string long_int(70, '9');
  ASSERT_TRUE(ParseNumber(long_int).has_value());
  EXPECT_DOUBLE_EQ(*ParseNumber(long_int), 1e70);

  // Zero-padded fraction well past 63 chars, exact value 0.5.
  std::string padded = "0." + std::string(100, '0');
  padded.insert(2, "5");
  EXPECT_DOUBLE_EQ(*ParseNumber(padded), 0.5);

  // Long garbage is still rejected (parse must consume every byte).
  std::string long_bad(80, '1');
  long_bad.push_back('x');
  EXPECT_FALSE(ParseNumber(long_bad).has_value());

  // Exactly at and around the stack-buffer boundary.
  for (size_t digits : {62u, 63u, 64u, 65u}) {
    std::string s = "1" + std::string(digits, '0');
    ASSERT_TRUE(ParseNumber(s).has_value()) << digits;
  }
}

TEST(StringsTest, TrimWhitespace) {
  EXPECT_EQ(TrimWhitespace("  a b \n"), "a b");
  EXPECT_EQ(TrimWhitespace("\t\r\n "), "");
  EXPECT_EQ(TrimWhitespace("x"), "x");
}

TEST(StringsTest, FormatNumber) {
  EXPECT_EQ(FormatNumber(42.0), "42");
  EXPECT_EQ(FormatNumber(-7.0), "-7");
  EXPECT_EQ(FormatNumber(2.5), "2.5");
}

// Regression: FormatNumber used fixed %.12g, so doubles differing past
// the 12th significant digit collapsed to the same string and the
// streaming/DOM differential checks could not distinguish them. The
// shortest-round-trip form must re-parse to the identical bits.
TEST(StringsTest, FormatNumberRoundTripsExactly) {
  const double cases[] = {
      0.1,
      1.0 / 3.0,
      2.0 / 3.0,
      1234567890123.4567,   // needs >12 significant digits
      0.30000000000000004,  // classic 0.1 + 0.2
      1e-300,
      -9.007199254740993e15,  // 2^53 + 1 territory
  };
  for (double value : cases) {
    std::optional<double> back = ParseNumber(FormatNumber(value));
    ASSERT_TRUE(back.has_value()) << FormatNumber(value);
    EXPECT_EQ(*back, value) << FormatNumber(value);
  }
}

// Property test: random doubles round-trip bit-exactly through
// FormatNumber + ParseNumber.
TEST(StringsTest, FormatNumberRoundTripProperty) {
  SplitMix64 rng(0x0b5efab1e5eedULL);
  int tested = 0;
  while (tested < 2000) {
    uint64_t bits = rng.Next();
    double value;
    static_assert(sizeof(bits) == sizeof(value));
    std::memcpy(&value, &bits, sizeof(value));
    if (std::isnan(value) || std::isinf(value)) continue;
    ++tested;
    std::optional<double> back = ParseNumber(FormatNumber(value));
    ASSERT_TRUE(back.has_value()) << FormatNumber(value);
    EXPECT_EQ(*back, value) << FormatNumber(value);
  }
}

TEST(StringsTest, XmlEscape) {
  EXPECT_EQ(XmlEscape("a<b>&'\""), "a&lt;b&gt;&amp;&apos;&quot;");
  EXPECT_EQ(XmlEscape("plain"), "plain");
}

TEST(StringsTest, SplitKeepsEmptyPieces) {
  auto pieces = Split("a,,b", ',');
  ASSERT_EQ(pieces.size(), 3u);
  EXPECT_EQ(pieces[1], "");
}

TEST(StringsTest, SplitMix64IsDeterministic) {
  SplitMix64 a(7);
  SplitMix64 b(7);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
  SplitMix64 c(8);
  EXPECT_NE(SplitMix64(7).Next(), c.Next());
}

TEST(StringsTest, SplitMix64BelowIsInRange) {
  SplitMix64 rng(3);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Below(17), 17u);
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(MemoryTrackerTest, TracksCurrentAndPeak) {
  MemoryTracker tracker;
  tracker.Add(100);
  tracker.Add(50);
  EXPECT_EQ(tracker.current_bytes(), 150u);
  EXPECT_EQ(tracker.peak_bytes(), 150u);
  tracker.Release(120);
  EXPECT_EQ(tracker.current_bytes(), 30u);
  EXPECT_EQ(tracker.peak_bytes(), 150u);
  tracker.Add(10);
  EXPECT_EQ(tracker.peak_bytes(), 150u);
  tracker.Release(1000);  // saturates at zero
  EXPECT_EQ(tracker.current_bytes(), 0u);
  tracker.Reset();
  EXPECT_EQ(tracker.peak_bytes(), 0u);
}

TEST(ItemTest, SelectWinsOverLaterDrops) {
  core::Item item(1);
  item.AddClaim();
  item.AddClaim();
  EXPECT_EQ(item.state(), core::Item::State::kPending);
  item.Select();
  EXPECT_EQ(item.state(), core::Item::State::kSelected);
  item.DropClaim();
  item.DropClaim();
  EXPECT_EQ(item.state(), core::Item::State::kSelected);
}

TEST(ItemTest, DiscardedWhenAllClaimsDropped) {
  core::Item item(1);
  item.AddClaim();
  item.AddClaim();
  item.DropClaim();
  EXPECT_EQ(item.state(), core::Item::State::kPending);
  item.DropClaim();
  EXPECT_EQ(item.state(), core::Item::State::kDiscarded);
  item.Select();  // too late: discard is terminal
  EXPECT_EQ(item.state(), core::Item::State::kDiscarded);
}

TEST(ItemTest, CompletenessFlag) {
  core::Item item(0);
  EXPECT_TRUE(item.complete());
  item.set_incomplete();
  EXPECT_FALSE(item.complete());
  item.set_complete();
  EXPECT_TRUE(item.complete());
}

TEST(AggregatorTest, Count) {
  core::Aggregator agg(xpath::OutputKind::kCount);
  EXPECT_TRUE(agg.Update("anything"));
  EXPECT_TRUE(agg.Update(""));
  EXPECT_DOUBLE_EQ(*agg.Final(), 2.0);
}

TEST(AggregatorTest, SumSkipsNonNumeric) {
  core::Aggregator agg(xpath::OutputKind::kSum);
  EXPECT_TRUE(agg.Update("1.5"));
  EXPECT_FALSE(agg.Update("oops"));
  EXPECT_TRUE(agg.Update(" 2 "));
  EXPECT_DOUBLE_EQ(*agg.Final(), 3.5);
}

TEST(AggregatorTest, SumOfNothingIsZero) {
  core::Aggregator agg(xpath::OutputKind::kSum);
  EXPECT_DOUBLE_EQ(*agg.Final(), 0.0);
  core::Aggregator count(xpath::OutputKind::kCount);
  EXPECT_DOUBLE_EQ(*count.Final(), 0.0);
}

// Regression: a zero-padded numeral longer than ParseNumber's old
// 63-char cap was treated as non-numeric and silently dropped from the
// sum.
TEST(AggregatorTest, SumAcceptsLongNumerals) {
  core::Aggregator agg(xpath::OutputKind::kSum);
  std::string padded = "000000000000000000000000000000000000"
                       "000000000000000000000000000000000042";  // 72 chars
  EXPECT_TRUE(agg.Update(padded));
  EXPECT_TRUE(agg.Update("8"));
  EXPECT_DOUBLE_EQ(*agg.Final(), 50.0);
}

TEST(AggregatorTest, AvgMinMax) {
  core::Aggregator avg(xpath::OutputKind::kAvg);
  EXPECT_FALSE(avg.Current().has_value());
  avg.Update("2");
  avg.Update("4");
  EXPECT_DOUBLE_EQ(*avg.Current(), 3.0);
  core::Aggregator mn(xpath::OutputKind::kMin);
  core::Aggregator mx(xpath::OutputKind::kMax);
  for (const char* v : {"5", "-2", "9"}) {
    mn.Update(v);
    mx.Update(v);
  }
  EXPECT_DOUBLE_EQ(*mn.Final(), -2.0);
  EXPECT_DOUBLE_EQ(*mx.Final(), 9.0);
  core::Aggregator empty_min(xpath::OutputKind::kMin);
  EXPECT_FALSE(empty_min.Final().has_value());
}

}  // namespace
}  // namespace xsq
