#include <gtest/gtest.h>

#include <string>

#include "bench_util/runner.h"
#include "bench_util/table.h"
#include "bench_util/timing.h"
#include "datagen/generators.h"

namespace xsq::bench {
namespace {

TEST(RunnerTest, PureParserMeasuresThroughput) {
  std::string xml = datagen::GenerateDblp(100000, 1);
  Result<RunMeasurement> m = RunSystem(System::kPureParser, "", xml);
  ASSERT_TRUE(m.ok());
  EXPECT_TRUE(m->supported);
  EXPECT_EQ(m->input_bytes, xml.size());
  EXPECT_GT(m->throughput_mb_per_s(), 0.0);
  EXPECT_EQ(m->item_count, 0u);
}

TEST(RunnerTest, AllSystemsRunASupportedQuery) {
  std::string xml = datagen::GenerateDblp(100000, 1);
  const char* query = "/dblp/article/title/text()";
  Result<RunMeasurement> pure = RunSystem(System::kPureParser, "", xml);
  ASSERT_TRUE(pure.ok());
  size_t expected_items = 0;
  for (System system : {System::kXsqF, System::kXsqNc, System::kLazyDfa,
                        System::kDom, System::kNaive}) {
    Result<RunMeasurement> m = RunSystem(system, query, xml);
    ASSERT_TRUE(m.ok()) << SystemName(system);
    ASSERT_TRUE(m->supported) << SystemName(system);
    EXPECT_GT(m->item_count, 0u) << SystemName(system);
    if (expected_items == 0) {
      expected_items = m->item_count;
    } else {
      EXPECT_EQ(m->item_count, expected_items) << SystemName(system);
    }
    EXPECT_GE(RelativeThroughput(*m, *pure), 0.0);
  }
}

TEST(RunnerTest, UnsupportedCombinationsAreReportedNotErrors) {
  std::string xml = "<r><a><b/></a></r>";
  // Predicates: unsupported by the lazy DFA.
  Result<RunMeasurement> m = RunSystem(System::kLazyDfa, "/r/a[b]", xml);
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->supported);
  EXPECT_FALSE(m->unsupported_reason.empty());
  // Closures: unsupported by XSQ-NC.
  m = RunSystem(System::kXsqNc, "//a", xml);
  ASSERT_TRUE(m.ok());
  EXPECT_FALSE(m->supported);
}

TEST(RunnerTest, DomReportsPreprocessingPhaseAndLinearMemory) {
  std::string small = datagen::GenerateDblp(50000, 1);
  std::string large = datagen::GenerateDblp(250000, 1);
  const char* query = "/dblp/article/title/text()";
  Result<RunMeasurement> ms = RunSystem(System::kDom, query, small);
  Result<RunMeasurement> ml = RunSystem(System::kDom, query, large);
  ASSERT_TRUE(ms.ok() && ml.ok());
  EXPECT_GT(ms->peak_memory_bytes, small.size() / 2);
  EXPECT_GT(ml->peak_memory_bytes, 3 * ms->peak_memory_bytes);
}

TEST(RunnerTest, StreamingMemoryStaysFlat) {
  std::string small = datagen::GenerateDblp(50000, 1);
  std::string large = datagen::GenerateDblp(250000, 1);
  const char* query = "/dblp/inproceedings[author]/title/text()";
  Result<RunMeasurement> ms = RunSystem(System::kXsqF, query, small);
  Result<RunMeasurement> ml = RunSystem(System::kXsqF, query, large);
  ASSERT_TRUE(ms.ok() && ml.ok());
  // 5x the input must not cost anywhere near 5x the buffer.
  EXPECT_LT(ml->peak_memory_bytes, 2 * ms->peak_memory_bytes + 4096);
}

TEST(RunnerTest, SystemNamesAreStable) {
  EXPECT_STREQ(SystemName(System::kPureParser), "PureParser");
  EXPECT_STREQ(SystemName(System::kXsqF), "XSQ-F");
  EXPECT_STREQ(SystemName(System::kXsqNc), "XSQ-NC");
}

TEST(TableTest, RendersAlignedColumns) {
  TablePrinter table({"name", "value"});
  table.AddRow({"a", "1"});
  table.AddRow({"longer", "2.5"});
  std::string out = table.ToString();
  EXPECT_NE(out.find("name"), std::string::npos);
  EXPECT_NE(out.find("longer"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  // Four lines: header, separator, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TableTest, BarScalesWithFraction) {
  EXPECT_EQ(Bar(0.0, 10), "----------");
  EXPECT_EQ(Bar(1.0, 10), "##########");
  EXPECT_EQ(Bar(0.5, 10), "#####-----");
  EXPECT_EQ(Bar(2.0, 10), "##########");  // clamped
}

TEST(TableTest, Formatting) {
  EXPECT_EQ(FormatDouble(1.2345, 2), "1.23");
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(64 * 1024), "64.0KB");
  EXPECT_EQ(FormatBytes(20 * 1024 * 1024), "20.0MB");
}

TEST(TimingTest, PairedRoundsAlternateWhichLegRunsFirst) {
  std::string order;
  PairedTiming timing =
      TimePaired(4, [&order] { order += 'a'; }, [&order] { order += 'b'; });
  // Each turn is an untimed warm-up run, then the timed run.
  EXPECT_EQ(order, "aabbbbaaaabbbbaa");
  EXPECT_EQ(timing.a_seconds.size(), 4u);
  EXPECT_EQ(timing.b_seconds.size(), 4u);
}

TEST(TimingTest, MedianRatioIsTakenPerRound) {
  PairedTiming timing;
  timing.a_seconds = {1.0, 2.0, 4.0};
  timing.b_seconds = {3.0, 20.0, 8.0};  // per-round ratios 3, 10, 2
  EXPECT_DOUBLE_EQ(timing.MedianRatio(), 3.0);
}

}  // namespace
}  // namespace xsq::bench
