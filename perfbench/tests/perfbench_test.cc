// Tests of the benchmark harness itself: the percentile/sample-count
// rule, self time from nested spans, and seed determinism of inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "inputs.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

uint64_t DigestDocs(const std::vector<Document>& docs, uint64_t h) {
  for (const Document& d : docs) h = Fnv1a(d.xml, Fnv1a(d.name, h));
  return h;
}

uint64_t DigestStrings(const std::vector<std::string>& v, uint64_t h) {
  for (const std::string& s : v) h = Fnv1a(s + "\n", h);
  return h;
}

uint64_t DigestU32(uint32_t x, uint64_t h) {
  return Fnv1a(std::to_string(x) + ",", h);
}

// Digest of every input a workload's run receives for `seed`:
// corpora, queries and request orders.
uint64_t InputsDigest(std::string_view workload, uint64_t seed) {
  uint64_t h = Fnv1a(workload);
  if (workload == "stream") {
    StreamInputs in = MakeStreamInputs(seed);
    h = DigestStrings(in.queries, DigestDocs(in.docs, h));
    for (uint32_t i : in.order) h = DigestU32(i, h);
  } else {
    ClusterInputs in = MakeClusterInputs(seed);
    h = DigestStrings(in.queries, DigestDocs(in.docs, h));
    for (int c = 0; c < 4; ++c) {
      ReadStream reads(in, seed, c);
      for (int i = 0; i < 1000; ++i) {
        Pair p = reads.Next();
        h = DigestU32(p.doc, DigestU32(p.query, h));
      }
    }
  }
  return h;
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);  // 1..n
  return v;
}

TEST(PercentileTest, NeedsTenSamplesBeyond) {
  EXPECT_FALSE(Percentile(Ramp(999), 0.99).has_value());
  ASSERT_TRUE(Percentile(Ramp(1000), 0.99).has_value());
  // Nearest rank 990 of 1..1000; exactly ten samples lie above it.
  EXPECT_EQ(*Percentile(Ramp(1000), 0.99), 990.0);
  EXPECT_FALSE(Percentile(Ramp(19), 0.50).has_value());
  EXPECT_EQ(*Percentile(Ramp(20), 0.50), 10.0);
  EXPECT_FALSE(Percentile({}, 0.5).has_value());
}

TEST(PercentileTest, OrderDoesNotMatter) {
  std::vector<double> v = Ramp(2000);
  std::vector<double> reversed(v.rbegin(), v.rend());
  EXPECT_EQ(Percentile(v, 0.99), Percentile(reversed, 0.99));
  EXPECT_EQ(Percentile(v, 0.5), Percentile(reversed, 0.5));
}

TEST(PercentileTest, MedianAveragesTheMiddlePair) {
  EXPECT_DOUBLE_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(Median({}), 0.0);
}

TEST(PercentileTest, BlockPercentilesIgnoreOneBurst) {
  // Five blocks of 1000 operations; one block is a burst of slow ones.
  std::vector<Timed> samples;
  for (int i = 0; i < 5000; ++i) {
    const bool burst = i >= 2000 && i < 3000;
    samples.push_back({i * 0.001, burst ? 50.0 : 1.0 + (i % 1000) / 1000.0});
  }
  Summary s = SummarizeBlocks(samples);
  EXPECT_EQ(s.count, 5000u);
  ASSERT_TRUE(s.p50.has_value() && s.p90.has_value() && s.p99.has_value());
  // Each calm block's 500th, 900th and 990th value.
  EXPECT_DOUBLE_EQ(*s.p50, 1.499);
  EXPECT_DOUBLE_EQ(*s.p90, 1.899);
  EXPECT_DOUBLE_EQ(*s.p99, 1.989);
  // Below one block there is nothing to report.
  samples.resize(999);
  Summary short_run = SummarizeBlocks(samples);
  EXPECT_FALSE(short_run.p50.has_value());
  EXPECT_FALSE(short_run.p99.has_value());
}

TEST(PercentileTest, SliceRateIsAMedianOfSlicesAtReferenceSpeed) {
  // 100 ops/s in five 2-second slices, except 10 ops/s in one of them;
  // the host ran at half speed (scale 0.5) through the last two.
  std::vector<Slice> slices;
  for (int k = 0; k < 5; ++k) slices.push_back({2.0 * k, 2.0 * k + 2.0, 1.0});
  std::vector<Timed> ops;
  for (double t = 0.005; t < 10.0; t += 0.01) {
    if (t >= 4.0 && t < 6.0 && static_cast<int>(t * 100) % 10 != 0) continue;
    ops.push_back({t, 1.0});
  }
  EXPECT_NEAR(SliceRate(ops, slices), 100.0, 1.0);
  std::vector<Timed> slowed;
  for (const Timed& t : ops) {
    if (t.at_s < 6.0 || static_cast<int>(t.at_s * 100) % 2 == 0) slowed.push_back(t);
  }
  slices[3].scale = slices[4].scale = 0.5;
  EXPECT_NEAR(SliceRate(slowed, slices), 100.0, 1.0);
  // Samples outside every slice (a probe between slices) are dropped.
  slices = {{0.0, 1.0, 1.0}, {1.5, 2.5, 1.0}};
  EXPECT_NEAR(SliceRate({{0.5, 1.0}, {1.2, 1.0}, {2.0, 1.0}}, slices), 1.0, 1e-9);
}

TEST(PercentileTest, AtReferenceSpeedScalesBySlice) {
  const std::vector<Slice> slices = {{0.0, 1.0, 1.0}, {1.0, 2.0, 0.5}};
  const std::vector<Timed> scaled =
      AtReferenceSpeed({{0.5, 4.0}, {1.5, 4.0}, {3.0, 4.0}}, slices);
  ASSERT_EQ(scaled.size(), 2u);
  EXPECT_DOUBLE_EQ(scaled[0].value, 4.0);
  EXPECT_DOUBLE_EQ(scaled[1].value, 2.0);  // 4 ms at half speed
}

TEST(SelfTimeTest, ChildrenAreSubtracted) {
  SpanRecorder r;
  uint64_t root = r.Add("root", 0, 1, 0, 100);
  uint64_t a = r.Add("a", root, 1, 10, 30);
  r.Add("b", root, 1, 40, 70);
  r.Add("a.child", a, 1, 12, 18);
  std::vector<int64_t> self = SelfTimes(r.spans());
  EXPECT_EQ(self[0], 100 - 20 - 30);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 6);
  auto by_name = r.SelfTimeByName();
  int64_t total = 0;
  for (auto& [name, ns] : by_name) total += ns;
  EXPECT_EQ(total, 100);  // self times partition the root's interval
}

TEST(SelfTimeTest, OverlapAndOverhangCountOnce) {
  SpanRecorder r;
  uint64_t root = r.Add("root", 0, 7, 0, 100);
  r.Add("x", root, 7, 10, 50);
  r.Add("y", root, 7, 30, 60);    // overlaps x
  r.Add("z", root, 7, 90, 130);   // runs past the parent
  std::vector<int64_t> self = SelfTimes(r.spans());
  EXPECT_EQ(self[0], 100 - 50 - 10);
}

TEST(SelfTimeTest, OpenCloseAndIdRanges) {
  SpanRecorder a(1);
  uint64_t op = a.Open("op", 0, 3, 100);
  a.Add("leaf", op, 3, 110, 150);
  a.Close(op, 200);
  SpanRecorder b(2);
  EXPECT_NE(b.Add("op", 0, 4, 0, 10), op);  // distinct id ranges
  auto self = a.SelfTimeByName();
  EXPECT_EQ(self["op"], 60);
  EXPECT_EQ(self["leaf"], 40);
  EXPECT_EQ(a.DurationByName()["op"], 100);
}

TEST(SeedTest, SameSeedSameInputs) {
  for (const char* w : {"stream", "cluster_read"}) {
    EXPECT_EQ(InputsDigest(w, 7), InputsDigest(w, 7)) << w;
    EXPECT_NE(InputsDigest(w, 7), InputsDigest(w, 8)) << w;
  }
}

TEST(SeedTest, ClosedLoopStreamsDifferPerConnection) {
  ClusterInputs in = MakeClusterInputs(5);
  ReadStream c0(in, 5, 0), c0_again(in, 5, 0), c1(in, 5, 1);
  int same = 0;
  for (int i = 0; i < 200; ++i) {
    Pair p = c0.Next();
    Pair q = c0_again.Next();
    Pair r = c1.Next();
    EXPECT_EQ(p.doc, q.doc);
    EXPECT_EQ(p.query, q.query);
    same += p.doc == r.doc && p.query == r.query;
  }
  EXPECT_LT(same, 100);
}

TEST(SeedTest, ClusterSizesComeFromFixedStrata) {
  // Popularity rank r always draws its size from stratum (20 + 17r) mod
  // 40 of the log-uniform range; the seed only moves it inside the
  // stratum, give or take the generators' last-record granularity.
  for (uint64_t seed : {1, 2, 3}) {
    ClusterInputs in = MakeClusterInputs(seed);
    for (int rank = 0; rank < kClusterDocs; ++rank) {
      const int stratum = (kClusterDocs / 2 + 17 * rank) % kClusterDocs;
      const double range = static_cast<double>(kClusterMaxBytes) / kClusterMinBytes;
      const double lo = kClusterMinBytes * std::pow(range, stratum / 40.0);
      const double hi = kClusterMinBytes * std::pow(range, (stratum + 1) / 40.0);
      const double size = static_cast<double>(in.docs[rank].xml.size());
      EXPECT_GE(size, lo - (2 << 10)) << rank;
      EXPECT_LE(size, hi + (2 << 10)) << rank;
    }
  }
}

}  // namespace
}  // namespace perfbench
