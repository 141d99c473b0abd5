// Tests for the obs metrics library: histogram bucket math, quantiles,
// snapshot merging, the exposition format, and — run under
// -DXSQ_SANITIZE=thread — the lock-free concurrency contract of
// Record()/snapshot()/GetOrCreateHistogram().
#include <atomic>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "obs/exposition.h"
#include "obs/histogram.h"
#include "obs/registry.h"
#include "obs/timer.h"

namespace xsq::obs {
namespace {

TEST(HistogramBucketTest, BucketIndexBoundaries) {
  EXPECT_EQ(Histogram::BucketIndex(0), 0u);
  EXPECT_EQ(Histogram::BucketIndex(1), 1u);
  EXPECT_EQ(Histogram::BucketIndex(2), 2u);
  EXPECT_EQ(Histogram::BucketIndex(3), 2u);
  EXPECT_EQ(Histogram::BucketIndex(4), 3u);
  EXPECT_EQ(Histogram::BucketIndex(1023), 10u);
  EXPECT_EQ(Histogram::BucketIndex(1024), 11u);
  EXPECT_EQ(Histogram::BucketIndex(~uint64_t{0}), 64u);
}

TEST(HistogramBucketTest, BoundsRoundTripWithIndex) {
  for (size_t b = 0; b < Histogram::kBucketCount; ++b) {
    uint64_t lo = Histogram::BucketLowerBound(b);
    uint64_t hi = Histogram::BucketUpperBound(b);
    EXPECT_LE(lo, hi) << "bucket " << b;
    EXPECT_EQ(Histogram::BucketIndex(lo), b) << "bucket " << b;
    EXPECT_EQ(Histogram::BucketIndex(hi), b) << "bucket " << b;
  }
}

TEST(HistogramTest, CountSumMax) {
  Histogram h;
  h.Record(0);
  h.Record(7);
  h.Record(100);
  Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 3u);
  EXPECT_EQ(snap.sum, 107u);
  EXPECT_EQ(snap.max, 100u);
  EXPECT_EQ(snap.buckets[Histogram::BucketIndex(0)], 1u);
  EXPECT_EQ(snap.buckets[Histogram::BucketIndex(7)], 1u);
  EXPECT_EQ(snap.buckets[Histogram::BucketIndex(100)], 1u);
}

TEST(HistogramTest, EmptySnapshotQuantilesAreZero) {
  Histogram h;
  Histogram::Snapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, 0u);
  EXPECT_EQ(snap.Quantile(0.5), 0.0);
  EXPECT_EQ(snap.p99(), 0.0);
  EXPECT_EQ(snap.Mean(), 0.0);
}

TEST(HistogramTest, QuantilesOfUniformRecording) {
  Histogram h;
  for (uint64_t v = 1; v <= 1000; ++v) h.Record(v);
  Histogram::Snapshot snap = h.snapshot();
  // Log buckets: the quantile is exact only up to the bucket bounds.
  // p50 of 1..1000 is ~500, which lives in bucket [256, 511].
  double p50 = snap.p50();
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 512.0);
  double p99 = snap.p99();
  EXPECT_GE(p99, 512.0);
  EXPECT_LE(p99, 1000.0);
  // Quantiles never exceed the observed max.
  EXPECT_LE(snap.Quantile(1.0), 1000.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 500.5);
}

TEST(HistogramTest, QuantileIsMonotoneInQ) {
  Histogram h;
  for (uint64_t v = 0; v < 4096; v += 3) h.Record(v);
  Histogram::Snapshot snap = h.snapshot();
  double previous = 0.0;
  for (double q = 0.0; q <= 1.0; q += 0.05) {
    double value = snap.Quantile(q);
    EXPECT_GE(value, previous) << "q=" << q;
    previous = value;
  }
}

TEST(HistogramTest, MergeAddsCounts) {
  Histogram a;
  Histogram b;
  a.Record(5);
  a.Record(9);
  b.Record(1000);
  Histogram::Snapshot merged = a.snapshot();
  merged.Merge(b.snapshot());
  EXPECT_EQ(merged.count, 3u);
  EXPECT_EQ(merged.sum, 1014u);
  EXPECT_EQ(merged.max, 1000u);
  EXPECT_EQ(merged.buckets[Histogram::BucketIndex(1000)], 1u);
}

// The lock-free contract: concurrent recorders plus a snapshot reader,
// TSan-clean, and no update lost once the recorders join.
TEST(HistogramTest, ConcurrentRecordAndSnapshot) {
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 20000;
  Histogram h;
  std::atomic<bool> stop{false};

  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      Histogram::Snapshot snap = h.snapshot();
      // Any snapshot taken mid-flight must still be internally sane.
      uint64_t bucket_total = 0;
      for (uint64_t c : snap.buckets) bucket_total += c;
      EXPECT_LE(snap.max, kPerThread);
      EXPECT_LE(bucket_total, kThreads * kPerThread);
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h] {
      for (uint64_t v = 1; v <= kPerThread; ++v) h.Record(v);
    });
  }
  for (std::thread& w : writers) w.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  Histogram::Snapshot final_snap = h.snapshot();
  EXPECT_EQ(final_snap.count, kThreads * kPerThread);
  EXPECT_EQ(final_snap.max, kPerThread);
  uint64_t expected_sum = kThreads * (kPerThread * (kPerThread + 1) / 2);
  EXPECT_EQ(final_snap.sum, expected_sum);
}

TEST(RegistryTest, GetOrCreateIsIdempotentAndStable) {
  Registry registry;
  Histogram* first = registry.GetOrCreateHistogram("m", "help one");
  Histogram* again = registry.GetOrCreateHistogram("m", "help two");
  EXPECT_EQ(first, again);
  first->Record(3);
  EXPECT_EQ(registry.FindHistogram("m")->count(), 1u);
  EXPECT_EQ(registry.FindHistogram("absent"), nullptr);
}

TEST(RegistryTest, RenderTextExposition) {
  Registry registry;
  Histogram* h = registry.GetOrCreateHistogram("xsq_test_us", "test metric");
  h->Record(3);
  h->Record(5);
  std::string text = registry.Snapshot().Render();
  EXPECT_NE(text.find("# HELP xsq_test_us test metric"), std::string::npos);
  EXPECT_NE(text.find("# TYPE xsq_test_us histogram"), std::string::npos);
  // 3 and 5 both land in bucket [2,3] and [4,7]: cumulative counts.
  EXPECT_NE(text.find("xsq_test_us_bucket{le=\"3\"} 1"), std::string::npos);
  EXPECT_NE(text.find("xsq_test_us_bucket{le=\"7\"} 2"), std::string::npos);
  EXPECT_NE(text.find("xsq_test_us_bucket{le=\"+Inf\"} 2"), std::string::npos);
  EXPECT_NE(text.find("xsq_test_us_sum 8"), std::string::npos);
  EXPECT_NE(text.find("xsq_test_us_count 2"), std::string::npos);
  EXPECT_NE(text.find("xsq_test_us_p50 "), std::string::npos);
  EXPECT_NE(text.find("xsq_test_us_max 5"), std::string::npos);
}

TEST(RegistryTest, LabeledSeriesRenderUnderOneFamily) {
  // Two series of one metric family, distinguished only by labels
  // (the engine-kind split the service uses): one # HELP/# TYPE
  // header, each sample line carrying its label set merged with `le`.
  Registry registry;
  Histogram* nc = registry.GetOrCreateHistogram("xsq_req_us", "request time",
                                                "engine=\"nc\"");
  Histogram* f =
      registry.GetOrCreateHistogram("xsq_req_us", "request time",
                                    "engine=\"f\"");
  EXPECT_NE(nc, f);  // distinct series...
  EXPECT_EQ(nc, registry.GetOrCreateHistogram("xsq_req_us", "",
                                              "engine=\"nc\""));  // ...stable
  EXPECT_EQ(registry.FindHistogram("xsq_req_us", "engine=\"f\""), f);

  nc->Record(3);
  f->Record(100);
  std::string text = registry.Snapshot().Render();
  // One family header, not one per series.
  size_t first_type = text.find("# TYPE xsq_req_us histogram");
  ASSERT_NE(first_type, std::string::npos);
  EXPECT_EQ(text.find("# TYPE xsq_req_us histogram", first_type + 1),
            std::string::npos);
  EXPECT_NE(text.find("xsq_req_us_bucket{engine=\"nc\",le=\"3\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("xsq_req_us_bucket{engine=\"f\",le=\"127\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("xsq_req_us_count{engine=\"nc\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("xsq_req_us_sum{engine=\"f\"} 100"),
            std::string::npos);
}

TEST(ExpositionTest, AddScalarFormat) {
  Exposition doc;
  doc.AddScalar("xsq_things_total", ScalarKind::kCounter, 42);
  doc.AddScalar("xsq_things_live", ScalarKind::kGauge, 7);
  EXPECT_EQ(doc.Render(),
            "# TYPE xsq_things_total counter\n"
            "xsq_things_total 42\n"
            "# TYPE xsq_things_live gauge\n"
            "xsq_things_live 7\n");
}

// Concurrent registration of overlapping names plus rendering must be
// race-free and converge on one histogram per name.
TEST(RegistryTest, ConcurrentGetOrCreateAndRender) {
  constexpr int kThreads = 4;
  Registry registry;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t] {
      for (int i = 0; i < 200; ++i) {
        Histogram* h = registry.GetOrCreateHistogram(
            "shared_" + std::to_string(i % 8));
        h->Record(static_cast<uint64_t>(t + 1));
        if (i % 50 == 0) registry.Snapshot().Render();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  uint64_t total = 0;
  for (int i = 0; i < 8; ++i) {
    const Histogram* h =
        registry.FindHistogram("shared_" + std::to_string(i));
    ASSERT_NE(h, nullptr);
    total += h->count();
  }
  EXPECT_EQ(total, kThreads * 200u);
}

// --- Exposition: the parser is the renderer's exact inverse ---------

TEST(ExpositionTest, RenderParseRenderIsByteIdenticalForHistograms) {
  Registry registry;
  Histogram* parse = registry.GetOrCreateHistogram(
      "xsq_parse_us", "Time spent parsing, microseconds.");
  Histogram* replay = registry.GetOrCreateHistogram(
      "xsq_replay_us", "Tape replay latency.", "engine=\"nc\"");
  for (uint64_t v : {0u, 1u, 3u, 17u, 1024u, 90000u}) parse->Record(v);
  replay->Record(7);
  replay->Record(4096);

  std::string text = registry.Snapshot().Render();
  Result<Exposition> parsed = Exposition::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Render(), text);

  // And the parse is structural, not just textual: counts survive.
  const ExpositionSeries* series =
      parsed->Find("xsq_replay_us", "engine=\"nc\"");
  ASSERT_NE(series, nullptr);
  EXPECT_TRUE(series->is_histogram);
  EXPECT_EQ(series->hist.count, 2u);
  EXPECT_EQ(series->hist.sum, 7u + 4096u);
  EXPECT_EQ(series->hist.max, 4096u);
}

TEST(ExpositionTest, RenderParseRenderIsByteIdenticalForScalars) {
  Exposition doc;
  doc.AddScalar("xsq_sessions_opened", ScalarKind::kCounter, 42);
  doc.AddScalar("xsq_doc_cache_documents", ScalarKind::kGauge, 3);
  doc.AddScalar("xsq_connections_shed", ScalarKind::kCounter, 0);
  std::string text = doc.Render();

  Result<Exposition> parsed = Exposition::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Render(), text);

  const ExpositionSeries* series = parsed->Find("xsq_sessions_opened");
  ASSERT_NE(series, nullptr);
  EXPECT_FALSE(series->is_histogram);
  EXPECT_EQ(series->type, "counter");
  EXPECT_EQ(series->value, 42u);
}

TEST(ExpositionTest, MixedScalarAndHistogramDocumentRoundTrips) {
  // The shape METRICS actually serves: the registry's histograms, then
  // the scalar counters.
  Registry registry;
  registry.GetOrCreateHistogram("xsq_request_us", "Request latency.")
      ->Record(123);
  Exposition doc = registry.Snapshot();
  doc.AddScalar("xsq_items_emitted", ScalarKind::kCounter, 9);
  std::string text = doc.Render();

  Result<Exposition> parsed = Exposition::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Render(), text);
}

TEST(ExpositionTest, MergeFromSumsScalarsAndFoldsHistogramsBucketWise) {
  Registry shard_a;
  Registry shard_b;
  Histogram* ha = shard_a.GetOrCreateHistogram("xsq_request_us", "Latency.");
  Histogram* hb = shard_b.GetOrCreateHistogram("xsq_request_us", "Latency.");
  ha->Record(10);
  ha->Record(200);
  hb->Record(5000);

  Exposition doc_a = shard_a.Snapshot();
  doc_a.AddScalar("xsq_sessions_opened", ScalarKind::kCounter, 2);
  std::string text_a = doc_a.Render();
  Exposition doc_b = shard_b.Snapshot();
  doc_b.AddScalar("xsq_sessions_opened", ScalarKind::kCounter, 5);
  doc_b.AddScalar("xsq_publishes", ScalarKind::kCounter, 1);
  std::string text_b = doc_b.Render();

  Result<Exposition> merged = Exposition::Parse(text_a);
  ASSERT_TRUE(merged.ok());
  Result<Exposition> other = Exposition::Parse(text_b);
  ASSERT_TRUE(other.ok());
  merged->MergeFrom(*other);

  EXPECT_EQ(merged->Find("xsq_sessions_opened")->value, 7u);
  // A series only the second shard had is appended, not dropped.
  ASSERT_NE(merged->Find("xsq_publishes"), nullptr);
  EXPECT_EQ(merged->Find("xsq_publishes")->value, 1u);

  const ExpositionSeries* hist = merged->Find("xsq_request_us");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->hist.count, 3u);
  EXPECT_EQ(hist->hist.sum, 10u + 200u + 5000u);
  EXPECT_EQ(hist->hist.max, 5000u);  // max takes the max, not the sum
  // Bucket-wise fold: each recorded value still lands in its bucket.
  EXPECT_EQ(hist->hist.buckets[Histogram::BucketIndex(10)], 1u);
  EXPECT_EQ(hist->hist.buckets[Histogram::BucketIndex(200)], 1u);
  EXPECT_EQ(hist->hist.buckets[Histogram::BucketIndex(5000)], 1u);

  // The merged document still renders in the renderer's format.
  Result<Exposition> reparsed = Exposition::Parse(merged->Render());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(reparsed->Render(), merged->Render());

  // A caller's rule folds the scalars it names by max instead.
  merged->MergeFrom(*other, [](std::string_view name) {
    return name == "xsq_sessions_opened" ? ScalarMerge::kMax
                                         : ScalarMerge::kSum;
  });
  EXPECT_EQ(merged->Find("xsq_sessions_opened")->value, 7u);
  EXPECT_EQ(merged->Find("xsq_publishes")->value, 2u);
}

TEST(ExpositionTest, MalformedDataLineIsAParseError) {
  EXPECT_FALSE(Exposition::Parse("xsq_broken").ok());
  EXPECT_FALSE(Exposition::Parse("xsq_count not-a-number").ok());
  // Unknown comment lines are skipped, not errors.
  Result<Exposition> ok = Exposition::Parse("# EXEMPLAR whatever 1\n");
  EXPECT_TRUE(ok.ok());
}

TEST(ScopedTimerTest, RecordsOnDestruction) {
  Histogram h;
  {
    ScopedTimer timer(&h);
    EXPECT_EQ(h.count(), 0u);
  }
  EXPECT_EQ(h.count(), 1u);
}

TEST(ScopedTimerTest, NullHistogramAndCancelRecordNothing) {
  { ScopedTimer timer(nullptr); }  // must not crash
  Histogram h;
  {
    ScopedTimer timer(&h);
    timer.Cancel();
  }
  EXPECT_EQ(h.count(), 0u);
}

TEST(ScopedTimerTest, ElapsedIsMonotone) {
  ScopedTimer timer(nullptr);
  uint64_t first = timer.ElapsedNanos();
  uint64_t second = timer.ElapsedNanos();
  EXPECT_GE(second, first);
}

}  // namespace
}  // namespace xsq::obs
