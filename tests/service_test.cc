// Tests for the concurrent query-service layer: plan cache LRU and
// hit accounting, session lifecycle and budgets, backpressure, and a
// multi-threaded stress test of the worker pool (run under
// -DXSQ_SANITIZE=thread by tools/check.sh).
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/streaming_query.h"
#include "obs/histogram.h"
#include "obs/registry.h"
#include "service/document_cache.h"
#include "service/plan_cache.h"
#include "service/query_service.h"
#include "service/session.h"
#include "service/stats.h"
#include "tape/recorder.h"
#include "test_util.h"

namespace xsq::service {
namespace {

using core::StreamingQuery;

// ---------------------------------------------------------------- PlanCache

TEST(PlanCacheTest, HitsSkipCompilation) {
  PlanCache cache(8);
  auto first = cache.GetOrCompile("//book/title/text()");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = cache.GetOrCompile("//book/title/text()");
  ASSERT_TRUE(second.ok());
  // Same immutable plan object — the second open did not recompile.
  EXPECT_EQ(first->get(), second->get());
  PlanCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.misses, 1u);  // misses == compilations
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.evictions, 0u);
}

TEST(PlanCacheTest, NormalizesSurroundingWhitespace) {
  PlanCache cache(8);
  ASSERT_TRUE(cache.GetOrCompile("  //a/text()").ok());
  ASSERT_TRUE(cache.GetOrCompile("//a/text()  \n").ok());
  EXPECT_EQ(cache.counters().misses, 1u);
  EXPECT_EQ(cache.counters().hits, 1u);
}

TEST(PlanCacheTest, EvictsLeastRecentlyUsed) {
  PlanCache cache(2);
  ASSERT_TRUE(cache.GetOrCompile("/a/text()").ok());   // {a}
  ASSERT_TRUE(cache.GetOrCompile("/b/text()").ok());   // {b,a}
  ASSERT_TRUE(cache.GetOrCompile("/a/text()").ok());   // hit; {a,b}
  ASSERT_TRUE(cache.GetOrCompile("/c/text()").ok());   // evicts b; {c,a}
  ASSERT_TRUE(cache.GetOrCompile("/b/text()").ok());   // miss again
  PlanCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.evictions, 2u);  // b then a
  EXPECT_EQ(counters.misses, 4u);
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(PlanCacheTest, CompileErrorsAreNotCached) {
  PlanCache cache(2);
  EXPECT_FALSE(cache.GetOrCompile("not a query").ok());
  EXPECT_FALSE(cache.GetOrCompile("not a query").ok());
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.counters().misses, 2u);
}

// A plan outlives its cache entry: sessions keep evicted plans alive.
TEST(PlanCacheTest, EvictedPlansStayUsable) {
  PlanCache cache(1);
  auto plan = cache.GetOrCompile("//book/title/text()");
  ASSERT_TRUE(plan.ok());
  ASSERT_TRUE(cache.GetOrCompile("/other/text()").ok());  // evicts
  auto query = StreamingQuery::Open(*plan);
  ASSERT_TRUE(query.ok());
  ASSERT_TRUE((*query)->Push("<l><book><title>T</title></book></l>").ok());
  ASSERT_TRUE((*query)->Close().ok());
  EXPECT_EQ((*query)->NextItem().value_or(""), "T");
}

// ---------------------------------------------------------------- Session

TEST(SessionTest, LifecycleAndReuseAcrossDocuments) {
  auto plan = core::CompilePlan("//item/text()");
  ASSERT_TRUE(plan.ok());
  auto session = Session::Create(*plan, /*memory_budget=*/0, nullptr);
  ASSERT_TRUE(session.ok()) << session.status().ToString();
  ASSERT_TRUE((*session)->Push("<r><item>one</item>").ok());
  ASSERT_TRUE((*session)->Push("<item>two</item></r>").ok());
  ASSERT_TRUE((*session)->Close().ok());
  EXPECT_EQ((*session)->TakeItems(),
            (std::vector<std::string>{"one", "two"}));

  ASSERT_TRUE((*session)->Reset().ok());
  ASSERT_TRUE((*session)->Push("<r><item>three</item></r>").ok());
  ASSERT_TRUE((*session)->Close().ok());
  EXPECT_EQ((*session)->TakeItems(), (std::vector<std::string>{"three"}));
  EXPECT_EQ((*session)->items_produced(), 3u);
}

TEST(SessionTest, MemoryBudgetFailsTheSession) {
  // [late] stays undecided while <t> content streams past, forcing the
  // engine to buffer the whole item; a tiny budget must trip.
  auto plan = core::CompilePlan("/r/a[late]/t/text()");
  ASSERT_TRUE(plan.ok());
  auto session = Session::Create(*plan, /*memory_budget=*/16, nullptr);
  ASSERT_TRUE(session.ok());
  Status status =
      (*session)->Push("<r><a><t>this text is far longer than the budget"
                       " allows to be buffered</t>");
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted)
      << status.ToString();
  // The failure is sticky until Reset.
  EXPECT_EQ((*session)->Push("<x/>").code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE((*session)->Reset().ok());
  ASSERT_TRUE((*session)->Push("<r><a><t>ok</t>").ok());
}

TEST(SessionTest, ParseErrorsAreSticky) {
  auto plan = core::CompilePlan("//a/text()");
  ASSERT_TRUE(plan.ok());
  auto session = Session::Create(*plan, 0, nullptr);
  ASSERT_TRUE(session.ok());
  EXPECT_FALSE((*session)->Push("<a><b></a>").ok());
  EXPECT_FALSE((*session)->Close().ok());
  ASSERT_TRUE((*session)->Reset().ok());
  ASSERT_TRUE((*session)->Push("<a>fine</a>").ok());
  ASSERT_TRUE((*session)->Close().ok());
  EXPECT_EQ((*session)->TakeItems(), (std::vector<std::string>{"fine"}));
}

// ------------------------------------------------------------ QueryService

ServiceConfig SmallConfig(int workers) {
  ServiceConfig config;
  config.num_workers = workers;
  config.max_sessions = 8;
  config.max_queued_chunks_per_session = 4;
  config.plan_cache_capacity = 4;
  return config;
}

TEST(QueryServiceTest, EndToEndMatchesStreamingQuery) {
  const std::string query_text = "//book[price<20]/title/text()";
  const std::string doc =
      "<catalog><book><title>A</title><price>10</price></book>"
      "<book><title>B</title><price>99</price></book>"
      "<book><title>C</title><price>5</price></book></catalog>";

  auto direct = StreamingQuery::Open(query_text);
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE((*direct)->Push(doc).ok());
  ASSERT_TRUE((*direct)->Close().ok());
  std::vector<std::string> expected;
  while (auto item = (*direct)->NextItem()) expected.push_back(*item);

  QueryService service(SmallConfig(2));
  auto id = service.OpenSession(query_text);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  // Push in small chunks to exercise queueing.
  for (size_t pos = 0; pos < doc.size(); pos += 16) {
    Status status;
    do {  // honor backpressure
      status = service.Push(*id, doc.substr(pos, 16));
    } while (status.code() == StatusCode::kResourceExhausted);
    ASSERT_TRUE(status.ok()) << status.ToString();
  }
  ASSERT_TRUE(service.Close(*id).ok());
  EXPECT_EQ(service.Drain(*id), expected);
  ASSERT_TRUE(service.Release(*id).ok());
  EXPECT_EQ(service.active_sessions(), 0u);
}

TEST(QueryServiceTest, AdmissionControlRejectsAboveMaxSessions) {
  ServiceConfig config = SmallConfig(1);
  config.max_sessions = 2;
  QueryService service(config);
  auto a = service.OpenSession("/a/text()");
  auto b = service.OpenSession("/b/text()");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  auto c = service.OpenSession("/c/text()");
  EXPECT_EQ(c.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(service.stats().sessions_rejected, 1u);
  // Releasing frees the slot.
  ASSERT_TRUE(service.Release(*a).ok());
  EXPECT_TRUE(service.OpenSession("/c/text()").ok());
}

TEST(QueryServiceTest, PushBackpressureWhenQueueFull) {
  ServiceConfig config = SmallConfig(1);
  config.max_queued_chunks_per_session = 2;
  QueryService service(config);
  // A session the single worker is guaranteed to be busy with: open a
  // second session and stuff it first with a large chunk.
  auto busy = service.OpenSession("//x/text()");
  ASSERT_TRUE(busy.ok());
  std::string big = "<r>";
  for (int i = 0; i < 20000; ++i) big += "<x>filler</x>";
  ASSERT_TRUE(service.Push(*busy, big).ok());

  auto id = service.OpenSession("//a/text()");
  ASSERT_TRUE(id.ok());
  // With the worker occupied, the 3rd queued chunk must be rejected.
  bool saw_backpressure = false;
  for (int i = 0; i < 8; ++i) {
    Status status = service.Push(*id, "<a>");
    if (!status.ok()) {
      EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
      saw_backpressure = true;
      break;
    }
  }
  EXPECT_TRUE(saw_backpressure);
  EXPECT_GE(service.stats().pushes_rejected, 1u);
}

TEST(QueryServiceTest, PlanCacheIsSharedAcrossSessions) {
  QueryService service(SmallConfig(2));
  for (int i = 0; i < 6; ++i) {
    auto id = service.OpenSession("//book/title/text()");
    ASSERT_TRUE(id.ok());
    ASSERT_TRUE(service.Push(*id, "<l><book><title>T</title></book></l>").ok());
    ASSERT_TRUE(service.Close(*id).ok());
    ASSERT_TRUE(service.Release(*id).ok());
  }
  StatsSnapshot snap = service.stats();
  EXPECT_EQ(snap.plan_cache_misses, 1u);  // compiled exactly once
  EXPECT_EQ(snap.plan_cache_hits, 5u);
  EXPECT_EQ(snap.items_emitted, 6u);
  EXPECT_EQ(snap.chunks_processed, 6u);
}

TEST(QueryServiceTest, SessionReuseAcrossDocuments) {
  QueryService service(SmallConfig(2));
  auto id = service.OpenSession("//item/text()");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.Push(*id, "<r><item>one</item></r>").ok());
  ASSERT_TRUE(service.Close(*id).ok());
  EXPECT_EQ(service.Drain(*id), (std::vector<std::string>{"one"}));
  ASSERT_TRUE(service.ResetSession(*id).ok());
  ASSERT_TRUE(service.Push(*id, "<r><item>two</item></r>").ok());
  ASSERT_TRUE(service.Close(*id).ok());
  EXPECT_EQ(service.Drain(*id), (std::vector<std::string>{"two"}));
}

TEST(QueryServiceTest, CloseSurfacesDocumentErrors) {
  QueryService service(SmallConfig(2));
  auto id = service.OpenSession("//a/text()");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.Push(*id, "<a><b></a>").ok());  // queued fine
  EXPECT_FALSE(service.Close(*id).ok());  // evaluation failed
}

TEST(QueryServiceTest, ShutdownDrainsInFlightWork) {
  QueryService service(SmallConfig(2));
  auto id = service.OpenSession("//item/text()");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.Push(*id, "<r><item>last</item></r>").ok());
  ASSERT_TRUE(service.Close(*id).ok());
  service.Shutdown();
  // Results survive shutdown; new work is refused.
  EXPECT_EQ(service.Drain(*id), (std::vector<std::string>{"last"}));
  EXPECT_FALSE(service.Push(*id, "<more/>").ok());
  EXPECT_FALSE(service.OpenSession("/x/text()").ok());
}

// ------------------------------------------------------------- stress test

// N client threads × M sessions each, interleaved chunks, results must
// come back per-session complete and in document order.
TEST(QueryServiceStressTest, ManyThreadsManySessionsKeepOrder) {
  ServiceConfig config;
  config.num_workers = 4;
  config.max_sessions = 64;
  config.max_queued_chunks_per_session = 8;
  config.plan_cache_capacity = 4;
  QueryService service(config);

  constexpr int kThreads = 4;
  constexpr int kSessionsPerThread = 4;
  constexpr int kItemsPerDoc = 50;
  std::atomic<int> failures{0};

  auto client = [&](int thread_index) {
    for (int s = 0; s < kSessionsPerThread; ++s) {
      // Two query shapes so the plan cache sees hits and misses.
      const char* query_text =
          (s % 2 == 0) ? "//entry/text()" : "/doc/entry/text()";
      auto id = service.OpenSession(query_text);
      if (!id.ok()) { ++failures; return; }
      std::vector<std::string> expected;
      std::string doc = "<doc>";
      for (int i = 0; i < kItemsPerDoc; ++i) {
        char value[32];
        std::snprintf(value, sizeof value, "t%ds%di%d", thread_index, s, i);
        expected.push_back(value);
        doc += "<entry>";
        doc += value;
        doc += "</entry>";
      }
      doc += "</doc>";
      // Deliberately ragged chunk sizes to shake out ordering bugs.
      size_t pos = 0;
      int chunk_index = 0;
      while (pos < doc.size()) {
        size_t len = 7 + static_cast<size_t>((thread_index * 13 +
                                              s * 5 + chunk_index) % 23);
        len = std::min(len, doc.size() - pos);
        Status status;
        do {
          status = service.Push(*id, doc.substr(pos, len));
        } while (status.code() == StatusCode::kResourceExhausted);
        if (!status.ok()) { ++failures; return; }
        pos += len;
        ++chunk_index;
      }
      if (!service.Close(*id).ok()) { ++failures; return; }
      if (service.Drain(*id) != expected) { ++failures; return; }
      if (!service.Release(*id).ok()) { ++failures; return; }
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(client, t);
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);

  StatsSnapshot snap = service.stats();
  EXPECT_EQ(snap.sessions_opened,
            static_cast<uint64_t>(kThreads * kSessionsPerThread));
  EXPECT_EQ(snap.items_emitted, static_cast<uint64_t>(
                                    kThreads * kSessionsPerThread *
                                    kItemsPerDoc));
  // Two distinct query texts; concurrent first-time opens may race the
  // (deliberately lock-free) compile step, so at most one extra compile
  // per racing thread — never one per session.
  EXPECT_GE(snap.plan_cache_misses, 2u);
  EXPECT_LE(snap.plan_cache_misses, static_cast<uint64_t>(2 * kThreads));
  EXPECT_EQ(snap.plan_cache_hits + snap.plan_cache_misses,
            static_cast<uint64_t>(kThreads * kSessionsPerThread));
  EXPECT_EQ(snap.sessions_active, 0u);
}

// The observability tentpole: under concurrent load every request-path
// histogram must populate, and the counts must reconcile with the work
// actually submitted.
TEST(QueryServiceStressTest, MetricsPopulateUnderConcurrentLoad) {
  ServiceConfig config;
  config.num_workers = 4;
  config.max_sessions = 32;
  QueryService service(config);

  constexpr int kThreads = 4;
  constexpr int kDocsPerThread = 5;
  std::atomic<int> failures{0};
  auto client = [&] {
    for (int d = 0; d < kDocsPerThread; ++d) {
      auto id = service.OpenSession("//e/text()");
      if (!id.ok()) { ++failures; return; }
      for (const char* chunk : {"<r><e>a</e>", "<e>b</e>", "</r>"}) {
        Status status;
        do {
          status = service.Push(*id, chunk);
        } while (status.code() == StatusCode::kResourceExhausted);
        if (!status.ok()) { ++failures; return; }
      }
      if (!service.Close(*id).ok()) { ++failures; return; }
      if (!service.Release(*id).ok()) { ++failures; return; }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(client);
  for (std::thread& thread : threads) thread.join();
  ASSERT_EQ(failures.load(), 0);

  constexpr uint64_t kDocs = kThreads * kDocsPerThread;
  const obs::Registry& registry = service.metrics_registry();
  const obs::Histogram* latency =
      registry.FindHistogram("xsq_request_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), kDocs);  // one sample per Close
  const obs::Histogram* queue_wait =
      registry.FindHistogram("xsq_queue_wait_us");
  ASSERT_NE(queue_wait, nullptr);
  // One wait per work item: 3 chunks + 1 close per document.
  EXPECT_EQ(queue_wait->count(), kDocs * 4);
  const obs::Histogram* chunk_latency =
      registry.FindHistogram("xsq_chunk_latency_us");
  ASSERT_NE(chunk_latency, nullptr);
  EXPECT_EQ(chunk_latency->count(), kDocs * 3);
#if XSQ_OBS_ENABLED
  // Phase histograms: one sample per document (flushed at Close).
  for (const char* name : {"xsq_phase_parse_us", "xsq_phase_automaton_us",
                           "xsq_phase_buffer_us"}) {
    const obs::Histogram* phase = registry.FindHistogram(name);
    ASSERT_NE(phase, nullptr) << name;
    EXPECT_EQ(phase->count(), kDocs) << name;
  }
#endif

  // The combined exposition carries both the histograms and the STATS
  // scalars, so one METRICS scrape reconciles them.
  std::string text = service.MetricsText();
  EXPECT_NE(text.find("xsq_request_latency_us_count"), std::string::npos);
  EXPECT_NE(text.find("xsq_queue_wait_us_count"), std::string::npos);
  EXPECT_NE(text.find("xsq_sessions_opened " + std::to_string(kDocs)),
            std::string::npos);
}

TEST(QueryServiceTest, LatencyHistogramsCarryEngineKindLabels) {
  // One document through the deterministic XSQ-NC engine (no closure
  // axis) and one through XSQ-F (closure): each lands in its labeled
  // series, and both land in the unlabeled total.
  QueryService service;
  auto nc = service.OpenSession("/r/a/text()");
  auto f = service.OpenSession("//a/text()");
  ASSERT_TRUE(nc.ok());
  ASSERT_TRUE(f.ok());
  for (SessionId id : {*nc, *f}) {
    ASSERT_TRUE(service.Push(id, "<r><a>x</a></r>").ok());
    ASSERT_TRUE(service.Close(id).ok());
    EXPECT_EQ(service.Drain(id).size(), 1u);
  }

  const obs::Registry& registry = service.metrics_registry();
  const obs::Histogram* nc_series =
      registry.FindHistogram("xsq_request_latency_us", "engine=\"nc\"");
  const obs::Histogram* f_series =
      registry.FindHistogram("xsq_request_latency_us", "engine=\"f\"");
  ASSERT_NE(nc_series, nullptr);
  ASSERT_NE(f_series, nullptr);
  EXPECT_EQ(nc_series->count(), 1u);
  EXPECT_EQ(f_series->count(), 1u);
  EXPECT_EQ(registry.FindHistogram("xsq_request_latency_us")->count(), 2u);
  // Chunk latency splits the same way (1 chunk per document here).
  EXPECT_EQ(
      registry.FindHistogram("xsq_chunk_latency_us", "engine=\"nc\"")->count(),
      1u);
  EXPECT_EQ(
      registry.FindHistogram("xsq_chunk_latency_us", "engine=\"f\"")->count(),
      1u);

  std::string text = service.MetricsText();
  EXPECT_NE(text.find("xsq_request_latency_us_count{engine=\"nc\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("xsq_request_latency_us_count{engine=\"f\"} 1"),
            std::string::npos);
  service.Shutdown();
}

TEST(QueryServiceTest, MetricsTextCarriesSlowQueryExemplars) {
  QueryService service;
  auto id = service.OpenSession("//a/text()");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.Push(*id, "<r><a>x</a></r>").ok());
  ASSERT_TRUE(service.Close(*id).ok());

  // The slowest query per latency bucket is kept as an exemplar and
  // rendered as comment lines a scraper ignores but a human can read.
  std::string text = service.MetricsText();
  size_t at = text.find("# exemplar xsq_request_latency_us bucket{le=\"");
  ASSERT_NE(at, std::string::npos) << text;
  EXPECT_NE(text.find("//a/text()", at), std::string::npos);
  // Net counters are part of the same exposition even with no listener.
  EXPECT_NE(text.find("xsq_connections_accepted 0"), std::string::npos);
  EXPECT_NE(text.find("xsq_connections_shed 0"), std::string::npos);
  EXPECT_NE(text.find("xsq_disconnect_cancels 0"), std::string::npos);
  service.Shutdown();
}

// RunCached must time replays into both the request-latency and
// tape-replay histograms.
TEST(QueryServiceTapeTest, RunCachedPopulatesReplayMetrics) {
  QueryService service(SmallConfig(2));
  ASSERT_TRUE(
      service.RecordDocument("doc", "<r><e>x</e><e>y</e></r>").ok());
  auto id = service.OpenSession("//e/text()");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.RunCached(*id, "doc").ok());
  ASSERT_TRUE(service.RunCached(*id, "doc").ok());
  const obs::Registry& registry = service.metrics_registry();
  const obs::Histogram* replay = registry.FindHistogram("xsq_tape_replay_us");
  ASSERT_NE(replay, nullptr);
  EXPECT_EQ(replay->count(), 2u);
  const obs::Histogram* latency =
      registry.FindHistogram("xsq_request_latency_us");
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count(), 2u);
}

// Concurrent plan-cache access from many threads on overlapping keys.
TEST(QueryServiceStressTest, PlanCacheConcurrentGetOrCompile) {
  PlanCache cache(4);
  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&cache, &failures, t] {
      for (int i = 0; i < 50; ++i) {
        std::string query_text =
            "//q" + std::to_string((t + i) % 6) + "/text()";
        if (!cache.GetOrCompile(query_text).ok()) ++failures;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_LE(cache.size(), 4u);
}

// ----------------------------------------------------------- DocumentCache

std::shared_ptr<const tape::Tape> MakeTape(const std::string& document) {
  Result<tape::Tape> tape = tape::RecordDocument(document);
  EXPECT_TRUE(tape.ok()) << tape.status().ToString();
  return std::make_shared<const tape::Tape>(*std::move(tape));
}

TEST(DocumentCacheTest, MissThenHit) {
  DocumentCache cache(4);
  EXPECT_EQ(cache.Get("d"), nullptr);
  auto tape = MakeTape("<a>x</a>");
  cache.Put("d", tape);
  EXPECT_EQ(cache.Get("d").get(), tape.get());
  DocumentCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.resident_documents, 1u);
  EXPECT_EQ(counters.resident_bytes, tape->memory_bytes());
}

TEST(DocumentCacheTest, CapacityEvictsLeastRecentlyUsed) {
  DocumentCache cache(2);
  cache.Put("a", MakeTape("<a/>"));
  cache.Put("b", MakeTape("<b/>"));
  EXPECT_NE(cache.Get("a"), nullptr);     // a most recent; {a,b}
  cache.Put("c", MakeTape("<c/>"));       // evicts b
  EXPECT_EQ(cache.Get("b"), nullptr);
  EXPECT_NE(cache.Get("a"), nullptr);
  EXPECT_NE(cache.Get("c"), nullptr);
  EXPECT_EQ(cache.counters().evictions, 1u);
}

TEST(DocumentCacheTest, ByteBudgetEvicts) {
  auto tape = MakeTape("<a>some text content</a>");
  size_t one = tape->memory_bytes();
  DocumentCache cache(100, /*byte_budget=*/2 * one + one / 2);
  cache.Put("a", tape);
  cache.Put("b", MakeTape("<a>some text content</a>"));
  cache.Put("c", MakeTape("<a>some text content</a>"));  // evicts "a"
  EXPECT_EQ(cache.Get("a"), nullptr);
  DocumentCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.resident_documents, 2u);
  EXPECT_LE(counters.resident_bytes, 2 * one + one / 2);
}

TEST(DocumentCacheTest, OversizedTapeStaysResidentAlone) {
  auto tape = MakeTape("<a>payload far above the byte budget</a>");
  DocumentCache cache(100, /*byte_budget=*/1);
  cache.Put("big", tape);
  EXPECT_NE(cache.Get("big"), nullptr);  // never thrashes to empty
  cache.Put("second", MakeTape("<b/>"));
  EXPECT_EQ(cache.size(), 1u);  // "big" evicted in favor of newest
  EXPECT_NE(cache.Get("second"), nullptr);
}

TEST(DocumentCacheTest, ReplacePutAndExplicitEvict) {
  DocumentCache cache(4);
  cache.Put("d", MakeTape("<a>one</a>"));
  auto replacement = MakeTape("<a>two two two</a>");
  cache.Put("d", replacement);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.counters().resident_bytes, replacement->memory_bytes());
  EXPECT_EQ(cache.counters().evictions, 0u);  // replacement, not pressure
  EXPECT_TRUE(cache.Evict("d"));
  EXPECT_FALSE(cache.Evict("d"));
  EXPECT_EQ(cache.counters().resident_bytes, 0u);
}

// Regression: capacity 0 used to be clamped to 1 while byte budget 0
// already meant unlimited — both zeros now mean unlimited.
TEST(DocumentCacheTest, ZeroCapacityMeansUnlimited) {
  DocumentCache cache(0);
  for (int i = 0; i < 50; ++i) {
    cache.Put("doc" + std::to_string(i), MakeTape("<a/>"));
  }
  EXPECT_EQ(cache.size(), 50u);
  EXPECT_EQ(cache.counters().evictions, 0u);
  EXPECT_NE(cache.Get("doc0"), nullptr);  // oldest still resident
}

TEST(DocumentCacheTest, ZeroByteBudgetMeansUnlimited) {
  DocumentCache cache(0, /*byte_budget=*/0);
  for (int i = 0; i < 20; ++i) {
    cache.Put("doc" + std::to_string(i),
              MakeTape("<a>plenty of text to have nonzero bytes</a>"));
  }
  EXPECT_EQ(cache.size(), 20u);
  EXPECT_EQ(cache.counters().evictions, 0u);
}

TEST(DocumentCacheTest, ExplicitEvictionsAreCountedSeparately) {
  DocumentCache cache(2);
  cache.Put("a", MakeTape("<a/>"));
  cache.Put("b", MakeTape("<b/>"));
  cache.Put("c", MakeTape("<c/>"));  // LRU-evicts "a"
  EXPECT_TRUE(cache.Evict("b"));
  EXPECT_FALSE(cache.Evict("missing"));
  DocumentCache::Counters counters = cache.counters();
  EXPECT_EQ(counters.evictions, 1u);           // budget pressure only
  EXPECT_EQ(counters.explicit_evictions, 1u);  // the Evict("b") call
  EXPECT_EQ(counters.resident_documents, 1u);
}

// -------------------------------------------------- cached-document serving

TEST(QueryServiceTapeTest, RunCachedMatchesStreaming) {
  const std::string document =
      "<r><item>one</item><skip>no</skip><item>two</item></r>";
  QueryService service(SmallConfig(2));

  auto recorded = service.RecordDocument("doc", document);
  ASSERT_TRUE(recorded.ok()) << recorded.status().ToString();
  EXPECT_GT((*recorded)->event_count(), 0u);

  auto streamed = service.OpenSession("//item/text()");
  ASSERT_TRUE(streamed.ok());
  ASSERT_TRUE(service.Push(*streamed, document).ok());
  ASSERT_TRUE(service.Close(*streamed).ok());
  std::vector<std::string> expected = service.Drain(*streamed);

  auto cached = service.OpenSession("//item/text()");
  ASSERT_TRUE(cached.ok());
  ASSERT_TRUE(service.RunCached(*cached, "doc").ok());
  EXPECT_EQ(service.Drain(*cached), expected);
  EXPECT_EQ(expected, (std::vector<std::string>{"one", "two"}));

  StatsSnapshot snap = service.stats();
  EXPECT_EQ(snap.doc_cache_hits, 1u);
  EXPECT_EQ(snap.doc_cache_documents, 1u);
  EXPECT_GT(snap.doc_cache_bytes, 0u);
  EXPECT_EQ(snap.tape_replays, 1u);
  EXPECT_GT(snap.tape_events_replayed, 0u);
}

TEST(QueryServiceTapeTest, RunCachedComposesBackToBack) {
  QueryService service(SmallConfig(2));
  ASSERT_TRUE(service.RecordDocument("a", "<r><v>1</v></r>").ok());
  ASSERT_TRUE(service.RecordDocument("b", "<r><v>2</v><v>3</v></r>").ok());
  auto id = service.OpenSession("//v/text()");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.RunCached(*id, "a").ok());
  ASSERT_TRUE(service.RunCached(*id, "b").ok());  // auto-rewinds
  ASSERT_TRUE(service.RunCached(*id, "a").ok());
  EXPECT_EQ(service.Drain(*id),
            (std::vector<std::string>{"1", "2", "3", "1"}));
}

TEST(QueryServiceTapeTest, RunCachedAggregates) {
  QueryService service(SmallConfig(2));
  ASSERT_TRUE(
      service.RecordDocument("nums", "<r><v>1</v><v>2</v><v>4</v></r>").ok());
  auto id = service.OpenSession("//v/sum()");
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(service.RunCached(*id, "nums").ok());
  std::optional<double> sum = service.FinalAggregate(*id);
  ASSERT_TRUE(sum.has_value());
  EXPECT_DOUBLE_EQ(*sum, 7.0);
}

TEST(QueryServiceTapeTest, UnknownDocumentAndEvict) {
  QueryService service(SmallConfig(1));
  auto id = service.OpenSession("//a/text()");
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(service.RunCached(*id, "nope").code(), StatusCode::kNotFound);
  EXPECT_EQ(service.ServeTape("nope").status().code(), StatusCode::kNotFound);
  ASSERT_TRUE(service.RecordDocument("doc", "<a>x</a>").ok());
  ASSERT_TRUE(service.RunCached(*id, "doc").ok());
  ASSERT_TRUE(service.EvictDocument("doc").ok());
  EXPECT_EQ(service.EvictDocument("doc").code(), StatusCode::kNotFound);
  EXPECT_EQ(service.RunCached(*id, "doc").code(), StatusCode::kNotFound);
}

TEST(QueryServiceTapeTest, RunCachedAfterFailureRecovers) {
  QueryService service(SmallConfig(1));
  ASSERT_TRUE(service.RecordDocument("doc", "<a>ok</a>").ok());
  auto id = service.OpenSession("//a/text()");
  ASSERT_TRUE(id.ok());
  // Fail the session with a malformed streamed document first.
  ASSERT_TRUE(service.Push(*id, "<a><b></a>").ok());
  EXPECT_FALSE(service.Close(*id).ok());
  // RunCached rewinds the failed session and serves from the tape.
  ASSERT_TRUE(service.RunCached(*id, "doc").ok());
  EXPECT_EQ(service.Drain(*id), (std::vector<std::string>{"ok"}));
}

// Many threads replaying the same cached tape into their own sessions;
// run under TSan by tools/check.sh.
TEST(QueryServiceStressTest, ConcurrentRunCachedSharedTape) {
  QueryService service(SmallConfig(4));
  std::string document = "<r>";
  for (int i = 0; i < 100; ++i) {
    document += "<item>v" + std::to_string(i) + "</item>";
  }
  document += "</r>";
  ASSERT_TRUE(service.RecordDocument("shared", document).ok());

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&service, &failures] {
      auto id = service.OpenSession("//item/text()");
      if (!id.ok()) {
        ++failures;
        return;
      }
      for (int i = 0; i < 5; ++i) {
        if (!service.RunCached(*id, "shared").ok()) ++failures;
        if (service.Drain(*id).size() != 100u) ++failures;
      }
      if (!service.Release(*id).ok()) ++failures;
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  StatsSnapshot snap = service.stats();
  EXPECT_EQ(snap.tape_replays, static_cast<uint64_t>(kThreads * 5));
  EXPECT_EQ(snap.doc_cache_hits, static_cast<uint64_t>(kThreads * 5));
}

// ------------------------------------------------- StatsSnapshot wire form

TEST(StatsSnapshotTest, ParseIsTheExactInverseOfToString) {
  StatsSnapshot snap;
  snap.sessions_opened = 7;
  snap.sessions_active = 2;
  snap.chunks_processed = 100;
  snap.bytes_consumed = 123456;
  snap.items_emitted = 42;
  snap.queue_high_water = 9;
  snap.doc_cache_documents = 3;
  snap.tape_replays = 11;
  snap.connections_accepted = 5;
  snap.subscriptions_active = 1;
  snap.fanout_shed = 2;

  std::string text = snap.ToString();
  Result<StatsSnapshot> parsed = StatsSnapshot::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ToString(), text);
  EXPECT_EQ(parsed->sessions_opened, 7u);
  EXPECT_EQ(parsed->queue_high_water, 9u);
}

TEST(StatsSnapshotTest, ParseToleratesMissingFieldsFromAnOlderShard) {
  // A shard running an older build sends fewer lines; absent counters
  // stay zero instead of failing the whole scrape.
  Result<StatsSnapshot> parsed =
      StatsSnapshot::Parse("sessions_opened 4\nitems_emitted 10\n");
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->sessions_opened, 4u);
  EXPECT_EQ(parsed->items_emitted, 10u);
  EXPECT_EQ(parsed->tape_replays, 0u);
}

TEST(StatsSnapshotTest, ParseRejectsUnknownNamesAndMalformedLines) {
  EXPECT_EQ(StatsSnapshot::Parse("bogus_counter 1\n").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(StatsSnapshot::Parse("sessions_opened\n").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(StatsSnapshot::Parse("sessions_opened banana\n").status().code(),
            StatusCode::kParseError);
}

TEST(StatsSnapshotTest, MergeSumsEverythingExceptTheHighWaterMark) {
  StatsSnapshot a;
  a.sessions_opened = 3;
  a.items_emitted = 10;
  a.queue_high_water = 4;
  a.doc_cache_documents = 1;  // gauge: cluster "right now" is the sum
  StatsSnapshot b;
  b.sessions_opened = 5;
  b.items_emitted = 1;
  b.queue_high_water = 9;
  b.doc_cache_documents = 2;

  a.Merge(b);
  EXPECT_EQ(a.sessions_opened, 8u);
  EXPECT_EQ(a.items_emitted, 11u);
  EXPECT_EQ(a.doc_cache_documents, 3u);
  // Per-session high-water is not additive across shards: max, not sum.
  EXPECT_EQ(a.queue_high_water, 9u);
}

}  // namespace
}  // namespace xsq::service
