// Tests for the standing-query pub/sub subsystem:
//   - pubsub::SubscriptionRegistry unit behavior (lifecycle, shared-NFA
//     dedup, skeleton pruning invariants, per-output-kind emission)
//   - differential parity against standalone StreamingQuery evaluation
//     on the SHAKE / NASA / DBLP synthetic corpora, on random queries
//     over random documents, and at corpus scale
//   - QueryService integration: asynchronous fan-out to sinks, the
//     slow-subscriber shed policy, RemoveSubscriber's no-sink-after-
//     return guarantee, and a 16-subscriber fault-storm soak with one
//     deliberately stalled subscriber.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/streaming_query.h"
#include "datagen/generators.h"
#include "pubsub/subscription_registry.h"
#include "service/query_service.h"
#include "test_util.h"

namespace xsq {
namespace {

using pubsub::Delivery;
using pubsub::PublishOutcome;
using pubsub::SubscriptionRegistry;
using service::QueryService;
using service::ServiceConfig;

// Standalone oracle: one StreamingQuery over the whole document.
struct StandaloneResult {
  std::vector<std::string> items;
  std::optional<double> aggregate;
  bool is_aggregate = false;
};

StandaloneResult RunStandalone(const std::string& query_text,
                               const std::string& document) {
  StandaloneResult result;
  auto query = core::StreamingQuery::Open(query_text);
  EXPECT_TRUE(query.ok()) << query_text;
  if (!query.ok()) return result;
  EXPECT_TRUE((*query)->Push(document).ok()) << query_text;
  EXPECT_TRUE((*query)->Close().ok()) << query_text;
  while (std::optional<std::string> item = (*query)->NextItem()) {
    result.items.push_back(std::move(*item));
  }
  result.aggregate = (*query)->final_aggregate();
  Result<xpath::Query> parsed = xpath::ParseQuery(query_text);
  result.is_aggregate =
      parsed.ok() && xpath::IsAggregation(parsed->output.kind);
  return result;
}

// Registry deliveries keyed by subscription id.
std::map<uint64_t, Delivery> DeliveriesById(const PublishOutcome& outcome) {
  std::map<uint64_t, Delivery> by_id;
  for (const Delivery& delivery : outcome.deliveries) {
    by_id.emplace(delivery.subscription_id, delivery);
  }
  return by_id;
}

// Subscribes every query, publishes the document once, and pins the
// result of each subscription to the standalone oracle.
void ExpectPublishMatchesStandalone(const std::vector<std::string>& queries,
                                    const std::string& document) {
  SubscriptionRegistry registry;
  std::vector<uint64_t> ids;
  for (const std::string& query : queries) {
    auto id = registry.Subscribe(query);
    ASSERT_TRUE(id.ok()) << query << ": " << id.status().ToString();
    ids.push_back(*id);
  }
  auto outcome = registry.Publish(document);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_EQ(outcome->hpdt_evaluations, outcome->filter_survivors);
  std::map<uint64_t, Delivery> by_id = DeliveriesById(*outcome);
  for (size_t i = 0; i < queries.size(); ++i) {
    SCOPED_TRACE(queries[i]);
    StandaloneResult expected = RunStandalone(queries[i], document);
    auto it = by_id.find(ids[i]);
    if (it == by_id.end()) {
      // No delivery: legal only for a non-aggregation query with no
      // items (aggregations always deliver).
      EXPECT_FALSE(expected.is_aggregate);
      EXPECT_TRUE(expected.items.empty());
      continue;
    }
    const Delivery& delivery = it->second;
    EXPECT_EQ(delivery.is_aggregate, expected.is_aggregate);
    if (expected.is_aggregate) {
      ASSERT_EQ(delivery.aggregate.has_value(),
                expected.aggregate.has_value());
      if (expected.aggregate.has_value()) {
        EXPECT_DOUBLE_EQ(*delivery.aggregate, *expected.aggregate);
      }
    } else {
      EXPECT_EQ(delivery.items, expected.items);
    }
  }
}

// ---------------------------------------------------------------------------
// SubscriptionRegistry unit behavior.

TEST(SubscriptionRegistryTest, SubscribeUnsubscribeLifecycle) {
  SubscriptionRegistry registry;
  auto a = registry.Subscribe("//a/text()");
  ASSERT_TRUE(a.ok());
  auto b = registry.Subscribe("/r/b");
  ASSERT_TRUE(b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(registry.subscription_count(), 2u);
  EXPECT_TRUE(registry.has_subscription(*a));
  EXPECT_EQ(registry.query_text(*a), "//a/text()");

  EXPECT_TRUE(registry.Unsubscribe(*a).ok());
  EXPECT_EQ(registry.subscription_count(), 1u);
  EXPECT_FALSE(registry.has_subscription(*a));
  EXPECT_FALSE(registry.Unsubscribe(*a).ok());  // already gone
  EXPECT_FALSE(registry.Unsubscribe(999).ok());

  // Ids are never reused.
  auto c = registry.Subscribe("//c");
  ASSERT_TRUE(c.ok());
  EXPECT_GT(*c, *b);
}

TEST(SubscriptionRegistryTest, RejectsUnparsableQueries) {
  SubscriptionRegistry registry;
  EXPECT_FALSE(registry.Subscribe("not an xpath").ok());
  EXPECT_FALSE(registry.Subscribe("").ok());
  EXPECT_EQ(registry.subscription_count(), 0u);
}

TEST(SubscriptionRegistryTest, UnsubscribedQueriesStopMatching) {
  SubscriptionRegistry registry;
  auto id = registry.Subscribe("//a/text()");
  ASSERT_TRUE(id.ok());
  auto first = registry.Publish("<r><a>x</a></r>");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->deliveries.size(), 1u);
  ASSERT_TRUE(registry.Unsubscribe(*id).ok());
  auto second = registry.Publish("<r><a>x</a></r>");
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->deliveries.empty());
  EXPECT_EQ(second->subscriptions, 0u);
}

TEST(SubscriptionRegistryTest, PredicateFreeOutputKindsMatchStandalone) {
  const std::string document =
      "<lib><book id=\"b1\"><title>XSQ</title><price>30</price></book>"
      "<book><title>YFilter &amp; friends</title><price>12.5</price></book>"
      "<note>plain</note></lib>";
  ExpectPublishMatchesStandalone(
      {
          "//book/title",          // element serialization
          "//book/title/text()",   // text items
          "//book/@id",            // attribute items (one book lacks it)
          "//book/price/sum()",    // aggregation
          "//book/count()",        // count
          "//missing/text()",      // no matches at all
          "//book/price/avg()",    // avg over two values
          "/book/@id",             // no match: book is not the root
      },
      document);
}

TEST(SubscriptionRegistryTest, PredicateQueriesMatchStandalone) {
  const std::string document =
      "<lib><book year=\"2003\"><title>A</title><price>30</price></book>"
      "<book year=\"1999\"><title>B</title><price>12</price></book>"
      "<book><title>C</title><price>45</price></book></lib>";
  ExpectPublishMatchesStandalone(
      {
          "//book[@year]/title/text()",
          "//book[price>20]/title/text()",
          "//book[price<20]/price/sum()",
          "/lib/book[@year>2000]/title",
          "//book[missing]/title/text()",
      },
      document);
}

TEST(SubscriptionRegistryTest, SkeletonPruningSkipsNonSurvivingEngines) {
  SubscriptionRegistry registry;
  // Two predicate subscriptions whose skeletons cannot match the
  // document, one that can.
  ASSERT_TRUE(registry.Subscribe("//zebra[x]/y").ok());
  ASSERT_TRUE(registry.Subscribe("/nope/a[b]/c").ok());
  ASSERT_TRUE(registry.Subscribe("//book[price]/title").ok());
  auto outcome =
      registry.Publish("<lib><book><price>9</price><title>T</title></book>"
                       "</lib>");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->predicate_subs, 3u);
  EXPECT_EQ(outcome->filter_survivors, 1u);
  EXPECT_EQ(outcome->hpdt_evaluations, 1u);  // only the survivor ran
  ASSERT_EQ(outcome->deliveries.size(), 1u);
  EXPECT_EQ(outcome->deliveries[0].items,
            std::vector<std::string>{"<title>T</title>"});
}

TEST(SubscriptionRegistryTest, PrunedAggregationsStillDeliverEmptySet) {
  SubscriptionRegistry registry;
  auto count_id = registry.Subscribe("//zebra[x]/count()");
  ASSERT_TRUE(count_id.ok());
  auto avg_id = registry.Subscribe("//zebra[x]/y/avg()");
  ASSERT_TRUE(avg_id.ok());
  auto outcome = registry.Publish("<r><a>1</a></r>");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->filter_survivors, 0u);
  EXPECT_EQ(outcome->hpdt_evaluations, 0u);  // no engine ran at all
  std::map<uint64_t, Delivery> by_id = DeliveriesById(*outcome);
  ASSERT_TRUE(by_id.count(*count_id));
  ASSERT_TRUE(by_id.at(*count_id).aggregate.has_value());
  EXPECT_DOUBLE_EQ(*by_id.at(*count_id).aggregate, 0.0);  // count of none
  ASSERT_TRUE(by_id.count(*avg_id));
  EXPECT_FALSE(by_id.at(*avg_id).aggregate.has_value());  // avg of none
}

TEST(SubscriptionRegistryTest, DuplicateQueriesShareNfaNodes) {
  SubscriptionRegistry registry;
  ASSERT_TRUE(registry.Subscribe("/a/b/c").ok());
  size_t nodes = registry.node_count();
  ASSERT_TRUE(registry.Subscribe("/a/b/c").ok());
  EXPECT_EQ(registry.node_count(), nodes);  // identical path: zero growth
  ASSERT_TRUE(registry.Subscribe("/a/b/d").ok());
  EXPECT_EQ(registry.node_count(), nodes + 1);  // shared prefix
  // Both duplicate subscriptions still match independently.
  auto outcome = registry.Publish("<a><b><c>x</c></b></a>");
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->deliveries.size(), 2u);
}

TEST(SubscriptionRegistryTest, MalformedDocumentFailsButRegistryRecovers) {
  SubscriptionRegistry registry;
  ASSERT_TRUE(registry.Subscribe("//a/text()").ok());
  ASSERT_TRUE(registry.Subscribe("//a[b]/c").ok());
  EXPECT_FALSE(registry.Publish("<r><a>broken</r>").ok());
  auto outcome = registry.Publish("<r><a>fine</a></r>");
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->deliveries.size(), 1u);
  EXPECT_EQ(outcome->deliveries[0].items, std::vector<std::string>{"fine"});
}

TEST(SubscriptionRegistryTest, EnginesResetBetweenDocuments) {
  SubscriptionRegistry registry;
  auto id = registry.Subscribe("//book[price>20]/title/text()");
  ASSERT_TRUE(id.ok());
  for (int round = 0; round < 3; ++round) {
    std::string title = "T";
    title += std::to_string(round);
    std::string document = "<l><book><price>30</price><title>";
    document += title;
    document += "</title></book></l>";
    auto outcome = registry.Publish(document);
    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome->deliveries.size(), 1u);
    // Results never leak across documents: exactly this round's item.
    EXPECT_EQ(outcome->deliveries[0].items,
              std::vector<std::string>{title});
  }
}

TEST(SubscriptionRegistryTest, SubscriptionsAddedBetweenPublishesTakeEffect) {
  SubscriptionRegistry registry;
  ASSERT_TRUE(registry.Subscribe("//a/text()").ok());
  auto first = registry.Publish("<r><a>1</a><b>2</b></r>");
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->deliveries.size(), 1u);
  ASSERT_TRUE(registry.Subscribe("//b/text()").ok());
  auto second = registry.Publish("<r><a>1</a><b>2</b></r>");
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->deliveries.size(), 2u);
}

// ---------------------------------------------------------------------------
// Differential parity on the paper's corpora: pub/sub through one
// shared parse must equal standalone evaluation, query by query.

TEST(PubSubDifferentialTest, ShakeCorpus) {
  const std::string xml = datagen::GenerateShake(48 * 1024, 7);
  ExpectPublishMatchesStandalone(
      {
          "/PLAY/ACT/SCENE/SPEECH/SPEAKER/text()",
          "//ACT//SPEAKER/text()",
          "/PLAY/ACT/SCENE/SPEECH[LINE%love]/SPEAKER/text()",
          "//SPEECH/count()",
          "//SCENE/TITLE",
          "//SPEECH[SPEAKER%KING]/LINE/count()",
      },
      xml);
}

TEST(PubSubDifferentialTest, NasaCorpus) {
  const std::string xml = datagen::GenerateNasa(48 * 1024, 11);
  ExpectPublishMatchesStandalone(
      {
          "//dataset/title/text()",
          "/datasets/dataset/altname",
          "//other[year>1990]/name/text()",
          "//reference/count()",
          "//field/name/text()",
          "//dataset[tableHead]/title/text()",
      },
      xml);
}

TEST(PubSubDifferentialTest, DblpCorpus) {
  const std::string xml = datagen::GenerateDblp(48 * 1024, 13);
  ExpectPublishMatchesStandalone(
      {
          "//article/author/text()",
          "//inproceedings[author]/title",
          "//inproceedings/year/count()",
          "/dblp/article[year>1995]/title",
          "//booktitle/text()",
          "//article/@key",
      },
      xml);
}

TEST(ScaleMultiQueryTest, ClosureQueriesShareOneParseAtScale) {
  ExpectPublishMatchesStandalone(
      {
          "//pub[year]//book[@id]/title/text()",
          "//book/price/sum()",
          "//pub//pub/count()",
      },
      datagen::GenerateRecursivePubs(150000, 17));
}

// ---------------------------------------------------------------------------
// Many queries over one parse: the registry is the one multi-query path.

constexpr const char* kLibrary =
    "<lib>"
    "<book id=\"1\"><title>Streams</title><price>10</price></book>"
    "<book id=\"2\"><title>Trees</title><price>30</price></book>"
    "<cd><title>Tunes</title></cd>"
    "</lib>";

TEST(MultiQueryTest, IndependentResultsPerQuery) {
  SubscriptionRegistry registry;
  auto titles = registry.Subscribe("//title/text()");
  auto cheap = registry.Subscribe("/lib/book[price<20]/title/text()");
  auto count = registry.Subscribe("//book/count()");
  ASSERT_TRUE(titles.ok() && cheap.ok() && count.ok());
  auto outcome = registry.Publish(kLibrary);
  ASSERT_TRUE(outcome.ok());
  std::map<uint64_t, Delivery> by_id = DeliveriesById(*outcome);
  EXPECT_EQ(by_id[*titles].items,
            (std::vector<std::string>{"Streams", "Trees", "Tunes"}));
  EXPECT_EQ(by_id[*cheap].items, std::vector<std::string>{"Streams"});
  ASSERT_TRUE(by_id[*count].aggregate.has_value());
  EXPECT_DOUBLE_EQ(*by_id[*count].aggregate, 2.0);
}

TEST(MultiQueryTest, BadQueryIsRejectedWithoutPoisoningOthers) {
  SubscriptionRegistry registry;
  EXPECT_FALSE(registry.Subscribe("not a query").ok());
  ASSERT_TRUE(registry.Subscribe("//title/text()").ok());
  EXPECT_EQ(registry.subscription_count(), 1u);
  auto outcome = registry.Publish(kLibrary);
  ASSERT_TRUE(outcome.ok());
  ASSERT_EQ(outcome->deliveries.size(), 1u);
  EXPECT_EQ(outcome->deliveries[0].items.size(), 3u);
}

TEST(MultiQueryTest, SharedParseMatchesIndividualRuns) {
  ExpectPublishMatchesStandalone(
      {
          "//book/@id",
          "/lib/*/title/text()",
          "//book[price>20]",
          "//book/price/sum()",
          "/lib/cd/title/text()",
      },
      kLibrary);
}

TEST(MultiQueryTest, ReusableAcrossDocuments) {
  SubscriptionRegistry registry;
  ASSERT_TRUE(registry.Subscribe("//a/text()").ok());
  for (const char* text : {"1", "2"}) {
    auto outcome = registry.Publish(std::string("<r><a>") + text + "</a></r>");
    ASSERT_TRUE(outcome.ok());
    ASSERT_EQ(outcome->deliveries.size(), 1u);
    EXPECT_EQ(outcome->deliveries[0].items, std::vector<std::string>{text});
  }
}

class MultiQueryPropertyTest : public ::testing::TestWithParam<uint64_t> {};

// Seeds 1, 3, 10 and 11 catch a shared NFA that lets '/' edges fire
// below a '//' node.
TEST_P(MultiQueryPropertyTest, RandomQueriesOverRandomDocuments) {
  const uint64_t seed = GetParam();
  std::vector<std::string> queries;
  for (uint64_t i = 0; i < 6; ++i) {
    queries.push_back(testutil::RandomQuery(seed * 31 + i));
  }
  ExpectPublishMatchesStandalone(queries,
                                 testutil::RandomDocument(seed + 500));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MultiQueryPropertyTest,
                         ::testing::Range(uint64_t{0}, uint64_t{15}));

// ---------------------------------------------------------------------------
// QueryService integration: asynchronous fan-out.

// A sink that collects frames and can optionally stall deliveries.
struct CollectingSink {
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> frames;
  std::atomic<bool> stalled{false};
  std::atomic<bool> closed{false};  // RemoveSubscriber returned

  QueryService::EventSink AsSink() {
    return [this](std::string_view frame) {
      while (stalled.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::lock_guard<std::mutex> lock(mu);
      EXPECT_FALSE(closed.load(std::memory_order_relaxed))
          << "sink invoked after RemoveSubscriber returned";
      frames.emplace_back(frame);
      cv.notify_all();
    };
  }

  // Waits until at least `count` frames arrived.
  bool WaitForFrames(size_t count, int timeout_ms = 5000) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                       [&] { return frames.size() >= count; });
  }

  std::vector<std::string> Snapshot() {
    std::lock_guard<std::mutex> lock(mu);
    return frames;
  }
};

TEST(ServicePubSubTest, FanOutDeliversFormattedFrames) {
  QueryService service{ServiceConfig()};
  CollectingSink sink;
  auto subscriber = service.AddSubscriber(sink.AsSink());
  ASSERT_TRUE(subscriber.ok());
  auto text_sub = service.Subscribe(*subscriber, "//a/text()");
  ASSERT_TRUE(text_sub.ok());
  auto agg_sub = service.Subscribe(*subscriber, "//a/count()");
  ASSERT_TRUE(agg_sub.ok());
  EXPECT_EQ(service.subscription_count(), 2u);

  auto summary = service.Publish("<r><a>hi</a><a>there</a></r>");
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->deliveries, 2u);
  EXPECT_EQ(summary->frames_enqueued, 3u);  // two items + one aggregate
  EXPECT_EQ(summary->frames_shed, 0u);

  ASSERT_TRUE(sink.WaitForFrames(3));
  std::vector<std::string> frames = sink.Snapshot();
  std::string text_prefix = "EVENT " + std::to_string(*text_sub) + " ITEM ";
  EXPECT_EQ(frames[0], text_prefix + "hi");
  EXPECT_EQ(frames[1], text_prefix + "there");
  EXPECT_EQ(frames[2],
            "EVENT " + std::to_string(*agg_sub) + " AGG 2.000000");

  service::StatsSnapshot stats = service.stats();
  EXPECT_EQ(stats.subscriptions_active, 2u);
  EXPECT_EQ(stats.publishes, 1u);
  EXPECT_GE(stats.events_delivered, 3u);
  service.Shutdown();
}

TEST(ServicePubSubTest, ItemsWithNewlinesAreLineEscaped) {
  QueryService service{ServiceConfig()};
  CollectingSink sink;
  auto subscriber = service.AddSubscriber(sink.AsSink());
  ASSERT_TRUE(subscriber.ok());
  ASSERT_TRUE(service.Subscribe(*subscriber, "//a/text()").ok());
  ASSERT_TRUE(service.Publish("<r><a>two\nlines</a></r>").ok());
  ASSERT_TRUE(sink.WaitForFrames(1));
  std::string frame = sink.Snapshot()[0];
  EXPECT_EQ(frame.find('\n'), std::string::npos);
  EXPECT_NE(frame.find("two\\nlines"), std::string::npos);
  service.Shutdown();
}

TEST(ServicePubSubTest, PublishNeverBlocksOnStalledSubscriberAndSheds) {
  ServiceConfig config;
  config.max_subscriber_queue_frames = 4;
  QueryService service{config};
  CollectingSink sink;
  sink.stalled.store(true);  // dispatcher blocks inside the sink
  auto subscriber = service.AddSubscriber(sink.AsSink());
  ASSERT_TRUE(subscriber.ok());
  ASSERT_TRUE(service.Subscribe(*subscriber, "//a/text()").ok());

  // Each publish produces 6 frames against a queue bound of 4: the
  // first may be mid-claim, but repeated publishes must overflow.
  const std::string document =
      "<r><a>1</a><a>2</a><a>3</a><a>4</a><a>5</a><a>6</a></r>";
  uint64_t shed = 0;
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (shed == 0 && std::chrono::steady_clock::now() < deadline) {
    auto start = std::chrono::steady_clock::now();
    auto summary = service.Publish(document);
    ASSERT_TRUE(summary.ok());
    // The shed policy's whole point: publish returns promptly even
    // though the subscriber is wedged.
    EXPECT_LT(std::chrono::steady_clock::now() - start,
              std::chrono::seconds(5));
    shed += summary->frames_shed;
  }
  EXPECT_GT(shed, 0u);
  EXPECT_GE(service.stats().fanout_shed, shed);

  sink.stalled.store(false);  // unwedge; the ERR notice must drain
  ASSERT_TRUE(sink.WaitForFrames(1));
  bool saw_notice = false;
  auto notice_deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!saw_notice && std::chrono::steady_clock::now() < notice_deadline) {
    for (const std::string& frame : sink.Snapshot()) {
      if (frame.find("EVENT 0 ERR ResourceExhausted") != std::string::npos) {
        saw_notice = true;
        break;
      }
    }
    if (!saw_notice) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(saw_notice);
  service.Shutdown();
}

TEST(ServicePubSubTest, RemoveSubscriberNeverInvokesSinkAfterReturn) {
  QueryService service{ServiceConfig()};
  CollectingSink sink;
  auto subscriber = service.AddSubscriber(sink.AsSink());
  ASSERT_TRUE(subscriber.ok());
  ASSERT_TRUE(service.Subscribe(*subscriber, "//a/text()").ok());
  ASSERT_TRUE(service.Publish("<r><a>x</a></r>").ok());
  ASSERT_TRUE(service.RemoveSubscriber(*subscriber).ok());
  sink.closed.store(true);  // any later invocation fails the EXPECT inside
  EXPECT_EQ(service.stats().subscriptions_active, 0u);
  // Publishing after removal reaches nobody and invokes nothing.
  auto summary = service.Publish("<r><a>y</a></r>");
  ASSERT_TRUE(summary.ok());
  EXPECT_EQ(summary->deliveries, 0u);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(service.RemoveSubscriber(*subscriber).ok());  // idempotence
  service.Shutdown();
}

TEST(ServicePubSubTest, SubscriptionAdmissionLimit) {
  ServiceConfig config;
  config.max_subscriptions = 2;
  QueryService service{config};
  CollectingSink sink;
  auto subscriber = service.AddSubscriber(sink.AsSink());
  ASSERT_TRUE(subscriber.ok());
  ASSERT_TRUE(service.Subscribe(*subscriber, "//a").ok());
  ASSERT_TRUE(service.Subscribe(*subscriber, "//b").ok());
  auto third = service.Subscribe(*subscriber, "//c");
  ASSERT_FALSE(third.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  service.Shutdown();
}

TEST(ServicePubSubTest, UnsubscribeRequiresTheOwningSubscriber) {
  QueryService service{ServiceConfig()};
  CollectingSink sink_a;
  CollectingSink sink_b;
  auto a = service.AddSubscriber(sink_a.AsSink());
  auto b = service.AddSubscriber(sink_b.AsSink());
  ASSERT_TRUE(a.ok() && b.ok());
  auto sub = service.Subscribe(*a, "//a/text()");
  ASSERT_TRUE(sub.ok());
  EXPECT_FALSE(service.Unsubscribe(*b, *sub).ok());  // not the owner
  EXPECT_TRUE(service.Unsubscribe(*a, *sub).ok());
  EXPECT_EQ(service.stats().subscriptions_active, 0u);
  service.Shutdown();
}

// ---------------------------------------------------------------------------
// The fault storm: 16 subscribers (one permanently stalled), concurrent
// publishes, churned subscriptions and mid-storm removals. The
// assertions are survival (no deadlock under the 120 s test timeout),
// the sanitizers' cleanliness, and the shed policy engaging for the
// stalled subscriber without stalling anyone else.

TEST(ServicePubSubSoakTest, SixteenSubscriberFaultStorm) {
  constexpr int kSubscribers = 16;
  constexpr int kPublishes = 40;
  ServiceConfig config;
  config.max_subscriber_queue_frames = 8;  // small: force shedding
  QueryService service{config};

  std::vector<std::unique_ptr<CollectingSink>> sinks;
  std::vector<uint64_t> subscriber_ids;
  for (int i = 0; i < kSubscribers; ++i) {
    sinks.push_back(std::make_unique<CollectingSink>());
    if (i == 0) sinks.back()->stalled.store(true);  // the wedged one
    auto id = service.AddSubscriber(sinks.back()->AsSink());
    ASSERT_TRUE(id.ok());
    subscriber_ids.push_back(*id);
    ASSERT_TRUE(service.Subscribe(*id, "//a/text()").ok());
    ASSERT_TRUE(
        service.Subscribe(*id, "//book[price>10]/title/text()").ok());
  }

  std::atomic<bool> stop{false};
  // Churner: adds and removes subscriptions, removes two subscribers
  // mid-storm.
  std::thread churner([&] {
    for (int round = 0; !stop.load() && round < 100; ++round) {
      uint64_t victim = subscriber_ids[2 + (round % 4)];
      auto extra = service.Subscribe(victim, "//extra/text()");
      if (extra.ok()) service.Unsubscribe(victim, *extra);
      if (round == 20) service.RemoveSubscriber(subscriber_ids[14]);
      if (round == 40) service.RemoveSubscriber(subscriber_ids[15]);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  const std::string document =
      "<r><a>alpha</a><a>beta</a>"
      "<book><price>30</price><title>T</title></book></r>";
  uint64_t total_shed = 0;
  for (int p = 0; p < kPublishes; ++p) {
    auto summary = service.Publish(document);
    ASSERT_TRUE(summary.ok());
    total_shed += summary->frames_shed;
  }
  stop.store(true);
  churner.join();

  // The stalled subscriber shed. On a single-CPU box the publish loop
  // can outrun the dispatchers so healthy subscribers legitimately shed
  // too; the properties worth pinning are that sinks[1] kept receiving
  // at all while sinks[0] was wedged, and that the pipeline is still
  // live after the storm.
  EXPECT_GT(total_shed, 0u);
  EXPECT_TRUE(sinks[1]->WaitForFrames(1));
  sinks[0]->stalled.store(false);  // unwedge
  bool live = false;
  for (int attempt = 0; attempt < 10 && !live; ++attempt) {
    size_t before = sinks[1]->Snapshot().size();
    auto extra = service.Publish(document);
    ASSERT_TRUE(extra.ok());
    // A full queue may still shed this publish's frames while the
    // backlog drains; retry until one lands.
    live = sinks[1]->WaitForFrames(before + 1, 1000);
  }
  EXPECT_TRUE(live) << "pipeline dead after the storm";
  service.Shutdown();
  service::StatsSnapshot stats = service.stats();
  EXPECT_GE(stats.publishes, static_cast<uint64_t>(kPublishes));
  EXPECT_GT(stats.events_delivered, 0u);
  EXPECT_GE(stats.fanout_shed, total_shed);
}

}  // namespace
}  // namespace xsq
