// Extension experiment: standing-query pub/sub — thousands of XPath
// subscriptions matched per single parse (the selective-dissemination
// workload the paper positions XSQ against in Section 1 / Figure 14).
//
// Three claims, each ENFORCED by exit status (any violation exits 1),
// so this binary doubles as a regression gate:
//
//   1. Shared matching beats one-engine-per-query: at Q >= 1000
//      predicate-free subscriptions the registry's publish throughput
//      is at least 5x a baseline that runs one persistent
//      StreamingQuery per subscription per document. The two legs run
//      in alternating rounds over the same documents, and the gate is
//      the median per-round ratio.
//   2. Skeleton pruning is exact bookkeeping: on a mixed predicate
//      workload every publish reports hpdt_evaluations ==
//      filter_survivors (engines run for survivors, never for pruned
//      subscriptions).
//   3. Zero result diffs: every delivery equals standalone
//      StreamingQuery evaluation on SHAKE / NASA / DBLP documents.
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_util/timing.h"
#include "common/strings.h"
#include "core/streaming_query.h"
#include "datagen/generators.h"
#include "fig_util.h"
#include "pubsub/subscription_registry.h"
#include "xpath/ast.h"

namespace xsq::bench {
namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

// Predicate-free subscriptions over the DBLP vocabulary with heavy
// shared prefixes (the YFilter workload shape).
std::vector<std::string> MakeSubscriptions(size_t n, uint64_t seed) {
  static constexpr const char* kRecords[] = {"article", "inproceedings"};
  static constexpr const char* kFields[] = {"title", "author", "year",
                                            "pages", "booktitle", "journal"};
  SplitMix64 rng(seed);
  std::vector<std::string> subscriptions;
  subscriptions.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    std::string q = "/dblp/";
    q += kRecords[rng.Below(2)];
    q += rng.Chance(0.3) ? "//" : "/";
    q += kFields[rng.Below(6)];
    if (rng.Chance(0.5)) q += "/text()";
    subscriptions.push_back(std::move(q));
  }
  return subscriptions;
}

// ---------------------------------------------------------------------------
// Claim 1: shared matching vs one-engine-per-query.

void ThroughputScaleUp() {
  std::printf("\n--- Publish throughput: shared parse vs per-query engines\n");
  const size_t doc_budget = static_cast<size_t>(
      400 * BenchScale() < 100 ? 100 : 400 * BenchScale());
  std::vector<std::string> documents;
  documents.reserve(doc_budget);
  size_t total_bytes = 0;
  for (size_t i = 0; i < doc_budget; ++i) {
    documents.push_back(datagen::GenerateDblp(300, i));
    total_bytes += documents.back().size();
  }
  std::printf("%zu documents, %s total (per-Q doc count bounded so the\n"
              "baseline's Q x docs engine runs stay tractable)\n",
              documents.size(), FormatBytes(total_bytes).c_str());

  // Shared/per-engine rounds per subscription count; odd, so the
  // median is one round's ratio.
  constexpr int kRounds = 9;
  std::printf("%d alternating rounds per row; rates are per-leg round\n"
              "medians, speedup the median per-round ratio\n",
              kRounds);
  TablePrinter table({"Subscriptions", "NFA nodes", "Shared docs/s",
                      "Per-engine docs/s", "Speedup", "Items/doc"});
  for (size_t q : {10, 100, 1000}) {
    // The baseline pays Q engine runs per document; cap its document
    // count so the experiment finishes on one core.
    size_t docs = 40000 / q;
    if (docs < 20) docs = 20;
    if (docs > documents.size()) docs = documents.size();
    std::vector<std::string> subscriptions = MakeSubscriptions(q, 42);

    pubsub::SubscriptionRegistry registry;
    for (const std::string& sub : subscriptions) {
      if (!registry.Subscribe(sub).ok()) {
        Check(false, "subscription rejected by the registry");
        return;
      }
    }
    // Baseline: one persistent StreamingQuery per subscription (compiled
    // once, Reset between documents) — every document parsed Q times.
    std::vector<std::unique_ptr<core::StreamingQuery>> engines;
    engines.reserve(q);
    for (const std::string& sub : subscriptions) {
      auto engine = core::StreamingQuery::Open(sub);
      if (!engine.ok()) {
        Check(false, "baseline engine rejected a subscription");
        return;
      }
      engines.push_back(*std::move(engine));
    }

    const char* failure = nullptr;
    size_t shared_items = 0;
    size_t baseline_items = 0;
    auto shared = [&] {
      shared_items = 0;
      for (size_t d = 0; d < docs; ++d) {
        auto outcome = registry.Publish(documents[d]);
        if (!outcome.ok()) {
          failure = "publish failed on a well-formed document";
          return;
        }
        for (const auto& delivery : outcome->deliveries) {
          shared_items += delivery.items.size();
        }
      }
    };
    auto per_engine = [&] {
      baseline_items = 0;
      for (size_t d = 0; d < docs; ++d) {
        for (auto& engine : engines) {
          engine->Reset();
          if (!engine->Push(documents[d]).ok() || !engine->Close().ok()) {
            failure = "baseline engine failed on a well-formed document";
            return;
          }
          while (engine->NextItem()) ++baseline_items;
        }
      }
    };
    PairedTiming timing = TimePaired(kRounds, shared, per_engine);
    if (failure != nullptr) {
      Check(false, failure);
      return;
    }

    Check(shared_items == baseline_items,
          "shared and per-engine runs disagree on total item count");
    double shared_rate =
        static_cast<double>(docs) / Median(timing.a_seconds);
    double baseline_rate =
        static_cast<double>(docs) / Median(timing.b_seconds);
    double speedup = timing.MedianRatio();
    if (q >= 1000) {
      Check(speedup >= 5.0,
            "shared matching is not >= 5x one-engine-per-query at Q >= 1000");
    }
    table.AddRow({std::to_string(q), std::to_string(registry.node_count()),
                  FormatDouble(shared_rate, 0), FormatDouble(baseline_rate, 0),
                  FormatDouble(speedup, 1),
                  FormatDouble(static_cast<double>(shared_items) /
                                   static_cast<double>(docs),
                               2)});
  }
  table.Print();
}

// ---------------------------------------------------------------------------
// Claim 2: hpdt_evaluations == filter_survivors on a mixed workload.

void MixedPredicateWorkload() {
  std::printf("\n--- Mixed predicate workload: skeleton pruning bookkeeping\n");
  pubsub::SubscriptionRegistry registry;
  std::vector<std::string> subscriptions = {
      "//dataset/title/text()",          // predicate-free
      "//field/name/text()",             // predicate-free
      "//dataset[@subject]/title/text()",
      "//dataset[tableHead]/title",
      "//dataset[altname]/title/count()",
      "//zebra[x]/y",                    // skeleton can never match
      "/nope/dataset[title]/other",      // skeleton can never match
  };
  for (int year = 1975; year < 1995; ++year) {
    subscriptions.push_back("//other[year>" + std::to_string(year) +
                            "]/name/text()");
  }
  for (const std::string& sub : subscriptions) {
    if (!registry.Subscribe(sub).ok()) {
      Check(false, "mixed-workload subscription rejected");
      return;
    }
  }
  const size_t docs = static_cast<size_t>(
      100 * BenchScale() < 50 ? 50 : 100 * BenchScale());
  size_t predicate_slots = 0;
  size_t survivors = 0;
  size_t evaluations = 0;
  bool bookkeeping_exact = true;
  for (size_t d = 0; d < docs; ++d) {
    auto outcome = registry.Publish(datagen::GenerateNasa(1000, d));
    if (!outcome.ok()) {
      Check(false, "mixed-workload publish failed");
      return;
    }
    bookkeeping_exact &=
        outcome->hpdt_evaluations == outcome->filter_survivors;
    predicate_slots += outcome->predicate_subs;
    survivors += outcome->filter_survivors;
    evaluations += outcome->hpdt_evaluations;
  }
  Check(bookkeeping_exact,
        "hpdt_evaluations != filter_survivors on some publish");
  Check(survivors < predicate_slots,
        "never-matching skeletons were not pruned by the shared NFA");
  std::printf(
      "%zu documents, %zu subscriptions (%zu predicate-bearing slots "
      "cumulative):\n  %zu engine evaluations for %zu survivors "
      "(%.1f%% of predicate work pruned)\n",
      docs, subscriptions.size(), predicate_slots, evaluations, survivors,
      100.0 * static_cast<double>(predicate_slots - survivors) /
          static_cast<double>(predicate_slots));
}

// ---------------------------------------------------------------------------
// Claim 3: zero diffs against standalone evaluation.

struct StandaloneResult {
  std::vector<std::string> items;
  std::optional<double> aggregate;
  bool is_aggregate = false;
  bool ok = false;
};

StandaloneResult RunStandalone(const std::string& query_text,
                               const std::string& document) {
  StandaloneResult result;
  auto query = core::StreamingQuery::Open(query_text);
  if (!query.ok()) return result;
  if (!(*query)->Push(document).ok() || !(*query)->Close().ok()) {
    return result;
  }
  while (std::optional<std::string> item = (*query)->NextItem()) {
    result.items.push_back(std::move(*item));
  }
  result.aggregate = (*query)->final_aggregate();
  Result<xpath::Query> parsed = xpath::ParseQuery(query_text);
  result.is_aggregate =
      parsed.ok() && xpath::IsAggregation(parsed->output.kind);
  result.ok = true;
  return result;
}

size_t DiffCorpus(const char* name, const std::string& document,
                  const std::vector<std::string>& queries) {
  pubsub::SubscriptionRegistry registry;
  std::vector<uint64_t> ids;
  for (const std::string& query : queries) {
    auto id = registry.Subscribe(query);
    if (!id.ok()) {
      Check(false, "differential subscription rejected");
      return 1;
    }
    ids.push_back(*id);
  }
  auto outcome = registry.Publish(document);
  if (!outcome.ok()) {
    Check(false, "differential publish failed");
    return 1;
  }
  std::map<uint64_t, const pubsub::Delivery*> by_id;
  for (const auto& delivery : outcome->deliveries) {
    by_id[delivery.subscription_id] = &delivery;
  }
  size_t diffs = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    StandaloneResult expected = RunStandalone(queries[i], document);
    if (!expected.ok) {
      ++diffs;
      continue;
    }
    auto it = by_id.find(ids[i]);
    if (it == by_id.end()) {
      // Legal only for an item query with no matches.
      if (expected.is_aggregate || !expected.items.empty()) ++diffs;
      continue;
    }
    const pubsub::Delivery& delivery = *it->second;
    if (expected.is_aggregate) {
      if (!delivery.is_aggregate ||
          delivery.aggregate != expected.aggregate) {
        ++diffs;
      }
    } else if (delivery.is_aggregate || delivery.items != expected.items) {
      ++diffs;
    }
  }
  std::printf("  %-6s %2zu queries, %s document: %zu diffs\n", name,
              queries.size(), FormatBytes(document.size()).c_str(), diffs);
  return diffs;
}

void DifferentialSweep() {
  std::printf("\n--- Differential: pub/sub deliveries vs standalone engines\n");
  size_t bytes = ScaledBytes(32 * 1024);
  size_t diffs = 0;
  diffs += DiffCorpus("SHAKE", datagen::GenerateShake(bytes, 7),
                      {"/PLAY/ACT/SCENE/SPEECH/SPEAKER/text()",
                       "//ACT//SPEAKER/text()",
                       "/PLAY/ACT/SCENE/SPEECH[LINE%love]/SPEAKER/text()",
                       "//SPEECH/count()", "//SCENE/TITLE"});
  diffs += DiffCorpus("NASA", datagen::GenerateNasa(bytes, 11),
                      {"//dataset/title/text()", "//other[year>1990]/name",
                       "//reference/count()", "//field/name/text()",
                       "//dataset[tableHead]/title/text()"});
  diffs += DiffCorpus("DBLP", datagen::GenerateDblp(bytes, 13),
                      {"//article/author/text()", "//inproceedings[author]/title",
                       "//inproceedings/year/count()",
                       "/dblp/article[year>1995]/title", "//article/@key"});
  Check(diffs == 0, "pub/sub deliveries diverged from standalone results");
}

int Main() {
  PrintHeader("Extension: standing-query pub/sub",
              "Q subscriptions matched per single parse vs per-query engines");
  ThroughputScaleUp();
  MixedPredicateWorkload();
  DifferentialSweep();
  if (g_failures > 0) {
    std::printf("\n%d enforced claim(s) FAILED\n", g_failures);
    return 1;
  }
  std::printf(
      "\nAll enforced claims hold: >=5x shared-matching speedup at Q=1000,\n"
      "hpdt_evaluations == filter_survivors throughout, zero result diffs.\n");
  return 0;
}

}  // namespace
}  // namespace xsq::bench

int main() { return xsq::bench::Main(); }
