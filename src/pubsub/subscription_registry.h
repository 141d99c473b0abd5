// SubscriptionRegistry: standing-query pub/sub over one shared parse.
//
// The paper positions XSQ against the XFilter/YFilter filtering family
// (Section 1, Figure 14): filters share one NFA across thousands of
// queries but cannot evaluate predicates or return element data; XSQ
// evaluates full predicates but runs one engine per query. This module
// combines the two halves into the "millions of users" workload shape:
// register Q XPath subscriptions, publish documents, and each document
// is parsed exactly once regardless of Q. It is the one path for many
// queries over one parse (the HPDT grouping of the paper's Section 5).
//
// Publish pipeline (the parse-once / fan-out-many contract):
//
//   document bytes
//        |
//   SaxParser --- tee ---> DirectRun (filter::FilterEngine::Matcher
//        |                 + streaming output emission for every
//        |                 predicate-free subscription: no buffering,
//        |                 membership is decidable at the begin event)
//        +------ tee ---> tape::TapeRecorder  (only when predicate-
//                          bearing subscriptions exist)
//        then:
//   TapeReplayer --- tee ---> StreamingQuery engines of the SURVIVORS
//                             (predicate-bearing subscriptions whose
//                             structural skeleton matched; one replay
//                             feeds them all)
//
// Pruning soundness: a subscription's skeleton is its location path
// with every predicate stripped. Predicates only restrict the match
// set, so skeleton-match is a necessary condition for any HPDT match —
// a document the shared NFA rejects cannot produce results for the full
// query, and skipping its engine changes nothing (DESIGN.md §11 gives
// the argument; bench/ext_pubsub enforces hpdt_evaluations ==
// filter_survivors and zero result diffs vs standalone evaluation).
//
// Aggregation subscriptions pruned by the NFA still get a delivery:
// the empty-match-set aggregate (count/sum = 0, avg/min/max absent) is
// synthesized without touching an engine, preserving result parity
// with standalone evaluation on every document.
//
// Thread safety: none. The registry is externally serialized (the
// service layer holds its pub/sub mutex across Subscribe/Unsubscribe/
// Publish); persistent per-subscription engines make concurrent
// publishes meaningless anyway.
#ifndef XSQ_PUBSUB_SUBSCRIPTION_REGISTRY_H_
#define XSQ_PUBSUB_SUBSCRIPTION_REGISTRY_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/streaming_query.h"
#include "filter/filter_engine.h"
#include "xml/sax_parser.h"
#include "xpath/ast.h"

namespace xsq::pubsub {

// What one subscription receives for one published document.
struct Delivery {
  uint64_t subscription_id = 0;
  // Result items in document order (non-aggregation outputs). The bytes
  // are identical to what a standalone StreamingQuery over the same
  // document yields.
  std::vector<std::string> items;
  // Aggregation queries: the final value (nullopt for avg/min/max over
  // no numeric matches — exactly StreamingQuery::final_aggregate()).
  std::optional<double> aggregate;
  bool is_aggregate = false;
};

struct PublishOutcome {
  // One entry per subscription with output — every aggregation
  // subscription, plus non-aggregation subscriptions with >= 1 item —
  // ascending by subscription id.
  std::vector<Delivery> deliveries;
  size_t subscriptions = 0;       // alive at publish time
  size_t predicate_subs = 0;      // alive subscriptions with predicates
  size_t filter_survivors = 0;    // predicate subs whose skeleton matched
  size_t hpdt_evaluations = 0;    // engines actually run (== survivors)
  uint64_t tape_events = 0;       // events replayed to survivors
  // Engine failures during replay (budget/internal); those
  // subscriptions deliver nothing for this document.
  size_t failed_evaluations = 0;
};

class SubscriptionRegistry {
 public:
  SubscriptionRegistry() = default;

  SubscriptionRegistry(const SubscriptionRegistry&) = delete;
  SubscriptionRegistry& operator=(const SubscriptionRegistry&) = delete;

  // Parser hardening applied to every Publish (defaults to no limits;
  // the service layer installs its Serving preset).
  void set_parser_limits(const xml::ParserLimits& limits) {
    parser_limits_ = limits;
  }

  // Compiles `query_text`, registers its structural skeleton in the
  // shared NFA, and — for predicate-bearing queries — instantiates a
  // persistent evaluation engine (reset between documents, never
  // recompiled). Returns the subscription id (1-based, never reused).
  Result<uint64_t> Subscribe(std::string_view query_text);

  // Removes the subscription. The shared NFA keeps its node chain (it
  // is prefix-shared with other subscriptions); the accept is simply
  // ignored from now on. InvalidArgument for unknown ids.
  Status Unsubscribe(uint64_t id);

  // Matches one document against every live subscription: one parse,
  // at most one tape replay. Fails only on document-level errors
  // (malformed XML, parser limits); per-engine failures are contained
  // and counted in the outcome.
  Result<PublishOutcome> Publish(std::string_view document);

  size_t subscription_count() const { return alive_count_; }
  // Shared NFA size — the YFilter sharing effect across subscriptions.
  size_t node_count() const { return skeleton_.node_count(); }
  bool has_subscription(uint64_t id) const {
    return by_id_.find(id) != by_id_.end();
  }
  // The registered query text (empty view when unknown).
  std::string_view query_text(uint64_t id) const;

 private:
  struct Sub {
    uint64_t id = 0;
    std::string query_text;
    xpath::Query query;
    bool has_predicates = false;
    bool alive = false;
    // Predicate-bearing subscriptions: the persistent engine.
    std::unique_ptr<core::StreamingQuery> engine;
  };

  class DirectRun;  // SaxHandler: shared matcher + direct emission

  // Builds the predicate-stripped structural skeleton of `query`.
  static xpath::Query Skeleton(const xpath::Query& query);

  filter::FilterEngine skeleton_;
  // Index == filter-NFA query id; holds dead (unsubscribed) slots too,
  // so filter ids stay dense and stable.
  std::vector<Sub> subs_;
  std::unordered_map<uint64_t, size_t> by_id_;
  uint64_t next_id_ = 1;
  size_t alive_count_ = 0;
  xml::ParserLimits parser_limits_;
};

}  // namespace xsq::pubsub

#endif  // XSQ_PUBSUB_SUBSCRIPTION_REGISTRY_H_
