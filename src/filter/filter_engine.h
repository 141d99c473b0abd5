// Shared-NFA multi-query document filter: the stand-in for the
// XFilter/YFilter family [Altinel & Franklin 2000; Diao et al. 2002]
// discussed in the paper's related work and Figure 14.
//
// Filtering systems answer a different question than XSQ: given many
// predicate-free path expressions and a stream of documents, which
// documents match which expressions? They never buffer element data -
// only document identifiers are returned - which is why they cannot
// evaluate general XPath queries (Section 1).
//
// Like YFilter, all registered queries are combined into a single NFA
// whose common prefixes are shared: each node is a location-path prefix,
// edges are (axis, tag) pairs, and a node remains active across
// arbitrary descents when some registered query continues from it with a
// closure axis. Tag names are interned to dense uint32 ids at AddQuery
// time, so the per-event hot loop hashes the incoming tag once and then
// probes integer-keyed edge maps, never re-hashing std::string tags per
// frontier node. Registering an identical path twice reuses the existing
// node chain end to end: node_count() grows by zero (the query still
// gets its own id — filters report per-query matches).
//
// Two ways to run a document through the NFA:
//   FilterDocument(xml_text)  - parse and match in one call (whole-string
//                               convenience; what the original API offered)
//   Matcher                   - an incremental xml::SaxHandler over the
//                               shared structure, suitable for tees: feed
//                               it events from any source (live parse,
//                               tape replay) and read per-begin-event
//                               accepts as they happen. This is what the
//                               pub/sub layer drives so each published
//                               document is parsed exactly once.
#ifndef XSQ_FILTER_FILTER_ENGINE_H_
#define XSQ_FILTER_FILTER_ENGINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "xml/events.h"
#include "xpath/ast.h"

namespace xsq::filter {

class FilterEngine {
 public:
  FilterEngine() = default;

  // Registers a predicate-free path query; returns its id (0-based).
  // Output expressions are ignored: filters report document ids only.
  Result<int> AddQuery(std::string_view query_text);

  // Registers an already-parsed query (same contract: predicates are
  // rejected). The pub/sub layer uses this to register the structural
  // skeleton — predicates stripped — of predicate-bearing subscriptions,
  // which is a sound over-approximation: predicates only restrict, so a
  // document the skeleton does not match cannot be matched by the full
  // query either.
  Result<int> AddQuery(const xpath::Query& query);

  // Streams one document and reports the ids of all queries it matches,
  // in ascending order.
  Result<std::vector<int>> FilterDocument(std::string_view xml_text);

  size_t query_count() const { return query_count_; }
  // Number of shared NFA nodes - the YFilter sharing effect.
  size_t node_count() const { return nodes_.size(); }

  // Incremental runner over the shared NFA. Not thread-safe; the engine
  // must not have AddQuery called while a Matcher is mid-document, and
  // must outlive the Matcher. Reset() (or OnDocumentBegin) rebinds to
  // the engine's current query set, so one Matcher can be reused across
  // documents even as subscriptions are added between them.
  class Matcher : public xml::SaxHandler {
   public:
    explicit Matcher(const FilterEngine* engine) : engine_(engine) {
      Reset();
    }

    // Rewinds to the document start state and resizes the matched set to
    // the engine's current query count.
    void Reset();

    void OnDocumentBegin() override { Reset(); }
    void OnBegin(std::string_view tag,
                 const std::vector<xml::Attribute>& attributes,
                 int depth) override;
    void OnEnd(std::string_view tag, int depth) override;
    void OnText(std::string_view /*tag*/, std::string_view /*text*/,
                int /*depth*/) override {}

    // Query ids accepted at the most recent begin event — i.e. queries
    // for which the just-opened element is a match — sorted ascending
    // and deduplicated (a query reachable through several NFA paths
    // reports once). Valid until the next event.
    const std::vector<int>& current_accepts() const {
      return current_accepts_;
    }

    // True if query `id` matched anywhere in the document so far.
    bool Matched(int id) const {
      return id >= 0 && static_cast<size_t>(id) < matched_.size() &&
             matched_[static_cast<size_t>(id)] != 0;
    }

    // All query ids matched so far, ascending.
    std::vector<int> MatchedIds() const;

   private:
    // A frontier entry: a node entered through an edge at the current
    // element, or one that survived from an ancestor because it has '//'
    // edges. The current element is the parent of the next one only for
    // an entered node, so a survived node follows its '//' edges alone.
    struct Active {
      int node;
      bool survived;
    };

    void Activate(int node_id, std::vector<Active>* next);

    const FilterEngine* engine_;
    std::vector<uint8_t> matched_;
    std::vector<std::vector<Active>> frontiers_;
    std::vector<int> current_accepts_;
    // Per-event scratch: the incoming tag is interned-looked-up once
    // into this buffer (one string hash per event, not one per frontier
    // node).
    std::string tag_scratch_;
  };

 private:
  friend class Matcher;

  // Sentinel for "tag never registered": no tag edge can match.
  static constexpr uint32_t kNoTag = 0xffffffffu;

  struct Node {
    std::unordered_map<uint32_t, int> child_edges;  // '/' axis
    std::unordered_map<uint32_t, int> desc_edges;   // '//' axis
    int child_wildcard = -1;  // '/*'
    int desc_wildcard = -1;   // '//*'
    std::vector<int> accepts;  // query ids accepted at this prefix

    bool HasDescendantEdges() const {
      return !desc_edges.empty() || desc_wildcard >= 0;
    }
  };

  Status AddBranch(const std::vector<xpath::LocationStep>& steps, int id);

  // Interns `tag`, assigning the next dense id on first sight.
  uint32_t InternTag(const std::string& tag);
  // Lookup without interning; kNoTag when never registered.
  uint32_t FindTag(const std::string& tag) const {
    auto it = tag_ids_.find(tag);
    return it == tag_ids_.end() ? kNoTag : it->second;
  }

  int AddNode() {
    nodes_.emplace_back();
    return static_cast<int>(nodes_.size()) - 1;
  }

  std::unordered_map<std::string, uint32_t> tag_ids_;
  std::vector<Node> nodes_ = std::vector<Node>(1);  // node 0 = root prefix
  size_t query_count_ = 0;
};

}  // namespace xsq::filter

#endif  // XSQ_FILTER_FILTER_ENGINE_H_
