// XSQ-NC: the deterministic engine variant for queries without closure
// axes (paper Section 6: "XSQ-NC supports multiple predicates and
// aggregations, but not closures").
//
// Without '//', an element at depth d can only match location step d, so
// the HPDT is deterministic: there is at most one live match chain, one
// match per open element, and results are decided in document order.
// XSQ-NC exploits this: a single hash-free probe per event, no shared
// items or claim counting, and direct output the moment an item is known
// to be in the result - the properties the paper credits for XSQ-NC's
// higher throughput relative to XSQ-F.
#ifndef XSQ_CORE_ENGINE_NC_H_
#define XSQ_CORE_ENGINE_NC_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/result_sink.h"
#include "core/streaming_engine.h"
#include "xml/events.h"
#include "xpath/ast.h"

namespace xsq::core {

class XsqNcEngine final : public StreamingEngine {
 public:
  // Fails with NotSupported when the query contains a closure axis.
  static Result<std::unique_ptr<XsqNcEngine>> Create(
      const xpath::Query& query, ResultSink* sink);

  void OnBegin(std::string_view tag,
               const std::vector<xml::Attribute>& attributes,
               int depth) override;
  void OnEnd(std::string_view tag, int depth) override;
  void OnText(std::string_view enclosing_tag, std::string_view text,
              int depth) override;
  void OnDocumentEnd() override;

  void Reset() override;

 private:
  enum class ItemState : uint8_t { kPending, kSelected, kDiscarded };

  struct NcItem {
    std::string value;
    ItemState state = ItemState::kPending;
    bool complete = true;
  };

  // Per open element; at most one match (the element's step == depth).
  struct NcEntry {
    bool has_match = false;
    uint32_t pending_mask = 0;  // undecided predicates of the step
    std::vector<NcItem*> held;  // this BPDT's buffer
    NcItem* aggregate_item = nullptr;

    bool satisfied() const { return pending_mask == 0; }
  };

  XsqNcEngine(xpath::Query query, ResultSink* sink);

  // Index of the deepest entry (<= from) with an undecided predicate,
  // or 0 when the whole chain is decided true.
  size_t LowestUnsatisfied(size_t from) const;
  void SatisfyPredicate(size_t entry_index, uint32_t bit);
  NcItem* MakeItem();
  void AttachItem(NcItem* item);
  void AppendToItem(NcItem* item, std::string_view data);
  void EmitReadyItems();
  bool InResultSubtree() const { return serialization_depth_ > 0; }

  xpath::Query query_;
  size_t num_steps_;

  std::vector<NcEntry> stack_;
  // Items by value: a deque keeps references valid across pushes and
  // pops at its ends, so NcItem* in held/aggregate_item stay good.
  std::deque<NcItem> queue_;
  NcItem* serializing_item_ = nullptr;  // catchall output in progress
  int serialization_depth_ = 0;         // begin depth of that element
};

}  // namespace xsq::core

#endif  // XSQ_CORE_ENGINE_NC_H_
