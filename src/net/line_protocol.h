// LineProtocol: the xsqd wire protocol, factored out of the daemon so
// one dispatcher serves both transports byte-for-byte identically:
//
//   stdin/stdout  (examples/xsqd.cpp, the original scriptable path)
//   TCP           (net::Server, one LineProtocol per connection)
//
// One command per line, one or more reply lines per command, every
// reply block terminated by "OK ..." or "ERR <Code>: <message>". Chunk
// and item payloads are escaped so arbitrary document bytes fit on one
// line: "\n" = newline, "\t" = tab, "\\" = backslash.
//
// Verbs: the table in net/verbs.h (see examples/xsqd.cpp for the full
// transcript grammar). A router-only verb (GOSSIP) answers
// NotSupported here.
//
// Replication verbs (shard-to-shard tape transfer, driven by the
// router's replication plane):
//   REPLPULL <name>              serve mode: stream the resident tape
//                                as "TAPE <escaped bytes>" then
//                                "OK <events> <bytes>"
//   REPLPULL <name> <host>:<port> pull mode: fetch <name>'s tape FROM
//                                the named peer shard, CRC-verify,
//                                install it locally, reply
//                                "OK <events> <bytes>"
//   REPLSTATUS                   one "DOC <name> <events> <bytes>" line
//                                per resident document, then an OK line
//                                with the replica-ingest counters
//
// Pub/sub: SUBSCRIBE registers a standing query and replies
// "OK <sub-id>"; PUBLISH matches a document against every standing
// query in the service and replies with a one-line summary. Matches
// arrive asynchronously as "EVENT <sub-id> ..." frames pushed through
// the transport's event sink (SetEventSink) — interleaved between
// reply blocks, never inside one. Transports that cannot push frames
// (no sink installed) reject SUBSCRIBE.
//
// EVENT ordering guarantee (asserted by net_test's pooled-connection
// parity suite): a reply block is appended to the transport's output
// atomically, so an EVENT frame can appear *between* two reply blocks
// but never inside one — a client reading line-by-line can always
// attribute payload lines to the command block in flight and treat
// EVENT lines as out-of-band. Per subscriber, frames preserve publish
// order: all frames of PUBLISH n precede all frames of PUBLISH n+1
// (the service's per-subscriber FIFO queue), and within one publish,
// frames of one subscription arrive in document order. No ordering is
// promised *across* connections: two subscribers on different
// connections may observe the same publish at different times.
//
// Beyond dispatch, a LineProtocol instance tracks which sessions *it*
// opened. That ownership is what makes disconnect-driven cancellation
// work: when the transport notices the peer is gone it calls
// CancelAll() — every in-flight evaluation this connection started
// aborts with kCancelled within one engine sampling interval — and then
// ReleaseAll() to free the admission slots. The stdin daemon uses the
// same hooks at EOF.
//
// Thread safety: HandleLine must be externally serialized per instance
// (the server's per-connection FIFO guarantees it; stdin is single
// threaded). CancelAll/ReleaseAll/HoldsState are safe to call from
// any thread concurrently with HandleLine — that is the point: the
// poll thread cancels while a protocol worker is still blocked inside
// service::QueryService::Close.
#ifndef XSQ_NET_LINE_PROTOCOL_H_
#define XSQ_NET_LINE_PROTOCOL_H_

#include <cstddef>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_set>

#include "net/handler.h"
#include "service/query_service.h"

namespace xsq::net {

class LineProtocol : public ConnectionHandler {
 public:
  explicit LineProtocol(service::QueryService* service) : service_(service) {}
  ~LineProtocol() override { ReleaseAll(); }

  LineProtocol(const LineProtocol&) = delete;
  LineProtocol& operator=(const LineProtocol&) = delete;

  // Handles one protocol line (without its trailing newline; a trailing
  // '\r' is tolerated and stripped). Appends newline-terminated reply
  // lines to *out. Returns false when the command asks the transport to
  // end the conversation (QUIT) — the "OK" reply is still appended.
  bool HandleLine(std::string_view line, std::string* out) override;

  // Installs the transport's asynchronous event path: dispatcher
  // threads call `sink` with one "EVENT ..." frame (no newline) per
  // delivery. Must be installed before the first SUBSCRIBE; the sink
  // must be callable from any thread and must not call back into this
  // protocol or its server. The connection is registered with the
  // service lazily, on the first SUBSCRIBE.
  void SetEventSink(EventSink sink) override;

  // Cancels every session this instance opened: in-flight evaluations
  // abort with kCancelled within one sampling interval; idle sessions
  // are left tripped. Returns how many sessions were cancelled. Safe
  // from any thread, including concurrently with HandleLine.
  size_t CancelAll() override;

  // Releases every session this instance opened, freeing their
  // admission slots, and deregisters this connection's subscriber (all
  // its standing queries drop; the event sink is never invoked again
  // after this returns). In-flight work finishes first (the service
  // keeps the session alive); no new work is accepted. Idempotent.
  void ReleaseAll() override;

  // Open sessions or a registered subscriber.
  bool HoldsState() const override;

  // The reply the daemon gives for a line that exceeded the transport's
  // line bound: the bounded reader discarded the command, the daemon
  // keeps serving. Shared so stdin and TCP emit identical text.
  static std::string OversizedLineReply(size_t max_line_bytes);

  // Payload escaping, exposed for clients and tests. Thin wrappers over
  // common LineEscape/LineUnescape (shared with the EVENT frame path).
  static std::string Escape(std::string_view text);
  static std::string Unescape(std::string_view text);

 private:
  void PrintItems(std::string* out, service::SessionId id) const;
  // A finished document's ITEM lines, then its AGG line when `status`
  // is OK and the query aggregates.
  void PrintResults(std::string* out, service::SessionId id,
                    const Status& status) const;
  // Registers this connection's subscriber on first use. Requires mu_.
  Result<uint64_t> EnsureSubscriberLocked();

  service::QueryService* const service_;

  mutable std::mutex mu_;
  std::unordered_set<service::SessionId> owned_;
  service::QueryService::EventSink event_sink_;  // empty until installed
  uint64_t subscriber_id_ = 0;  // 0 = not registered yet
};

}  // namespace xsq::net

#endif  // XSQ_NET_LINE_PROTOCOL_H_
