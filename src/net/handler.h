// ConnectionHandler: what net::Server needs from the application layer
// for one connection's conversation.
//
// The server owns transport mechanics — accept, buffering, timeouts,
// shedding, HTTP sniffing, teardown — and delegates the *meaning* of
// each protocol line to one handler per connection. The single-node
// daemon binds this to net::LineProtocol over a service::QueryService;
// the cluster front tier (src/cluster/) binds it to a router that
// forwards verbs to backend shards. Both get the same hardened
// transport for free.
//
// Contract (mirrors LineProtocol, which is the reference
// implementation):
//   - HandleLine is externally serialized per instance by the server's
//     per-connection FIFO; it may block.
//   - CancelAll / ReleaseAll may be called from any thread concurrently
//     with HandleLine — CancelAll must make a blocked HandleLine return
//     promptly, ReleaseAll frees everything the conversation acquired
//     and is idempotent.
//   - SetEventSink installs the transport's asynchronous frame path
//     (pub/sub EVENT frames); handlers that never push frames can keep
//     the default no-op.
#ifndef XSQ_NET_HANDLER_H_
#define XSQ_NET_HANDLER_H_

#include <functional>
#include <string>
#include <string_view>

namespace xsq::net {

// One asynchronous "EVENT ..." frame (no trailing newline) per call;
// must be callable from any thread.
using EventSink = std::function<void(std::string_view frame)>;

class ConnectionHandler {
 public:
  virtual ~ConnectionHandler() = default;

  // Handles one protocol line (no trailing newline); appends
  // newline-terminated reply lines to *out. Returns false when the
  // conversation should end (QUIT).
  virtual bool HandleLine(std::string_view line, std::string* out) = 0;

  // Installs the transport's asynchronous event path. Default: this
  // handler never pushes frames.
  virtual void SetEventSink(EventSink sink) { (void)sink; }

  // Aborts in-flight work started by this conversation; returns how
  // many units were cancelled. Safe from any thread.
  virtual size_t CancelAll() { return 0; }

  // Releases everything this conversation acquired (sessions, leases,
  // subscriber registrations). Idempotent; safe from any thread.
  virtual void ReleaseAll() {}

  // True while the conversation holds state that closing it would lose
  // (open sessions, standing queries). Server::Stop waits for such
  // connections and closes the others at once. Safe from any thread.
  virtual bool HoldsState() const { return false; }
};

}  // namespace xsq::net

#endif  // XSQ_NET_HANDLER_H_
