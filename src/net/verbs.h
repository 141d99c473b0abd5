// The line protocol's verbs, each declared once, and the pieces of wire
// grammar both dispatchers share: net::LineProtocol on a shard and
// cluster::RouterHandler on the router front tier.
//
// A verb's row gives its wire name, its retry class (how net::Client
// treats a replay after a transport failure) and where it runs. Both
// dispatchers resolve a command through ResolveVerb, so a verb missing
// from the table is "unknown command" everywhere, and a verb the other
// tier serves answers NotSupported.
#ifndef XSQ_NET_VERBS_H_
#define XSQ_NET_VERBS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

// Every verb, declared once: X(enumerator, wire name, retry class,
// where it runs, the state a one-tier verb acts on). The last column
// names that state in the other tier's NotSupported reply; it is empty
// for verbs both tiers serve.
#define XSQ_NET_VERBS(X)                                                    \
  X(kQuit, "QUIT", kNonIdempotent, kShardAndRouter, "")                     \
  X(kOpen, "OPEN", kNonIdempotent, kShardAndRouter, "")                     \
  X(kPush, "PUSH", kNonIdempotent, kShardAndRouter, "")                     \
  X(kDrain, "DRAIN", kNonIdempotent, kShardAndRouter, "")                   \
  X(kClose, "CLOSE", kNonIdempotent, kShardAndRouter, "")                   \
  X(kRecord, "RECORD", kIdempotent, kShardAndRouter, "")                    \
  X(kRunCached, "RUNCACHED", kIdempotent, kShardAndRouter, "")              \
  X(kCancel, "CANCEL", kNonIdempotent, kShardAndRouter, "")                 \
  X(kEvict, "EVICT", kNonIdempotent, kShardAndRouter, "")                   \
  X(kStats, "STATS", kIdempotent, kShardAndRouter, "")                      \
  X(kMetrics, "METRICS", kIdempotent, kShardAndRouter, "")                  \
  X(kReplStatus, "REPLSTATUS", kIdempotent, kShardAndRouter, "")            \
  X(kReplPull, "REPLPULL", kIdempotent, kShardOnly, "tape transfer")        \
  X(kSubscribe, "SUBSCRIBE", kNeverRetry, kShardOnly, "pub/sub")            \
  X(kUnsubscribe, "UNSUBSCRIBE", kNeverRetry, kShardOnly, "pub/sub")        \
  X(kPublish, "PUBLISH", kNeverRetry, kShardOnly, "pub/sub")                \
  X(kGossip, "GOSSIP", kIdempotent, kRouterOnly, "gossip")

namespace xsq::net {

enum class Verb {
#define XSQ_VERB_ENUMERATOR(id, name, retry, host, state) id,
  XSQ_NET_VERBS(XSQ_VERB_ENUMERATOR)
#undef XSQ_VERB_ENUMERATOR
};

// How a verb behaves when its request is replayed after a transport
// failure.
enum class VerbRetryClass {
  // Replaying leaves the server in the same state: safe to auto-retry.
  // RECORD and REPLPULL are idempotent *by key* (re-installing the same
  // name with the same bytes replaces the tape with an identical one);
  // GOSSIP carries a digest whose merge is idempotent.
  kIdempotent,
  // A replay changes state (a retried PUSH feeds the document bytes
  // twice; a retried OPEN leaks a session): the transport error
  // surfaces to the caller, who knows the conversation state.
  kNonIdempotent,
  // A replay is externally visible (a retried PUBLISH double-delivers
  // EVENT frames; a retried SUBSCRIBE registers a duplicate standing
  // query): never auto-retried under any policy.
  kNeverRetry,
};

// Where a verb runs. Standing queries and tape transfer are per-shard
// state the router does not route; gossip is between routers.
enum class VerbHost { kShardAndRouter, kShardOnly, kRouterOnly };

struct VerbSpec {
  Verb verb;
  std::string_view name;
  VerbRetryClass retry_class;
  VerbHost host;
  std::string_view state;
};

inline constexpr VerbSpec kVerbs[] = {
#define XSQ_VERB_SPEC(id, name, retry, host, state) \
  {Verb::id, name, VerbRetryClass::retry, VerbHost::host, state},
    XSQ_NET_VERBS(XSQ_VERB_SPEC)
#undef XSQ_VERB_SPEC
};

// The row whose wire name is `name`; null for an unknown verb.
const VerbSpec* FindVerb(std::string_view name);

// Takes the command word off the front of *line (leaving its
// arguments) and resolves it for the dispatcher on `self`
// (kShardOnly for a shard, kRouterOnly for a router). Returns the row
// when `self` serves the verb. Otherwise appends the reply — "unknown
// command", or NotSupported for a verb only the other tier serves —
// and returns null; a blank line returns null with no reply.
const VerbSpec* ResolveVerb(std::string_view* line, VerbHost self,
                            std::string* out);

// A verb's leading argument: a decimal session id, or a document name.
// When it is malformed or missing they append the error reply and
// return nullopt or an empty name.
std::optional<uint64_t> TakeSessionId(std::string_view* rest,
                                      std::string* out);
std::string_view TakeDocumentName(std::string_view* rest, std::string* out);

// Appends `line` and a newline.
void Reply(std::string* out, std::string_view line);

// "OK", or "ERR <Code>: <message>".
void ReplyStatus(std::string* out, const Status& status);

// One "<tag> <line>" per non-empty line of `text` (STAT and METRIC
// payloads), then "OK".
void ReplyBlock(std::string* out, std::string_view tag,
                std::string_view text);

// The inverse of ReplyBlock on a decoded reply's payload lines: the
// text of every "<tag> " line, newline-terminated.
std::string BlockText(const std::vector<std::string>& lines,
                      std::string_view tag);

}  // namespace xsq::net

#endif  // XSQ_NET_VERBS_H_
