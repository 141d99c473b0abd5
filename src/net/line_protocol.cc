#include "net/line_protocol.h"

#include <optional>
#include <vector>

#include "common/strings.h"
#include "net/client.h"
#include "net/verbs.h"

namespace xsq::net {

namespace {

using service::SessionId;

// "OK <events> <bytes>": the reply to a verb that stored or sent a tape.
std::string TapeOk(const tape::Tape& tape) {
  return "OK " + std::to_string(tape.event_count()) + " " +
         std::to_string(tape.memory_bytes());
}

}  // namespace

std::string LineProtocol::Unescape(std::string_view text) {
  return LineUnescape(text);
}

std::string LineProtocol::Escape(std::string_view text) {
  return LineEscape(text);
}

std::string LineProtocol::OversizedLineReply(size_t max_line_bytes) {
  return "ERR LimitExceeded: line exceeds --max-line-bytes=" +
         std::to_string(max_line_bytes) + "; command discarded";
}

void LineProtocol::PrintItems(std::string* out, SessionId id) const {
  for (const std::string& item : service_->Drain(id)) {
    Reply(out, "ITEM " + Escape(item));
  }
}

void LineProtocol::PrintResults(std::string* out, SessionId id,
                                const Status& status) const {
  PrintItems(out, id);
  if (!status.ok()) return;
  if (std::optional<double> agg = service_->FinalAggregate(id)) {
    Reply(out, "AGG " + std::to_string(*agg));
  }
}

size_t LineProtocol::CancelAll() {
  std::lock_guard<std::mutex> lock(mu_);
  size_t cancelled = 0;
  for (SessionId id : owned_) {
    if (service_->CancelSession(id).ok()) ++cancelled;
  }
  return cancelled;
}

void LineProtocol::SetEventSink(EventSink sink) {
  std::lock_guard<std::mutex> lock(mu_);
  event_sink_ = std::move(sink);
}

Result<uint64_t> LineProtocol::EnsureSubscriberLocked() {
  if (subscriber_id_ != 0) return subscriber_id_;
  if (!event_sink_) {
    return Status::NotSupported(
        "this transport cannot deliver EVENT frames");
  }
  XSQ_ASSIGN_OR_RETURN(uint64_t id, service_->AddSubscriber(event_sink_));
  subscriber_id_ = id;
  return id;
}

void LineProtocol::ReleaseAll() {
  uint64_t subscriber = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (SessionId id : owned_) {
      service_->Release(id);
    }
    owned_.clear();
    subscriber = subscriber_id_;
    subscriber_id_ = 0;
  }
  // Outside mu_: RemoveSubscriber blocks until no dispatcher is
  // mid-delivery to this connection's sink.
  if (subscriber != 0) service_->RemoveSubscriber(subscriber);
}

bool LineProtocol::HoldsState() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !owned_.empty() || subscriber_id_ != 0;
}

bool LineProtocol::HandleLine(std::string_view input, std::string* out) {
  if (!input.empty() && input.back() == '\r') input.remove_suffix(1);
  std::string_view rest = input;
  const VerbSpec* verb = ResolveVerb(&rest, VerbHost::kShardOnly, out);
  if (verb == nullptr) return true;

  switch (verb->verb) {
    case Verb::kQuit:
      Reply(out, "OK");
      return false;
    case Verb::kOpen: {
      auto id = service_->OpenSession(rest);
      if (id.ok()) {
        {
          std::lock_guard<std::mutex> lock(mu_);
          owned_.insert(*id);
        }
        Reply(out, "OK " + std::to_string(*id));
      } else {
        ReplyStatus(out, id.status());
      }
      break;
    }
    case Verb::kPush: {
      std::optional<SessionId> id = TakeSessionId(&rest, out);
      if (id.has_value()) {
        ReplyStatus(out, service_->Push(*id, Unescape(rest)));
      }
      break;
    }
    case Verb::kDrain: {
      std::optional<SessionId> id = TakeSessionId(&rest, out);
      if (!id.has_value()) break;
      if (!service_->HasSession(*id)) {
        Reply(out, "ERR InvalidArgument: unknown session id " +
                       std::to_string(*id));
      } else {
        PrintItems(out, *id);
        Reply(out, "OK");
      }
      break;
    }
    case Verb::kClose: {
      std::optional<SessionId> id = TakeSessionId(&rest, out);
      if (!id.has_value()) break;
      Status status = service_->Close(*id);
      PrintResults(out, *id, status);
      service_->Release(*id);
      {
        std::lock_guard<std::mutex> lock(mu_);
        owned_.erase(*id);
      }
      ReplyStatus(out, status);
      break;
    }
    case Verb::kRecord: {
      std::string_view name = TakeDocumentName(&rest, out);
      if (name.empty()) break;
      auto tape = service_->RecordDocument(name, Unescape(rest));
      if (tape.ok()) {
        Reply(out, TapeOk(**tape));
      } else {
        ReplyStatus(out, tape.status());
      }
      break;
    }
    case Verb::kRunCached: {
      std::optional<SessionId> id = TakeSessionId(&rest, out);
      if (!id.has_value()) break;
      std::string_view name = TakeDocumentName(&rest, out);
      if (name.empty()) break;
      Status status = service_->RunCached(*id, name);
      PrintResults(out, *id, status);
      ReplyStatus(out, status);
      break;
    }
    case Verb::kCancel: {
      std::optional<SessionId> id = TakeSessionId(&rest, out);
      if (id.has_value()) ReplyStatus(out, service_->CancelSession(*id));
      break;
    }
    case Verb::kEvict: {
      std::string_view name = TakeDocumentName(&rest, out);
      if (!name.empty()) ReplyStatus(out, service_->EvictDocument(name));
      break;
    }
    case Verb::kReplPull: {
      std::string_view name = TakeDocumentName(&rest, out);
      if (name.empty()) break;
      std::string_view source = TakeWord(&rest);
      if (source.empty()) {
        // Serve mode: stream the resident tape to the requesting peer.
        const size_t max_tape = service_->config().max_tape_bytes;
        auto tape = service_->ServeTape(name);
        if (!tape.ok()) {
          ReplyStatus(out, tape.status());
        } else {
          std::string bytes = (*tape)->Serialize();
          if (max_tape != 0 && bytes.size() > max_tape) {
            // Refuse at the source too: a transfer the puller would
            // reject anyway should not ship the bytes across shards.
            Reply(out, "ERR LimitExceeded: tape '" + std::string(name) +
                           "' is " + std::to_string(bytes.size()) +
                           " bytes, over the " + std::to_string(max_tape) +
                           "-byte replication transfer cap");
          } else {
            Reply(out, "TAPE " + Escape(bytes));
            Reply(out, TapeOk(**tape));
          }
        }
      } else {
        // Pull mode: fetch the tape FROM the named peer and install it,
        // bounded by the transfer deadline and the tape byte cap. The cap
        // is checked before IngestTape touches the cache, so an oversized
        // transfer fails clean — never a half-installed tape.
        std::optional<Endpoint> source_endpoint = ParseEndpoint(source);
        if (!source_endpoint.has_value()) {
          Reply(out, "ERR InvalidArgument: bad replication source '" +
                         std::string(source) + "' (want HOST:PORT)");
        } else {
          const size_t max_tape = service_->config().max_tape_bytes;
          ClientConfig peer;
          peer.endpoints = {*std::move(source_endpoint)};
          peer.max_retries = 1;  // REPLPULL is idempotent by key
          peer.request_timeout_ms = service_->config().replpull_deadline_ms;
          peer.connect_timeout_ms = service_->config().replpull_deadline_ms;
          Client client(peer);
          Result<Response> pulled =
              client.Request("REPLPULL " + std::string(name));
          if (!pulled.ok()) {
            ReplyStatus(out, pulled.status());
          } else if (!pulled->status.ok()) {
            // The peer answered: relay its error (e.g. not resident).
            ReplyStatus(out, pulled->status);
          } else {
            std::string bytes;
            bool have_tape = false;
            for (const std::string& line : pulled->lines) {
              if (line.rfind("TAPE ", 0) == 0) {
                bytes = Unescape(std::string_view(line).substr(5));
                have_tape = true;
                break;
              }
            }
            if (!have_tape) {
              Reply(out, "ERR DataCorruption: peer reply carried no TAPE "
                         "line");
            } else if (max_tape != 0 && bytes.size() > max_tape) {
              Reply(out, "ERR LimitExceeded: peer tape for '" +
                             std::string(name) + "' is " +
                             std::to_string(bytes.size()) +
                             " bytes, over the " +
                             std::to_string(max_tape) +
                             "-byte replication transfer cap");
            } else {
              auto tape = service_->IngestTape(name, std::move(bytes));
              if (tape.ok()) {
                Reply(out, TapeOk(**tape));
              } else {
                ReplyStatus(out, tape.status());
              }
            }
          }
        }
      }
      break;
    }
    case Verb::kReplStatus: {
      service::StatsSnapshot snap = service_->stats();
      for (const auto& [name, tape] : service_->DocumentInventory()) {
        Reply(out, "DOC " + name + " " +
                       std::to_string(tape->event_count()) + " " +
                       std::to_string(tape->memory_bytes()));
      }
      Reply(out, "OK docs=" + std::to_string(snap.doc_cache_documents) +
                     " serves=" + std::to_string(snap.repl_serves) +
                     " ingests=" + std::to_string(snap.repl_ingests) +
                     " corrupt=" +
                     std::to_string(snap.repl_ingest_corrupt));
      break;
    }
    case Verb::kSubscribe: {
      if (rest.empty()) {
        Reply(out, "ERR InvalidArgument: missing query text");
      } else {
        Result<uint64_t> sub = [&]() -> Result<uint64_t> {
          uint64_t subscriber = 0;
          {
            std::lock_guard<std::mutex> lock(mu_);
            XSQ_ASSIGN_OR_RETURN(subscriber, EnsureSubscriberLocked());
          }
          return service_->Subscribe(subscriber, rest);
        }();
        if (sub.ok()) {
          Reply(out, "OK " + std::to_string(*sub));
        } else {
          ReplyStatus(out, sub.status());
        }
      }
      break;
    }
    case Verb::kUnsubscribe: {
      std::optional<SessionId> id = ParseUint64(TakeWord(&rest));
      if (!id.has_value()) {
        Reply(out, "ERR InvalidArgument: bad subscription id");
      } else {
        uint64_t subscriber = 0;
        {
          std::lock_guard<std::mutex> lock(mu_);
          subscriber = subscriber_id_;
        }
        if (subscriber == 0) {
          Reply(out, "ERR InvalidArgument: unknown subscription id " +
                         std::to_string(*id));
        } else {
          ReplyStatus(out, service_->Unsubscribe(subscriber, *id));
        }
      }
      break;
    }
    case Verb::kPublish: {
      if (rest.empty()) {
        Reply(out, "ERR InvalidArgument: missing document");
      } else {
        auto summary = service_->Publish(Unescape(rest));
        if (summary.ok()) {
          Reply(out, "OK matched=" + std::to_string(summary->deliveries) +
                         " survivors=" +
                         std::to_string(summary->filter_survivors) +
                         " hpdt=" +
                         std::to_string(summary->hpdt_evaluations) +
                         " enqueued=" +
                         std::to_string(summary->frames_enqueued) +
                         " shed=" + std::to_string(summary->frames_shed));
        } else {
          ReplyStatus(out, summary.status());
        }
      }
      break;
    }
    case Verb::kStats:
      ReplyBlock(out, "STAT", service_->stats().ToString());
      break;
    case Verb::kMetrics:
      ReplyBlock(out, "METRIC", service_->MetricsText());
      break;
    case Verb::kGossip:
      break;  // served by routers; ResolveVerb answered
  }
  return true;
}

}  // namespace xsq::net
