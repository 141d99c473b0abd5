#include "cluster/router.h"

#include <algorithm>
#include <set>

#include "net/verbs.h"

namespace xsq::cluster {

namespace {

using net::Reply;
using net::ReplyStatus;

// Re-emits a decoded backend reply block verbatim: payload lines, then
// the OK/ERR terminator reconstructed from the decoded status.
void RelayReply(std::string* out, const net::Response& response) {
  for (const std::string& line : response.lines) Reply(out, line);
  if (response.status.ok() && !response.ok_payload.empty()) {
    Reply(out, "OK " + response.ok_payload);
  } else {
    ReplyStatus(out, response.status);
  }
}

}  // namespace

template <typename Attempt>
bool Router::WalkOwners(std::string_view key, Attempt attempt) {
  std::vector<bool> mask = AliveMask();
  for (int tries = 0; tries <= kMaxFailoverAttempts; ++tries) {
    std::optional<size_t> owner = map_.Owner(key, mask);
    if (!owner.has_value()) return false;
    if (attempt(*owner)) return true;
    mask[*owner] = false;
    Count(RouterScalar::failovers_total);
  }
  return false;
}

// ---------------------------------------------------------------------
// RouterHandler: one client connection's view of the cluster.

class RouterHandler : public net::ConnectionHandler {
 public:
  explicit RouterHandler(Router* router)
      : router_(router), leases_(router->shard_count()) {}

  ~RouterHandler() override {
    // Leases close here (after the last worker touching them is done);
    // each shard sees a disconnect and cancels + releases everything
    // the lease opened. Registry entries were removed by ReleaseAll.
    leases_.clear();
  }

  bool HandleLine(std::string_view line, std::string* out) override;

  size_t CancelAll() override {
    // Poll-thread context: must not block on the network. Bindings are
    // copied into the router's cancel queue and sent by its
    // maintenance thread over pooled connections (CANCEL works from
    // any connection), which unblocks a worker stuck mid-CLOSE on the
    // lease within one cancel-check interval.
    std::lock_guard<std::mutex> lock(mu_);
    for (uint64_t id : session_ids_) router_->EnqueueCancel(id);
    return session_ids_.size();
  }

  void ReleaseAll() override {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    for (uint64_t id : session_ids_) router_->RemoveSession(id);
    session_ids_.clear();
  }

  bool HoldsState() const override {
    std::lock_guard<std::mutex> lock(mu_);
    return !session_ids_.empty();
  }

 private:
  // The dedicated session connection to `shard`, connected on demand.
  // Worker-thread only (one worker per connection at a time).
  Result<net::Client*> Lease(size_t shard);
  // The lease to `shard` failed at the transport level: the shard saw
  // a disconnect and dropped every session opened on it. Invalidate
  // the RUNCACHED bindings so they reopen on next use.
  void DropLease(size_t shard);

  // The record of session `id` when this connection opened it;
  // otherwise appends the unknown-session reply and returns nullopt.
  std::optional<Router::SessionRecord> OwnedSession(uint64_t id,
                                                    std::string* out) const {
    std::optional<Router::SessionRecord> record;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (session_ids_.count(id) != 0) record = router_->FindSession(id);
    }
    if (!record.has_value()) {
      Reply(out, "ERR InvalidArgument: unknown session id " +
                     std::to_string(id));
    }
    return record;
  }

  void HandleOpen(std::string_view query, std::string* out);
  void HandleForward(uint64_t id, std::string_view verb,
                     std::string_view rest, std::string* out);
  void HandleClose(uint64_t id, std::string* out);
  void HandleRunCached(uint64_t id, std::string_view name, std::string* out);

  Router* router_;
  std::vector<std::unique_ptr<net::Client>> leases_;  // by shard

  mutable std::mutex mu_;  // session_ids_ + released_ (poll thread reads)
  std::set<uint64_t> session_ids_;
  bool released_ = false;
};

Result<net::Client*> RouterHandler::Lease(size_t shard) {
  if (leases_[shard] == nullptr) {
    XSQ_ASSIGN_OR_RETURN(leases_[shard],
                         router_->backend(shard)->LeaseExclusive());
  }
  return leases_[shard].get();
}

void RouterHandler::DropLease(size_t shard) {
  leases_[shard] = nullptr;
  std::vector<uint64_t> ids;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ids.assign(session_ids_.begin(), session_ids_.end());
  }
  for (uint64_t id : ids) {
    std::optional<Router::SessionRecord> record = router_->FindSession(id);
    if (!record.has_value()) continue;
    // Primary bindings stay: the session state is genuinely lost and
    // later PUSH/CLOSE must surface that, not silently reopen.
    if (record->primary_shard != shard) {
      router_->RemoveBinding(id, shard);
    }
  }
}

void RouterHandler::HandleOpen(std::string_view query, std::string* out) {
  Result<size_t> shard = router_->PickSessionShard();
  if (!shard.ok()) {
    ReplyStatus(out, shard.status());
    return;
  }
  Result<net::Client*> lease = Lease(*shard);
  if (!lease.ok()) {
    ReplyStatus(out, lease.status());
    return;
  }
  Result<net::Response> response =
      (*lease)->Request("OPEN " + std::string(query));
  if (!response.ok()) {
    DropLease(*shard);
    ReplyStatus(out, response.status());
    return;
  }
  if (!response->status.ok()) {
    RelayReply(out, *response);
    return;
  }
  uint64_t router_id = router_->RegisterSession(std::string(query), *shard,
                                                response->ok_payload);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (released_) {
      // Torn down while we were opening; the registry entry must not
      // outlive the connection.
      router_->RemoveSession(router_id);
      return;
    }
    session_ids_.insert(router_id);
  }
  router_->Count(RouterScalar::sessions_opened_total);
  Reply(out, "OK " + std::to_string(router_id));
}

void RouterHandler::HandleForward(uint64_t id, std::string_view verb,
                                  std::string_view rest, std::string* out) {
  std::optional<Router::SessionRecord> record = OwnedSession(id, out);
  if (!record.has_value()) return;
  auto binding = record->bindings.find(record->primary_shard);
  if (binding == record->bindings.end()) {
    Reply(out, "ERR Internal: session has no primary binding");
    return;
  }
  Result<net::Client*> lease = Lease(record->primary_shard);
  if (!lease.ok()) {
    ReplyStatus(out, lease.status());
    return;
  }
  std::string wire = std::string(verb) + " " + binding->second;
  if (!rest.empty()) {
    wire += ' ';
    wire.append(rest);
  }
  Result<net::Response> response = (*lease)->Request(wire);
  if (!response.ok()) {
    DropLease(record->primary_shard);
    ReplyStatus(out, response.status());
    return;
  }
  RelayReply(out, *response);
}

void RouterHandler::HandleClose(uint64_t id, std::string* out) {
  std::optional<Router::SessionRecord> record = OwnedSession(id, out);
  if (!record.has_value()) return;
  // Close the RUNCACHED bindings first (their replies are empty-buffer
  // finalizations the client never asked to see), then the primary,
  // whose reply block — items, AGG, terminator — is the client's.
  for (const auto& [shard, backend_id] : record->bindings) {
    if (shard == record->primary_shard) continue;
    Result<net::Client*> lease = Lease(shard);
    if (!lease.ok()) continue;
    Result<net::Response> discard =
        (*lease)->Request("CLOSE " + backend_id);
    if (!discard.ok()) DropLease(shard);
  }
  auto primary = record->bindings.find(record->primary_shard);
  if (primary == record->bindings.end()) {
    Reply(out, "ERR Internal: session has no primary binding");
    return;
  }
  Result<net::Client*> lease = Lease(record->primary_shard);
  if (!lease.ok()) {
    router_->RemoveSession(id);
    {
      std::lock_guard<std::mutex> lock(mu_);
      session_ids_.erase(id);
    }
    ReplyStatus(out, lease.status());
    return;
  }
  Result<net::Response> response =
      (*lease)->Request("CLOSE " + primary->second);
  router_->RemoveSession(id);
  {
    std::lock_guard<std::mutex> lock(mu_);
    session_ids_.erase(id);
  }
  if (!response.ok()) {
    DropLease(record->primary_shard);
    ReplyStatus(out, response.status());
    return;
  }
  RelayReply(out, *response);
}

void RouterHandler::HandleRunCached(uint64_t id, std::string_view name,
                                    std::string* out) {
  if (!OwnedSession(id, out).has_value()) return;
  // RUNCACHED is idempotent: fail over across ring owners on transport
  // failure. An ERR reply (e.g. document not resident after a remap)
  // is relayed — the client re-RECORDs and retries, exactly as against
  // a single node that lost its cache. With rf >= 2 there is one more
  // failover trigger: a NotFound miss from one owner, because the next
  // ring owner holds a replica of the tape.
  Status last = Status::ResourceExhausted("no live shard owns '" +
                                          std::string(name) + "'");
  std::optional<net::Response> missed;   // first miss reply, relayed
                                         // verbatim if every owner misses
  std::vector<size_t> missed_shards;     // read-repair targets
  // An attempt returns true once it has appended the client's reply.
  bool replied = router_->WalkOwners(name, [&](size_t owner) {
    std::optional<Router::SessionRecord> record = OwnedSession(id, out);
    if (!record.has_value()) return true;
    Result<net::Client*> lease = Lease(owner);
    if (!lease.ok()) {
      last = lease.status();
      return false;
    }
    // Bind this session on the owner shard if it is not yet there.
    std::string backend_id;
    auto binding = record->bindings.find(owner);
    if (binding != record->bindings.end()) {
      backend_id = binding->second;
    } else {
      Result<net::Response> opened =
          (*lease)->Request("OPEN " + record->query);
      if (!opened.ok()) {
        DropLease(owner);
        last = opened.status();
        return false;
      }
      if (!opened->status.ok()) {
        RelayReply(out, *opened);  // shard answered: not a failover case
        return true;
      }
      backend_id = opened->ok_payload;
      router_->AddBinding(id, owner, backend_id);
    }
    Result<net::Response> response =
        (*lease)->Request("RUNCACHED " + backend_id + " " +
                          std::string(name));
    if (!response.ok()) {
      DropLease(owner);
      router_->RemoveBinding(id, owner);
      last = response.status();
      return false;
    }
    if (router_->replication_factor() >= 2 &&
        response->status.code() == StatusCode::kNotFound) {
      // Replica failover: this owner lost (or never received) the
      // tape; the next owner in walk order has a copy. Keep the miss
      // reply so an all-owners miss relays it byte-identically.
      if (!missed.has_value()) missed = *response;
      missed_shards.push_back(owner);
      return false;
    }
    if (response->status.ok() && !missed_shards.empty()) {
      // Read repair: the replica that served is the freshest live
      // holder; push its copy back to the owners that missed.
      for (size_t shard : missed_shards) {
        router_->replicator()->EnqueueRepair(
            name, shard, router_->backend(owner)->address());
      }
    }
    // The replay (successful or not) ran on the owner shard's backend
    // session, so that is where the session's document state now lives.
    // Re-home the primary so a later CLOSE finalizes there instead of
    // closing a never-pushed session on the original shard.
    router_->PromotePrimary(id, owner);
    RelayReply(out, *response);
    return true;
  });
  if (replied) return;
  if (missed.has_value()) {
    // Every reachable owner missed: the cluster genuinely does not
    // hold the tape. Same reply a single node would give.
    RelayReply(out, *missed);
    return;
  }
  ReplyStatus(out, last);
}

bool RouterHandler::HandleLine(std::string_view input, std::string* out) {
  if (!input.empty() && input.back() == '\r') input.remove_suffix(1);
  router_->Count(RouterScalar::requests_total);
  std::string_view rest = input;
  const net::VerbSpec* verb =
      net::ResolveVerb(&rest, net::VerbHost::kRouterOnly, out);
  if (verb == nullptr) return true;

  switch (verb->verb) {
    case net::Verb::kQuit:
      Reply(out, "OK");
      return false;
    case net::Verb::kOpen:
      HandleOpen(rest, out);
      break;
    case net::Verb::kPush:
    case net::Verb::kDrain: {
      std::optional<uint64_t> id = net::TakeSessionId(&rest, out);
      if (id.has_value()) HandleForward(*id, verb->name, rest, out);
      break;
    }
    case net::Verb::kClose: {
      std::optional<uint64_t> id = net::TakeSessionId(&rest, out);
      if (id.has_value()) HandleClose(*id, out);
      break;
    }
    case net::Verb::kRunCached: {
      std::optional<uint64_t> id = net::TakeSessionId(&rest, out);
      if (!id.has_value()) break;
      std::string_view name = net::TakeDocumentName(&rest, out);
      if (!name.empty()) HandleRunCached(*id, name, out);
      break;
    }
    case net::Verb::kCancel: {
      // Cross-connection by design, like single-node CANCEL: routed
      // over pooled connections, not this connection's leases.
      std::optional<uint64_t> id = net::TakeSessionId(&rest, out);
      if (id.has_value()) ReplyStatus(out, router_->CancelSession(*id));
      break;
    }
    case net::Verb::kRecord: {
      std::string_view name = net::TakeDocumentName(&rest, out);
      if (name.empty()) break;
      // The primary write is synchronous (the client's ACK means the
      // owner holds the tape); replica copies ride the replication
      // queue, which buffers the full RECORD line so the window
      // between ACK and fan-out survives a primary crash.
      size_t answered = 0;
      Result<net::Response> response =
          router_->OwnerRequest(name, input, &answered);
      if (!response.ok()) {
        ReplyStatus(out, response.status());
        break;
      }
      if (response->status.ok() && router_->replication_factor() >= 2) {
        std::vector<size_t> owners = router_->shard_map().Owners(
            name, router_->replication_factor(), router_->AliveMask());
        for (size_t owner : owners) {
          if (owner == answered) continue;
          router_->replicator()->EnqueueFanout(name, owner, input);
        }
      }
      RelayReply(out, *response);
      break;
    }
    case net::Verb::kEvict: {
      std::string_view name = net::TakeDocumentName(&rest, out);
      if (name.empty()) break;
      // Every live owner may hold a copy (one owner at rf=1): evict
      // them all and relay the first definitive answer (a miss
      // everywhere relays the miss). Non-idempotent: no failover.
      std::vector<size_t> owners = router_->shard_map().Owners(
          name, router_->replication_factor(), router_->AliveMask());
      if (owners.empty()) {
        Reply(out, "ERR ResourceExhausted: no live shards");
        break;
      }
      std::optional<net::Response> best;
      Status transport = Status::OK();
      for (size_t owner : owners) {
        Result<net::Response> response =
            router_->backend(owner)->Request(input);
        if (!response.ok()) {
          transport = response.status();
          continue;
        }
        if (!best.has_value() ||
            (!best->status.ok() && response->status.ok())) {
          best = std::move(*response);
        }
      }
      if (best.has_value()) {
        RelayReply(out, *best);
      } else {
        ReplyStatus(out, transport);
      }
      break;
    }
    case net::Verb::kGossip:
      if (router_->gossip() == nullptr) {
        Reply(out, "ERR NotSupported: gossip is not enabled on this "
                       "router (start it with --peers)");
      } else if (rest.empty()) {
        Reply(out, "ERR InvalidArgument: missing gossip digest");
      } else {
        Result<GossipAgent::ExchangeReply> merged =
            router_->gossip()->HandleExchange(rest);
        if (!merged.ok()) {
          ReplyStatus(out, merged.status());
        } else {
          Reply(out, "DIGEST " + merged->wire);
          Reply(out, "OK adopted=" + std::to_string(merged->adopted));
        }
      }
      break;
    case net::Verb::kReplStatus: {
      // keys= counts the distinct documents the live shards hold.
      size_t keys = router_->replicator()->Inventory().size();
      Replicator::Counters repl = router_->replicator()->counters();
      Reply(out,
            "REPL factor=" +
                std::to_string(router_->replication_factor()) +
                " keys=" + std::to_string(keys) +
                " pending=" + std::to_string(repl.pending) +
                " repaired=" + std::to_string(repl.repaired) +
                " failed=" + std::to_string(repl.failed) +
                " fanouts=" + std::to_string(repl.fanouts) +
                " sweeps=" + std::to_string(repl.sweeps));
      Reply(out, "OK");
      break;
    }
    case net::Verb::kStats:
      net::ReplyBlock(out, "STAT", router_->ClusterStats().ToString());
      break;
    case net::Verb::kMetrics:
      net::ReplyBlock(out, "METRIC", router_->MetricsText());
      break;
    case net::Verb::kReplPull:
    case net::Verb::kSubscribe:
    case net::Verb::kUnsubscribe:
    case net::Verb::kPublish:
      break;  // shard-only: ResolveVerb answered NotSupported
  }
  return true;
}

// ---------------------------------------------------------------------
// Router.

Router::Router(RouterConfig config)
    : config_(std::move(config)),
      map_(config_.shards.size(), config_.vnodes) {}

Result<std::unique_ptr<Router>> Router::Create(RouterConfig config) {
  if (config.shards.empty()) {
    return Status::InvalidArgument("router needs at least one shard");
  }
  std::unique_ptr<Router> router(new Router(std::move(config)));
  std::vector<Backend*> raw;
  for (size_t i = 0; i < router->config_.shards.size(); ++i) {
    obs::Histogram* latency = router->registry_.GetOrCreateHistogram(
        "xsq_router_backend_request_us",
        "wall micros per pooled backend request",
        "shard=\"" + std::to_string(i) + "\"");
    BackendConfig backend = router->config_.backend;
    backend.retry_seed += i * 0x1000003ull;
    router->backends_.push_back(std::make_unique<Backend>(
        router->config_.shards[i], backend, latency));
    raw.push_back(router->backends_.back().get());
  }
  if (router->config_.replication.factor > router->backends_.size()) {
    return Status::InvalidArgument(
        "replication factor " +
        std::to_string(router->config_.replication.factor) + " exceeds " +
        std::to_string(router->backends_.size()) + " shards");
  }
  std::vector<Backend*> repl_raw = raw;
  router->prober_ =
      std::make_unique<HealthProber>(std::move(raw), router->config_.probe);
  router->replicator_ = std::make_unique<Replicator>(
      &router->map_, std::move(repl_raw), router->config_.replication);
  if (router->config_.replication.factor >= 2) {
    // Anti-entropy rides the health cadence: any probe pass that
    // changed the liveness mask schedules a sweep (including the first
    // pass, which repairs whatever a router restart forgot).
    router->prober_->set_on_pass(
        [replicator = router->replicator_.get()](bool mask_changed) {
          if (mask_changed) replicator->RequestSweep();
        });
  }
  if (router->config_.gossip.enable || !router->config_.gossip.peers.empty()) {
    std::vector<Backend*> gossip_raw;
    for (auto& backend : router->backends_) gossip_raw.push_back(backend.get());
    router->gossip_ = std::make_unique<GossipAgent>(std::move(gossip_raw),
                                                     router->config_.gossip);
    // Locally observed health transitions flow through the digest so
    // each one gets an epoch and propagates; the agent applies the
    // Backend flag itself.
    router->prober_->set_apply(
        [agent = router->gossip_.get()](size_t shard, ShardHealth health) {
          agent->LocalObservation(shard, health);
        });
    if (router->config_.gossip.start) router->gossip_->Start();
  }
  if (router->config_.start_prober) router->prober_->Start();
  router->cancel_thread_ = std::thread([raw_router = router.get()] {
    raw_router->CancelLoop();
  });
  return router;
}

Router::~Router() {
  if (prober_ != nullptr) prober_->Stop();  // before its apply/sweep callbacks die
  if (gossip_ != nullptr) gossip_->Stop();
  if (replicator_ != nullptr) replicator_->Stop();
  {
    std::lock_guard<std::mutex> lock(cancel_mu_);
    cancel_stopping_ = true;
  }
  cancel_cv_.notify_all();
  if (cancel_thread_.joinable()) cancel_thread_.join();
}

std::unique_ptr<net::ConnectionHandler> Router::MakeHandler() {
  return std::make_unique<RouterHandler>(this);
}

net::ServerApp Router::MakeServerApp() {
  net::ServerApp app;
  app.make_handler = [this] { return MakeHandler(); };
  app.metrics_text = [this] { return MetricsText(); };
  // The router itself has no session table to saturate; each shard
  // applies its own admission control and the reply propagates.
  app.saturated = nullptr;
  app.stats = &net_stats_;
  return app;
}

std::vector<bool> Router::AliveMask() const {
  std::vector<bool> mask(backends_.size());
  for (size_t i = 0; i < backends_.size(); ++i) mask[i] = backends_[i]->alive();
  return mask;
}

std::vector<bool> Router::ServingMask() const {
  std::vector<bool> mask(backends_.size());
  for (size_t i = 0; i < backends_.size(); ++i) {
    mask[i] = backends_[i]->serving();
  }
  return mask;
}

Result<size_t> Router::PickSessionShard() const {
  size_t best = backends_.size();
  size_t best_outstanding = 0;
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (!backends_[i]->serving()) continue;
    size_t outstanding = backends_[i]->outstanding();
    if (best == backends_.size() || outstanding < best_outstanding) {
      best = i;
      best_outstanding = outstanding;
    }
  }
  if (best == backends_.size()) {
    return Status::ResourceExhausted("no serving shards for a new session");
  }
  return best;
}

std::optional<size_t> Router::OwnerOf(std::string_view key) const {
  return map_.Owner(key, AliveMask());
}

Result<net::Response> Router::OwnerRequest(std::string_view key,
                                           std::string_view line,
                                           size_t* shard_out) {
  Result<net::Response> response = Status::ResourceExhausted(
      "no live shard owns '" + std::string(key) + "'");
  WalkOwners(key, [&](size_t owner) {
    // A transport failure (connect refused, deadline, circuit open)
    // makes this shard suspect right now, whatever the prober last
    // said, so the walk moves on to the next owner.
    response = backends_[owner]->Request(line);
    if (response.ok() && shard_out != nullptr) *shard_out = owner;
    return response.ok();
  });
  return response;
}

service::StatsSnapshot Router::ClusterStats() {
  service::StatsSnapshot merged;
  for (size_t i = 0; i < backends_.size(); ++i) {
    if (!backends_[i]->alive()) {
      Count(RouterScalar::scatter_failures_total);
      continue;
    }
    Result<net::Response> response = backends_[i]->Request("STATS");
    if (!response.ok() || !response->status.ok()) {
      Count(RouterScalar::scatter_failures_total);
      continue;
    }
    Result<service::StatsSnapshot> snap = service::StatsSnapshot::Parse(
        net::BlockText(response->lines, "STAT"));
    if (!snap.ok()) {
      Count(RouterScalar::scatter_failures_total);
      continue;
    }
    merged.Merge(*snap);
  }
  return merged;
}

obs::Exposition Router::ClusterMetrics() {
  obs::Exposition merged;
  for (size_t i = 0; i < backends_.size(); ++i) {
    std::string text;
    bool live = false;
    if (backends_[i]->alive()) {
      Result<net::Response> response = backends_[i]->Request("METRICS");
      if (response.ok() && response->status.ok()) {
        text = net::BlockText(response->lines, "METRIC");
        live = true;
      }
    }
    if (!live) {
      // Stale-but-present beats absent for a dashboard mid-incident.
      text = prober_->last_metrics(i);
      if (text.empty()) {
        Count(RouterScalar::scatter_failures_total);
        continue;
      }
    }
    Result<obs::Exposition> parsed = obs::Exposition::Parse(text);
    if (!parsed.ok()) {
      Count(RouterScalar::scatter_failures_total);
      continue;
    }
    merged.MergeFrom(*parsed, service::MetricMergeRule);
  }
  return merged;
}

std::string Router::MetricsText() {
  obs::Exposition doc = ClusterMetrics();
  // The router's own section after the merged shard families, under
  // distinct xsq_router_* names so the two never collide.
  OwnCounters own = own_counters();
#define XSQ_ROUTER_RENDER(field, kind) \
  doc.AddScalar("xsq_router_" #field, obs::ScalarKind::kind, own.field);
  XSQ_ROUTER_SCALARS(XSQ_ROUTER_RENDER)
#undef XSQ_ROUTER_RENDER
  obs::Exposition histograms = registry_.Snapshot();
  for (const obs::ExpositionSeries& series : histograms.series()) {
    doc.Add(series);
  }
  return doc.Render();
}

uint64_t Router::RegisterSession(std::string query, size_t shard,
                                 std::string backend_id) {
  uint64_t id = next_session_id_.fetch_add(1, std::memory_order_relaxed);
  SessionRecord record;
  record.query = std::move(query);
  record.primary_shard = shard;
  record.bindings.emplace(shard, std::move(backend_id));
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.emplace(id, std::move(record));
  return id;
}

std::optional<Router::SessionRecord> Router::FindSession(
    uint64_t router_id) const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(router_id);
  if (it == sessions_.end()) return std::nullopt;
  return it->second;
}

void Router::AddBinding(uint64_t router_id, size_t shard,
                        std::string backend_id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(router_id);
  if (it != sessions_.end()) {
    it->second.bindings[shard] = std::move(backend_id);
  }
}

void Router::RemoveBinding(uint64_t router_id, size_t shard) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(router_id);
  if (it != sessions_.end()) it->second.bindings.erase(shard);
}

void Router::PromotePrimary(uint64_t router_id, size_t shard) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto it = sessions_.find(router_id);
  if (it != sessions_.end()) it->second.primary_shard = shard;
}

void Router::RemoveSession(uint64_t router_id) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  sessions_.erase(router_id);
}

Status Router::CancelSession(uint64_t router_id) {
  std::optional<SessionRecord> record = FindSession(router_id);
  if (!record.has_value()) {
    return Status::InvalidArgument("unknown session id " +
                                   std::to_string(router_id));
  }
  Status last = Status::OK();
  for (const auto& [shard, backend_id] : record->bindings) {
    Result<net::Response> response =
        backends_[shard]->Request("CANCEL " + backend_id);
    if (!response.ok()) {
      last = response.status();
    } else if (!response->status.ok()) {
      last = response->status;
    }
  }
  return last;
}

void Router::EnqueueCancel(uint64_t router_id) {
  std::optional<SessionRecord> record = FindSession(router_id);
  if (!record.has_value() || record->bindings.empty()) return;
  std::vector<std::pair<size_t, std::string>> bindings;
  bindings.reserve(record->bindings.size());
  for (const auto& [shard, backend_id] : record->bindings) {
    bindings.emplace_back(shard, backend_id);
  }
  {
    std::lock_guard<std::mutex> lock(cancel_mu_);
    cancel_queue_.push_back(std::move(bindings));
  }
  Count(RouterScalar::cancels_enqueued_total);
  cancel_cv_.notify_one();
}

void Router::CancelLoop() {
  std::unique_lock<std::mutex> lock(cancel_mu_);
  for (;;) {
    cancel_cv_.wait(lock, [this] {
      return cancel_stopping_ || !cancel_queue_.empty();
    });
    if (cancel_queue_.empty()) {
      if (cancel_stopping_) return;
      continue;
    }
    std::vector<std::pair<size_t, std::string>> bindings =
        std::move(cancel_queue_.front());
    cancel_queue_.pop_front();
    lock.unlock();
    for (const auto& [shard, backend_id] : bindings) {
      // Best effort: the lease closing right after will release the
      // session anyway; this just makes a blocked evaluation stop
      // within one cancel-check interval instead of running out.
      (void)backends_[shard]->Request("CANCEL " + backend_id);
    }
    lock.lock();
  }
}

Router::OwnCounters Router::own_counters() const {
  OwnCounters out;
#define XSQ_ROUTER_LOAD(field, kind)                                     \
  out.field = counts_[static_cast<size_t>(RouterScalar::field)].load(    \
      std::memory_order_relaxed);
  XSQ_ROUTER_SCALARS(XSQ_ROUTER_LOAD)
#undef XSQ_ROUTER_LOAD
  // The rows the router does not count itself, read from their owners.
  Replicator::Counters repl = replicator_->counters();
  out.repl_pending = repl.pending;
  out.repl_repaired_total = repl.repaired;
  out.repl_failed_total = repl.failed;
  out.repl_fanouts_total = repl.fanouts;
  out.repl_sweeps_total = repl.sweeps;
  // Gossip rows render even with gossip off (all zeros) so dashboards
  // and smoke greps see a stable metric set.
  GossipAgent::Counters gossip;
  if (gossip_ != nullptr) gossip = gossip_->counters();
  out.gossip_rounds_total = gossip.rounds;
  out.gossip_merges_total = gossip.merges;
  out.gossip_peer_down_total = gossip.peer_down;
  out.gossip_peers_down = gossip.peers_down;
  for (const std::unique_ptr<Backend>& backend : backends_) {
    if (backend->serving()) ++out.shards_serving;
    if (!backend->alive()) ++out.shards_dead;
    out.breaker_opens_total += backend->counters().breaker_opens;
  }
  service::StatsSnapshot net = net_stats_.Snapshot();
  out.connections_accepted = net.connections_accepted;
  out.connections_shed = net.connections_shed;
  out.disconnect_cancels = net.disconnect_cancels;
  out.net_idle_closed = net.net_idle_closed;
  out.net_overrun_closed = net.net_overrun_closed;
  return out;
}

}  // namespace xsq::cluster
