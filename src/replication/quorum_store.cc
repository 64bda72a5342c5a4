#include "replication/quorum_store.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"

namespace evc::repl {

namespace {
constexpr char kClientPut[] = "dyn.put";
constexpr char kClientGet[] = "dyn.get";
constexpr char kStore[] = "dyn.store";
constexpr char kRead[] = "dyn.read";
constexpr char kMigrate[] = "dyn.migrate";
constexpr char kHint[] = "dyn.hint";
// Must match the ResilientRpc heartbeat method so admission classifies ping
// probes as control traffic (never queued: overload must not read as death).
constexpr char kPing[] = "rsl.ping";
// Sentinel for "no hinted handoff target" (NodeId 0 is a valid node).
constexpr sim::NodeId kNoHint = UINT32_MAX;
// Keys per migration-stream RPC: small enough to interleave with traffic,
// large enough that catch-up converges in a few round trips.
constexpr size_t kMigrateChunkKeys = 16;
// Retry pause for failed migration chunks and unacked catch-up reports.
constexpr sim::Time kMigrateRetryPause = 500 * sim::kMillisecond;
// Per-attempt timeout of every quorum leg, hint and migration RPC.
constexpr sim::Time kRpcTimeout = 250 * sim::kMillisecond;
// Overall deadline of a client op, in kRpcTimeout multiples.
constexpr int kClientDeadlineBudget = 4;
// Elastic mode: period of each server's view-refresh pull from the config
// service (push broadcasts cover the common case; the pull covers servers
// that were crashed or partitioned during the push).
constexpr sim::Time kViewRefreshInterval = 2 * sim::kSecond;
// Background senders (hint delivery, migration streaming) yield when the
// destination's piggybacked load signal reaches this percent (0..100; values
// above 50 mean its admission queue has started to fill).
constexpr uint32_t kBackgroundYieldLoad = 75;
// Every fan-out leg (quorum write and read legs, hint handoffs): a single
// attempt that, like every call, feeds the sender's detector/breaker, but does
// not consult the breaker — the quorum math already tolerates missing acks,
// and WriteTargets skipped unusable peers up front. Nor may the retry budget
// or AIMD limit starve a leg: that would turn overload into quorum loss.
constexpr resilience::CallOptions kFanOutLeg = {.attempt_timeout = kRpcTimeout,
                                                .max_attempts = 1,
                                                .respect_breaker = false,
                                                .respect_limits = false};

bool Contains(const std::vector<sim::NodeId>& nodes, sim::NodeId node) {
  return std::find(nodes.begin(), nodes.end(), node) != nodes.end();
}

// Seed stream for per-node ResilientRpc instances. Derived from the node id
// (not the simulator rng) so adding the resilience layer does not perturb
// any pre-existing component's random stream.
uint64_t ResilienceSeed(sim::NodeId node) {
  return 0xd06f00dULL ^ (uint64_t{node} + 1) * 0x9e3779b97f4a7c15ULL;
}
}  // namespace

DynamoCluster::DynamoCluster(sim::Rpc* rpc, QuorumConfig config)
    : rpc_(rpc), config_(config) {
  EVC_CHECK(rpc_ != nullptr);
  m_client_put_ = rpc_->InternMethod(kClientPut);
  m_client_get_ = rpc_->InternMethod(kClientGet);
  m_store_ = rpc_->InternMethod(kStore);
  m_read_ = rpc_->InternMethod(kRead);
  m_migrate_ = rpc_->InternMethod(kMigrate);
  m_hint_ = rpc_->InternMethod(kHint);
  EVC_CHECK(config_.replication_factor >= 1);
  EVC_CHECK(config_.read_quorum >= 1 &&
            config_.read_quorum <= config_.replication_factor);
  EVC_CHECK(config_.write_quorum >= 1 &&
            config_.write_quorum <= config_.replication_factor);
}

DynamoCluster::~DynamoCluster() = default;

DynamoCluster::Server* DynamoCluster::CreateServer() {
  auto server = std::make_unique<Server>();
  server->node = rpc_->network()->AddNode();
  server->replica_id = static_cast<uint32_t>(servers_.size());
  server->storage = std::make_unique<ReplicaStorage>(server->replica_id,
                                                     config_.storage);
  server->clock = LamportClock(server->replica_id);
  server->resilient = std::make_unique<resilience::ResilientRpc>(
      rpc_, server->node, config_.resilience, ResilienceSeed(server->node));
  if (config_.admission_enabled) {
    server->admission = std::make_unique<resilience::AdmissionQueue>(
        rpc_, server->node, config_.admission);
    server->admission->SetPriority(rpc_->InternMethod(kPing),
                                   resilience::AdmissionPriority::kControl);
    server->admission->SetPriority(m_hint_,
                                   resilience::AdmissionPriority::kBackground);
    server->admission->SetPriority(m_migrate_,
                                   resilience::AdmissionPriority::kBackground);
    // Everything else (client ops, store/read quorum legs) defaults to
    // foreground.
  }
  obs::MetricsRegistry& node_obs =
      rpc_->simulator()->metrics().node(server->node);
  server->c_coordinated_gets = &node_obs.CounterFor("dyn.coordinated_gets");
  server->c_coordinated_puts = &node_obs.CounterFor("dyn.coordinated_puts");
  RegisterHandlers(server.get());
  by_node_[server->node] = server.get();
  ResolveInstruments();
  crash_registrar_.Register(rpc_->simulator(), server->node, this);
  servers_.push_back(std::move(server));
  return servers_.back().get();
}

sim::NodeId DynamoCluster::AddServer() {
  // Static membership only: once elastic, joins go through the config
  // service so every node agrees on the epoch the change happens in.
  EVC_CHECK(config_service_ == nullptr);
  const sim::NodeId node = CreateServer()->node;
  // Epoch 0 changed members: its cached ring and walks are stale.
  Placement& static_placement = placements_[0];
  static_placement.members.push_back(node);
  static_placement.ring.reset();
  static_placement.walks.clear();
  return node;
}

std::vector<sim::NodeId> DynamoCluster::AddServers(int count) {
  std::vector<sim::NodeId> nodes;
  nodes.reserve(count);
  for (int i = 0; i < count; ++i) nodes.push_back(AddServer());
  return nodes;
}

DynamoCluster::Server* DynamoCluster::FindServer(sim::NodeId node) {
  auto it = by_node_.find(node);
  return it == by_node_.end() ? nullptr : it->second;
}

obs::MetricsRegistry& DynamoCluster::Obs() {
  return rpc_->simulator()->metrics().global();
}

void DynamoCluster::ResolveInstruments() {
  if (c_puts_ok_ != nullptr) return;
  obs::MetricsRegistry& obs = Obs();
  c_sloppy_diversions_ = &obs.CounterFor("dyn.sloppy_diversions");
  c_hints_stored_ = &obs.CounterFor("dyn.hints_stored");
  c_hints_delivered_ = &obs.CounterFor("dyn.hints_delivered");
  c_hints_lost_ = &obs.CounterFor("dyn.hints_lost");
  c_puts_unavailable_ = &obs.CounterFor("dyn.puts_unavailable");
  c_gets_ok_ = &obs.CounterFor("dyn.gets_ok");
  c_gets_unavailable_ = &obs.CounterFor("dyn.gets_unavailable");
  c_read_repairs_ = &obs.CounterFor("dyn.read_repairs");
  c_stale_epoch_rejects_ = &obs.CounterFor("dyn.stale_epoch_rejects");
  c_view_refreshes_ = &obs.CounterFor("dyn.view_refreshes");
  c_hints_redirected_ = &obs.CounterFor("dyn.hints_redirected");
  c_keys_migrated_ = &obs.CounterFor("dyn.keys_migrated");
  h_put_latency_us_ = &obs.HistogramFor("dyn.put_latency_us");
  h_get_latency_us_ = &obs.HistogramFor("dyn.get_latency_us");
  c_puts_ok_ = &obs.CounterFor("dyn.puts_ok");  // sentinel: assign last
}

ReplicaStorage* DynamoCluster::storage(sim::NodeId server) {
  Server* s = FindServer(server);
  EVC_CHECK(s != nullptr);
  return s->storage.get();
}

resilience::ResilientRpc* DynamoCluster::resilient(sim::NodeId server) {
  Server* s = FindServer(server);
  EVC_CHECK(s != nullptr);
  return s->resilient.get();
}

resilience::AdmissionQueue* DynamoCluster::admission(sim::NodeId server) {
  Server* s = FindServer(server);
  EVC_CHECK(s != nullptr);
  return s->admission.get();
}

bool DynamoCluster::TargetUsable(Server* coordinator,
                                 sim::NodeId candidate) const {
  if (config_.use_oracle_detector) {
    return rpc_->network()->CanCommunicate(coordinator->node, candidate);
  }
  return coordinator->resilient->PeerUsable(candidate);
}

bool DynamoCluster::PeerUsable(sim::NodeId server, sim::NodeId peer) const {
  if (config_.use_oracle_detector) return true;
  auto it = by_node_.find(server);
  if (it == by_node_.end()) return true;
  return it->second->resilient->PeerUsable(peer);
}

void DynamoCluster::StartFailureDetection() {
  if (config_.use_oracle_detector) return;
  detecting_ = true;
  std::vector<sim::NodeId> nodes;
  nodes.reserve(servers_.size());
  for (const auto& server : servers_) nodes.push_back(server->node);
  for (auto& server : servers_) server->resilient->StartHeartbeats(nodes);
}

resilience::ResilientRpc* DynamoCluster::ClientRpc(sim::NodeId client) {
  if (Server* s = FindServer(client)) return s->resilient.get();
  auto it = client_rpcs_.find(client);
  if (it == client_rpcs_.end()) {
    it = client_rpcs_
             .emplace(client, std::make_unique<resilience::ResilientRpc>(
                                  rpc_, client, config_.resilience,
                                  ResilienceSeed(client)))
             .first;
  }
  return it->second.get();
}

std::vector<sim::NodeId> DynamoCluster::PreferenceList(
    const std::string& key) const {
  return PreferenceListAt(committed_epoch(), key);
}

const std::vector<sim::NodeId>& DynamoCluster::RingWalkAt(
    uint64_t epoch, const std::string& key) const {
  auto it = placements_.find(epoch);
  EVC_CHECK(it != placements_.end() && !it->second.members.empty());
  Placement& placement = it->second;
  const std::vector<sim::NodeId>& members = placement.members;
  const KeyId id = keys_.Intern(key);
  if (placement.walks.size() <= id) placement.walks.resize(id + 1);
  std::vector<sim::NodeId>& out = placement.walks[id];
  if (!out.empty()) return out;  // cache hit (membership unchanged)
  if (config_.use_hash_ring) {
    if (!placement.ring.has_value()) {
      placement.ring.emplace(config_.ring_vnodes);
      for (sim::NodeId m : members) placement.ring->AddServer(m);
    }
    out = placement.ring->PreferenceList(key, members.size());
    return out;
  }
  const size_t start = Fnv1a64(key) % members.size();
  out.reserve(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    out.push_back(members[(start + i) % members.size()]);
  }
  return out;
}

std::vector<sim::NodeId> DynamoCluster::PreferenceListAt(
    uint64_t epoch, const std::string& key) const {
  const std::vector<sim::NodeId>& walk = RingWalkAt(epoch, key);
  return std::vector<sim::NodeId>(
      walk.begin(),
      walk.begin() +
          std::min<size_t>(config_.replication_factor, walk.size()));
}

void DynamoCluster::WriteTargets(Server* coordinator, const std::string& key,
                                 std::vector<sim::NodeId>* targets,
                                 std::vector<sim::NodeId>* intended) {
  // Coordinators place under their own committed epoch; receivers fence
  // legs whose epoch differs, so a stale placement can never count toward a
  // quorum.
  const std::vector<sim::NodeId> preferred =
      PreferenceListAt(coordinator->epoch, key);
  targets->clear();
  intended->clear();
  if (!config_.sloppy) {
    *targets = preferred;
    intended->assign(preferred.size(), kNoHint);
    return;
  }
  // Sloppy quorum: walk the ring; replace unreachable preferred nodes with
  // the next reachable nodes, carrying a hint naming the intended home.
  // Reachability is the coordinator's own failure detector (phi-accrual over
  // observed replies) unless use_oracle_detector opts back into the
  // omniscient network oracle.
  const std::vector<sim::NodeId>& ring_walk =
      RingWalkAt(coordinator->epoch, key);
  size_t walk = 0;
  size_t preferred_idx = 0;
  while (targets->size() < preferred.size() && walk < ring_walk.size()) {
    const sim::NodeId candidate = ring_walk[walk];
    ++walk;
    if (Contains(*targets, candidate)) continue;
    if (!TargetUsable(coordinator, candidate)) continue;
    // Is this candidate one of the preferred homes, or a fallback?
    if (Contains(preferred, candidate)) {
      targets->push_back(candidate);
      intended->push_back(kNoHint);
    } else {
      // Fallback substitutes for the next still-missing preferred node.
      while (preferred_idx < preferred.size() &&
             TargetUsable(coordinator, preferred[preferred_idx])) {
        ++preferred_idx;
      }
      if (preferred_idx >= preferred.size()) break;
      targets->push_back(candidate);
      intended->push_back(preferred[preferred_idx]);
      ++preferred_idx;
      ++stats_.sloppy_diversions;
      c_sloppy_diversions_->Inc();
    }
  }
}

void DynamoCluster::RegisterHandlers(Server* server) {
  const sim::NodeId node = server->node;

  rpc_->RegisterHandler(
      node, m_client_put_,
      [this, server](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
        auto put = std::move(req).Take<ClientPutReq>();
        if (Status fenced = CoordinatorFence(server, put.epoch); !fenced.ok()) {
          respond(std::move(fenced));
          return;
        }
        CoordinatePut(server, std::move(put),
                      [respond](Result<Version> r) mutable {
                        if (r.ok()) {
                          respond(std::move(r).value());
                        } else {
                          respond(r.status());
                        }
                      });
      });

  rpc_->RegisterHandler(
      node, m_client_get_,
      [this, server](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
        auto get = std::move(req).Take<ClientGetReq>();
        if (Status fenced = CoordinatorFence(server, get.epoch); !fenced.ok()) {
          respond(std::move(fenced));
          return;
        }
        CoordinateGet(server, std::move(get.key),
                      [respond](Result<ReadResult> r) mutable {
                        if (r.ok()) {
                          respond(std::move(r).value());
                        } else {
                          respond(r.status());
                        }
                      });
      });

  // Shared by m_store_ (quorum legs, read repair) and m_hint_ (handoff
  // delivery): identical semantics, distinct method ids so the admission
  // gate can classify handoffs as background.
  auto store_handler =
      [this, server](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
        auto store = std::move(req).Take<StoreReq>();
        if (!store.cross_epoch) {
          if (Status fenced = ReplicaFence(server, store.epoch); !fenced.ok()) {
            respond(std::move(fenced));
            return;
          }
        }
        if (store.has_hint && store.intended != server->node) {
          // We are a fallback home: buffer for handoff AND serve reads from
          // local storage in the meantime.
          BufferHint(server, store.intended, store.key, store.versions);
        }
        server->storage->MergeRemote(store.key, store.versions);
        respond(StoreAck{server->storage->store().KeyDigest(store.key)});
      };
  rpc_->RegisterHandler(node, m_store_, store_handler);
  rpc_->RegisterHandler(node, m_hint_, store_handler);

  rpc_->RegisterHandler(
      node, m_read_,
      [this, server](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
        auto read = std::move(req).Take<ReadReq>();
        if (Status fenced = ReplicaFence(server, read.epoch); !fenced.ok()) {
          respond(std::move(fenced));
          return;
        }
        ReadReply reply;
        reply.versions = server->storage->GetRaw(read.key);
        reply.digest = server->storage->store().KeyDigest(read.key);
        respond(std::move(reply));
      });

  rpc_->RegisterHandler(
      node, m_migrate_,
      [this, server](sim::NodeId, sim::Payload req, sim::RpcResponder respond) {
        // Inbound migration stream: merge every entry. Version sets are
        // CRDTs, so replaying a chunk (sender retry) is harmless, and the
        // merge is valid at either side of the epoch boundary.
        auto chunk = std::move(req).Take<MigrateChunk>();
        for (const auto& [key, versions] : chunk.entries) {
          server->storage->MergeRemote(key, versions);
        }
        respond(StoreAck{0});
      });
}

// Both fences are inert for a static cluster: every epoch is 0 and no
// server is ever quarantined or departed.
Status DynamoCluster::CoordinatorFence(Server* server, uint64_t client_epoch) {
  // A coordinator that is behind the client's committed epoch must not
  // serve: its placement could ack a quorum the new epoch's readers never
  // intersect. Refresh and make the client retry. (A coordinator AHEAD of
  // the request epoch serves fine — its placement is fresher than the
  // client's routing snapshot.)
  if (client_epoch > server->epoch) {
    ++stats_.stale_epoch_rejects;
    c_stale_epoch_rejects_->Inc();
    RefreshView(server);
    return Status::FailedPrecondition("coordinator view is stale");
  }
  if (server->needs_refresh || server->departed) {
    return Status::Unavailable("coordinator not serving");
  }
  return Status::OK();
}

Status DynamoCluster::ReplicaFence(Server* server, uint64_t leg_epoch) {
  if (leg_epoch == server->epoch) return Status::OK();
  // A quorum-counted leg from a different epoch: either the sender is stale
  // (its retry re-places under the new view) or we are (refresh below).
  // Accepting would let two epochs' quorums miss each other; a stale replica
  // must not contribute to a fresh read quorum either.
  ++stats_.stale_epoch_rejects;
  c_stale_epoch_rejects_->Inc();
  if (leg_epoch > server->epoch) RefreshView(server);
  return Status::FailedPrecondition("epoch mismatch");
}

// Client calls keep the seed's overall 4*kRpcTimeout budget, but spend it as
// two resilient attempts (2*kRpcTimeout each, backoff between) under an
// absolute deadline instead of one long-shot RPC. A retried put is safe: the
// coordinator mints a fresh version whose vector dominates the first mint's
// (same context, higher coordinator counter), so re-execution converges to a
// single sibling rather than duplicating state.
resilience::CallOptions DynamoCluster::ClientCallOptions() const {
  resilience::CallOptions opts;
  opts.attempt_timeout = 2 * kRpcTimeout;
  opts.deadline =
      rpc_->simulator()->Now() + kClientDeadlineBudget * kRpcTimeout;
  opts.max_attempts = config_.client_attempts;
  return opts;
}

void DynamoCluster::Put(sim::NodeId client, sim::NodeId coordinator,
                        const std::string& key, std::string value,
                        const VersionVector& context, PutCallback done) {
  Write(client, coordinator, key, std::move(value), /*is_delete=*/false,
        context, std::move(done));
}

void DynamoCluster::Delete(sim::NodeId client, sim::NodeId coordinator,
                           const std::string& key,
                           const VersionVector& context, PutCallback done) {
  Write(client, coordinator, key, "", /*is_delete=*/true, context,
        std::move(done));
}

void DynamoCluster::Write(sim::NodeId client, sim::NodeId coordinator,
                          const std::string& key, std::string value,
                          bool is_delete, const VersionVector& context,
                          PutCallback done) {
  ClientPutReq req{key, std::move(value), context, is_delete,
                   committed_epoch()};
  ClientRpc(client)->Call(coordinator, m_client_put_, std::move(req),
                          ClientCallOptions(), [done](Result<sim::Payload> r) {
                            if (!r.ok()) {
                              done(r.status());
                            } else {
                              done(std::move(r).value().Take<Version>());
                            }
                          });
}

void DynamoCluster::Get(sim::NodeId client, sim::NodeId coordinator,
                        const std::string& key, GetCallback done) {
  ClientGetReq req{key, committed_epoch()};
  resilience::CallOptions opts = ClientCallOptions();
  if (config_.hedge_reads && servers_.size() > 1) {
    // Race a slow coordinator against the next server; reads are idempotent
    // and both coordinators merge the same replica set, so either reply is
    // a valid quorum read.
    opts.hedge = true;
    for (size_t i = 0; i < servers_.size(); ++i) {
      if (servers_[i]->node == coordinator) {
        opts.hedge_to = servers_[(i + 1) % servers_.size()]->node;
        break;
      }
    }
  }
  ClientRpc(client)->Call(coordinator, m_client_get_, std::move(req), opts,
                          [done](Result<sim::Payload> r) {
                            if (!r.ok()) {
                              done(r.status());
                            } else {
                              done(std::move(r).value().Take<ReadResult>());
                            }
                          });
}

void DynamoCluster::CoordinatePut(Server* coordinator, ClientPutReq req,
                                  PutCallback done) {
  const sim::Time started = rpc_->simulator()->Now();
  coordinator->c_coordinated_puts->Inc();
  // Mint the new version once; every replica stores the identical bytes.
  Version version;
  version.value = std::move(req.value);
  version.tombstone = req.is_delete;
  version.vv = req.context;
  coordinator->coord_counter =
      std::max(coordinator->coord_counter,
               req.context.Get(coordinator->replica_id)) +
      1;
  version.vv.Set(coordinator->replica_id, coordinator->coord_counter);
  version.lww_ts = coordinator->clock.Tick();

  std::vector<sim::NodeId> targets;
  std::vector<sim::NodeId> intended;
  WriteTargets(coordinator, req.key, &targets, &intended);

  // During a prepared (uncommitted) reconfiguration the key's NEW owners
  // must also see every write: once the epoch commits, fresh read quorums
  // draw only from them. These delta legs are required — a leg that fails
  // falls back to a hint for its target, which blocks this server's
  // catch-up report (and therefore the commit) until delivered.
  std::vector<sim::NodeId> extra;
  if (coordinator->prepared.has_value()) {
    for (sim::NodeId n :
         PreferenceListAt(coordinator->prepared->epoch, req.key)) {
      if (!Contains(targets, n)) extra.push_back(n);
    }
  }

  struct PutState {
    int acks = 0;
    int completed = 0;
    int total = 0;
    int required = 0;
    int extra_done = 0;
    int extra_total = 0;
    bool done_fired = false;
  };
  auto state = std::make_shared<PutState>();
  state->total = static_cast<int>(targets.size());
  state->required = std::min(config_.write_quorum, state->total);
  state->extra_total = static_cast<int>(extra.size());

  if (state->total == 0) {
    ++stats_.puts_unavailable;
    c_puts_unavailable_->Inc();
    done(Status::Unavailable("no reachable replicas"));
    return;
  }

  auto maybe_finish = [this, state, done, version, started] {
    if (state->done_fired) return;
    if (state->acks >= state->required &&
        state->extra_done == state->extra_total) {
      state->done_fired = true;
      ++stats_.puts_ok;
      c_puts_ok_->Inc();
      (*h_put_latency_us_)
          .Add(static_cast<double>(rpc_->simulator()->Now() - started));
      done(version);
    } else if (state->completed == state->total &&
               state->acks < state->required) {
      state->done_fired = true;
      ++stats_.puts_unavailable;
      c_puts_unavailable_->Inc();
      done(Status::Unavailable("write quorum not met"));
    }
  };
  auto on_complete = [state, maybe_finish](bool ok) {
    if (ok) ++state->acks;
    ++state->completed;
    maybe_finish();
  };

  for (size_t i = 0; i < targets.size(); ++i) {
    StoreReq store;
    store.key = req.key;
    store.versions = {version};
    store.has_hint = intended[i] != kNoHint;
    store.intended = intended[i];
    store.epoch = coordinator->epoch;
    coordinator->resilient->Call(
        targets[i], m_store_, std::move(store), kFanOutLeg,
        [on_complete](Result<sim::Payload> r) { on_complete(r.ok()); });
  }
  for (const sim::NodeId target : extra) {
    StoreReq store;
    store.key = req.key;
    store.versions = {version};
    store.epoch = coordinator->epoch;
    // Valid at either epoch: the receiver may learn of the commit before
    // this leg lands, and the merge stays correct regardless.
    store.cross_epoch = true;
    coordinator->resilient->Call(
        target, m_store_, std::move(store), kFanOutLeg,
        [this, state, maybe_finish, coordinator, target, key = req.key,
         version](Result<sim::Payload> r) {
          if (!r.ok()) {
            // Hinted handoff to the NEW owner: the write stays available
            // and the data reaches the owner before the epoch commits
            // (TryReportCatchUp holds the report while this hint pends).
            BufferHint(coordinator, target, key, {version});
          }
          ++state->extra_done;
          maybe_finish();
        });
  }
}

void DynamoCluster::CoordinateGet(
    Server* coordinator, std::string key,
    GetCallback done) {
  const sim::Time started = rpc_->simulator()->Now();
  coordinator->c_coordinated_gets->Inc();
  // Coordinators read under their own committed epoch; replicas at a
  // different epoch fence the leg, so the quorum only counts replicas that
  // agree on placement.
  const std::vector<sim::NodeId> preferred =
      PreferenceListAt(coordinator->epoch, key);

  struct GetState {
    std::vector<std::vector<Version>> replies;
    std::vector<std::pair<sim::NodeId, uint64_t>> replier_digests;
    int completed = 0;
    int total = 0;
    int required = 0;
    bool done_fired = false;
    std::string key;
  };
  auto state = std::make_shared<GetState>();
  state->total = static_cast<int>(preferred.size());
  state->required = std::min(config_.read_quorum, state->total);
  state->key = key;

  auto finish = [this, state, coordinator, done, started]() {
    // Merge sibling sets from all repliers.
    std::vector<Version> merged = MergeSiblingSets(state->replies);
    ReadResult result;
    result.replies = static_cast<int>(state->replies.size());
    for (const auto& v : merged) {
      result.context.MergeWith(v.vv);
      if (!v.tombstone) result.versions.push_back(v);
    }
    // Read repair: push the merged set to any replier whose digest differs.
    if (config_.read_repair && !merged.empty()) {
      // Compute the digest a converged replica would report (same formula
      // as VersionedStore::KeyDigest over the merged sibling set).
      const uint64_t key_hash = Fnv1a64(state->key);
      uint64_t want = 0;
      for (const auto& v : merged) want ^= Mix64(key_hash ^ v.Digest());
      for (const auto& [node, digest] : state->replier_digests) {
        if (digest == want) continue;
        StoreReq repair;
        repair.key = state->key;
        repair.versions = merged;
        repair.epoch = coordinator->epoch;
        // Repair is an idempotent version-set merge — valid even if the
        // target's epoch flips while the push is in flight.
        repair.cross_epoch = true;
        rpc_->Call(coordinator->node, node, m_store_, std::move(repair),
                   kRpcTimeout, [](Result<sim::Payload>) {});
        ++stats_.read_repairs;
        c_read_repairs_->Inc();
        result.repaired = true;
      }
    }
    ++stats_.gets_ok;
    c_gets_ok_->Inc();
    (*h_get_latency_us_)
        .Add(static_cast<double>(rpc_->simulator()->Now() - started));
    done(std::move(result));
  };

  auto on_reply = [this, state, finish,
                   done](sim::NodeId from, Result<sim::Payload> r) {
    ++state->completed;
    if (state->done_fired) return;
    if (r.ok()) {
      auto reply = std::move(r).value().Take<ReadReply>();
      state->replies.push_back(std::move(reply.versions));
      state->replier_digests.emplace_back(from, reply.digest);
    }
    if (static_cast<int>(state->replies.size()) >= state->required) {
      state->done_fired = true;
      finish();
    } else if (state->completed == state->total) {
      state->done_fired = true;
      ++stats_.gets_unavailable;
      c_gets_unavailable_->Inc();
      done(Status::Unavailable("read quorum not met"));
    }
  };

  for (const sim::NodeId target : preferred) {
    ReadReq read{key, coordinator->epoch};
    coordinator->resilient->Call(target, m_read_, std::move(read), kFanOutLeg,
                                 [on_reply, target](Result<sim::Payload> r) {
                                   on_reply(target, std::move(r));
                                 });
  }
}

void DynamoCluster::StartAntiEntropy(sim::Time interval) {
  EVC_CHECK(anti_entropy_ == nullptr && stats_.epochs_committed == 0);
  std::vector<sim::NodeId> nodes;
  std::vector<ReplicaStorage*> storages;
  for (const auto& server : servers_) {
    nodes.push_back(server->node);
    storages.push_back(server->storage.get());
  }
  AntiEntropyOptions options;
  options.interval = interval;
  options.peer_usable = [this](sim::NodeId self, sim::NodeId peer) {
    return !detecting_ || PeerUsable(self, peer);
  };
  if (config_.admission_enabled) {
    options.load_of = [this](sim::NodeId self, sim::NodeId peer) {
      return rpc_->PeerLoad(self, peer);
    };
  }
  anti_entropy_ = std::make_unique<AntiEntropy>(
      rpc_->network(), std::move(nodes), std::move(storages), options);
  anti_entropy_->Start();
}

void DynamoCluster::StartHintDelivery(sim::Time interval) {
  hint_interval_ = interval;  // live-added servers get the same cadence
  for (auto& server : servers_) ScheduleHintTick(server.get(), interval);
}

void DynamoCluster::ScheduleHintTick(Server* server, sim::Time interval) {
  rpc_->simulator()->ScheduleAfter(interval, [this, server, interval] {
    DeliverHints(server);
    ScheduleHintTick(server, interval);
  });
}

void DynamoCluster::DeliverHints(Server* server) {
  sim::Network* net = rpc_->network();
  if (!net->IsNodeUp(server->node)) return;
  for (auto it = server->hints.begin(); it != server->hints.end();) {
    const sim::NodeId intended = it->first;
    // Hold the hint while the intended home still looks down — to the
    // holder's own detector in detector mode, to the oracle otherwise.
    if (!TargetUsable(server, intended)) {
      ++it;
      continue;
    }
    // Backpressure: hold the batch while the intended home reports load
    // (piggybacked on its replies). Hints are best-effort background work;
    // adding them to an overloaded node's queue only deepens the overload.
    if (rpc_->PeerLoad(server->node, intended) >=
        kBackgroundYieldLoad) {
      ++stats_.hints_deferred;
      ++it;
      continue;
    }
    for (const auto& [key, versions] : it->second) {
      HandOff(server, intended, m_hint_, key, versions);
    }
    // Optimistic: drop the hint once sent; a lost handoff is later fixed by
    // anti-entropy (mirrors Dynamo's at-least-once handoff semantics).
    it = server->hints.erase(it);
  }
  // Draining hints may have unblocked a held catch-up report (reports wait
  // while hints to prepared-view members pend).
  TryReportCatchUp(server);
}

void DynamoCluster::BufferHint(Server* holder, sim::NodeId intended,
                               const std::string& key,
                               const std::vector<Version>& versions) {
  std::vector<Version>& slot = holder->hints[intended][key];
  if (slot.empty()) {
    ++stats_.hints_stored;
    c_hints_stored_->Inc();
    slot = versions;
  } else {
    slot = MergeSiblingSets({slot, versions});
  }
}

void DynamoCluster::HandOff(Server* holder, sim::NodeId target,
                            sim::MethodId method, const std::string& key,
                            const std::vector<Version>& versions) {
  StoreReq store;
  store.key = key;
  store.versions = versions;
  store.epoch = holder->epoch;
  // Handoff is an idempotent merge of versions the target was always meant
  // to hold — exempt from the epoch fence.
  store.cross_epoch = true;
  holder->resilient->Call(target, method, std::move(store), kFanOutLeg,
                          [this](Result<sim::Payload> r) {
                            if (r.ok()) {
                              ++stats_.hints_delivered;
                              c_hints_delivered_->Inc();
                            } else {
                              // Anti-entropy repairs the data itself; the
                              // ledger must still balance.
                              ++stats_.hints_lost;
                              c_hints_lost_->Inc();
                            }
                          });
}

void DynamoCluster::OnCrash(uint32_t node) {
  Server* server = FindServer(node);
  EVC_CHECK(server != nullptr);
  // Hints are volatile by design: count and drop them.
  uint64_t dropped = 0;
  uint64_t lost_hints = 0;
  for (const auto& [intended, keys] : server->hints) {
    lost_hints += keys.size();
    for (const auto& [key, versions] : keys) {
      dropped += key.size();
      for (const Version& v : versions) dropped += v.value.size();
    }
  }
  stats_.hints_lost += lost_hints;
  c_hints_lost_->Inc(lost_hints);
  server->hints.clear();
  // Non-durable storage has no WAL to replay: the whole store evaporates.
  if (!config_.storage.durable) {
    server->storage->store().ForEachKey(
        [&dropped](const std::string& key,
                   const std::vector<Version>& versions) {
          dropped += key.size();
          for (const Version& v : versions) dropped += v.value.size();
        });
  }
  Obs().CounterFor("crash.state_dropped_bytes").Inc(dropped);
  server->coord_counter = 0;
  server->clock = LamportClock(server->replica_id);
  // Migration progress is volatile: the restart refresh rebuilds the task
  // from durable storage if the prepared view is still pending.
  server->migration.reset();
}

void DynamoCluster::OnRestart(uint32_t node) {
  Server* server = FindServer(node);
  EVC_CHECK(server != nullptr);
  // Replay the storage WAL (empty buffer for non-durable storage, so this
  // doubles as the state drop). RestoreCounterFloor inside recovery keeps
  // VersionedStore's internal write counter monotonic.
  auto replayed = server->storage->CrashAndRecover();
  EVC_CHECK(replayed.ok());
  Obs().CounterFor("wal.replayed_records").Inc(*replayed);
  // Restore the coordinator's minting counter and Lamport clock from the
  // recovered versions, so post-restart puts never reuse a version-vector
  // slot or LWW timestamp already handed out before the crash.
  uint64_t counter_floor = 0;
  LamportTimestamp max_ts;
  server->storage->store().ForEachKey(
      [&](const std::string&, const std::vector<Version>& versions) {
        for (const Version& v : versions) {
          counter_floor =
              std::max(counter_floor, v.vv.Get(server->replica_id));
          if (max_ts < v.lww_ts) max_ts = v.lww_ts;
        }
      });
  server->coord_counter = counter_floor;
  server->clock.Observe(max_ts);
  if (elastic()) {
    // The view may have moved while we were down (we missed the pushes):
    // do not coordinate until a fresh pull confirms the epoch.
    server->needs_refresh = true;
    server->refresh_inflight = false;
    server->prepared.reset();
    rpc_->simulator()->ScheduleAfter(1, [this, server] {
      RefreshView(server);
    });
  }
}

bool DynamoCluster::ReplicasConverged(const std::string& key) {
  const std::vector<sim::NodeId> preferred = PreferenceList(key);
  uint64_t digest = 0;
  bool first = true;
  for (const sim::NodeId node : preferred) {
    Server* s = FindServer(node);
    const uint64_t d = s->storage->store().KeyDigest(key);
    if (first) {
      digest = d;
      first = false;
    } else if (d != digest) {
      return false;
    }
  }
  return true;
}

size_t DynamoCluster::pending_hints() const {
  size_t n = 0;
  for (const auto& server : servers_) {
    for (const auto& [intended, keys] : server->hints) n += keys.size();
  }
  return n;
}

// --- Elastic membership ---

void DynamoCluster::EnableElastic(membership::ConfigService* config) {
  EVC_CHECK(config_service_ == nullptr);
  EVC_CHECK(config_.use_hash_ring);  // per-epoch rings are vnode-based
  EVC_CHECK(config != nullptr);
  config_service_ = config;
  const membership::MembershipView& committed = config->committed();
  EVC_CHECK(committed.epoch >= 1);  // must be bootstrapped
  EVC_CHECK(committed.members.size() == servers_.size());
  placements_.try_emplace(committed.epoch, committed.members);
  announced_epoch_ = committed.epoch;
  for (auto& server : servers_) {
    EVC_CHECK(committed.Contains(server->node));
    server->epoch = committed.epoch;
    server->departed = false;
    SubscribeServer(server.get());
    ScheduleRefreshTick(server.get());
  }
}

void DynamoCluster::SubscribeServer(Server* server) {
  config_service_->Subscribe(
      server->node,
      [this, server](
          const membership::MembershipView& committed,
          const std::optional<membership::MembershipView>& prepared) {
        ApplyView(server, committed, prepared);
      });
}

void DynamoCluster::ApplyView(
    Server* server, const membership::MembershipView& committed,
    const std::optional<membership::MembershipView>& prepared) {
  if (committed.epoch > server->epoch) {
    placements_.try_emplace(committed.epoch, committed.members);
    server->epoch = committed.epoch;
    server->departed = !committed.Contains(server->node);
    server->needs_refresh = false;
    if (server->migration != nullptr &&
        server->migration->epoch <= committed.epoch) {
      server->migration.reset();  // that epoch is settled
    }
    RedirectHints(server);
    if (committed.epoch > announced_epoch_) {
      // Gossip drops the servers the last committed view listed and this
      // one omits (a live-joined server is in no view until its join
      // commits, so it keeps gossiping meanwhile).
      for (sim::NodeId node : placements_.at(announced_epoch_).members) {
        if (anti_entropy_ != nullptr && !committed.Contains(node)) {
          anti_entropy_->MarkDeparted(node);
        }
      }
      announced_epoch_ = committed.epoch;
      ++stats_.epochs_committed;
    }
  } else if (committed.epoch == server->epoch) {
    // A same-epoch confirmation is what ends a restarted server's
    // "no coordination until synced" quarantine.
    server->needs_refresh = false;
  }
  if (prepared.has_value() && prepared->epoch > server->epoch) {
    placements_.try_emplace(prepared->epoch, prepared->members);
    server->prepared = *prepared;
    if (server->migration == nullptr ||
        server->migration->epoch != prepared->epoch) {
      StartCatchUp(server);
    }
  } else {
    server->prepared.reset();
  }
}

void DynamoCluster::RefreshView(Server* server) {
  if (!elastic() || server->refresh_inflight) return;
  if (!rpc_->network()->IsNodeUp(server->node)) return;
  server->refresh_inflight = true;
  config_service_->Fetch(
      server->node, [this, server](Result<membership::ViewState> r) {
        server->refresh_inflight = false;
        if (!r.ok()) return;  // the periodic tick retries
        ++stats_.view_refreshes;
        c_view_refreshes_->Inc();
        std::optional<membership::MembershipView> prepared;
        if (r->has_prepared) prepared = std::move(r->prepared);
        ApplyView(server, r->committed, prepared);
      });
}

void DynamoCluster::ScheduleRefreshTick(Server* server) {
  rpc_->simulator()->ScheduleAfter(kViewRefreshInterval,
                                   [this, server] {
                                     RefreshView(server);
                                     ScheduleRefreshTick(server);
                                   });
}

void DynamoCluster::StartCatchUp(Server* server) {
  EVC_CHECK(server->prepared.has_value());
  const uint64_t new_epoch = server->prepared->epoch;
  auto task = std::make_unique<MigrationTask>();
  task->epoch = new_epoch;
  // Stream every key we own under the committed epoch to owners it GAINS
  // under the prepared one. Only old owners send (new owners have nothing
  // to say yet), so the stream count stays proportional to moved ranges.
  server->storage->store().ForEachKey(
      [&](const std::string& key, const std::vector<Version>& versions) {
        const std::vector<sim::NodeId> old_pref =
            PreferenceListAt(server->epoch, key);
        if (!Contains(old_pref, server->node)) return;
        for (sim::NodeId n : PreferenceListAt(new_epoch, key)) {
          if (!Contains(old_pref, n)) {
            task->outgoing[n].emplace_back(key, versions);
          }
        }
      });
  task->streaming_done = task->outgoing.empty();
  server->migration = std::move(task);
  ++stats_.migrations_started;
  if (server->migration->streaming_done) {
    TryReportCatchUp(server);
  } else {
    StreamNextChunk(server);
  }
}

void DynamoCluster::StreamNextChunk(Server* server) {
  MigrationTask* task = server->migration.get();
  if (task == nullptr || task->streaming_done || task->chunk_inflight) return;
  if (!rpc_->network()->IsNodeUp(server->node)) return;
  if (task->outgoing.empty()) {
    task->streaming_done = true;
    TryReportCatchUp(server);
    return;
  }
  auto it = task->outgoing.begin();
  const sim::NodeId target = it->first;
  // Backpressure: migration streaming is background work; when the target
  // reports load, pause the stream and retry after the standard pause
  // instead of deepening its queue. Catch-up latency is the price of not
  // amplifying an overload.
  if (rpc_->PeerLoad(server->node, target) >= kBackgroundYieldLoad) {
    ++stats_.migrate_deferred;
    const uint64_t deferred_epoch = task->epoch;
    rpc_->simulator()->ScheduleAfter(
        kMigrateRetryPause, [this, server, deferred_epoch] {
          MigrationTask* t2 = server->migration.get();
          if (t2 != nullptr && t2->epoch == deferred_epoch) {
            StreamNextChunk(server);
          }
        });
    return;
  }
  MigrateChunk chunk;
  chunk.epoch = task->epoch;
  const size_t n = std::min(kMigrateChunkKeys, it->second.size());
  chunk.entries.assign(it->second.end() - static_cast<ptrdiff_t>(n),
                       it->second.end());
  it->second.resize(it->second.size() - n);
  if (it->second.empty()) task->outgoing.erase(it);
  // Keep a copy for requeue on failure; chunks are idempotent merges, so a
  // duplicate delivery (late ack + requeue) is harmless.
  auto pending = std::make_shared<
      std::vector<std::pair<std::string, std::vector<Version>>>>(
      chunk.entries);
  task->chunk_inflight = true;
  const uint64_t epoch = task->epoch;
  resilience::CallOptions opts;
  opts.attempt_timeout = kRpcTimeout;
  opts.max_attempts = 3;
  server->resilient->Call(
      target, m_migrate_, std::move(chunk), opts,
      [this, server, target, pending, epoch](Result<sim::Payload> r) {
        MigrationTask* t = server->migration.get();
        if (t == nullptr || t->epoch != epoch) return;  // superseded
        t->chunk_inflight = false;
        if (r.ok()) {
          stats_.keys_migrated += pending->size();
          c_keys_migrated_->Inc(pending->size());
          StreamNextChunk(server);
          return;
        }
        auto& queue = t->outgoing[target];
        queue.insert(queue.end(), pending->begin(), pending->end());
        rpc_->simulator()->ScheduleAfter(
            kMigrateRetryPause, [this, server, epoch] {
              MigrationTask* t2 = server->migration.get();
              if (t2 != nullptr && t2->epoch == epoch) StreamNextChunk(server);
            });
      });
}

void DynamoCluster::TryReportCatchUp(Server* server) {
  MigrationTask* task = server->migration.get();
  if (task == nullptr || !task->streaming_done || task->reported ||
      task->report_inflight) {
    return;
  }
  if (!rpc_->network()->IsNodeUp(server->node)) return;
  // Hold the report while a hint addressed to a prepared-view member still
  // pends: the commit must not open the new epoch before its owners hold
  // the data those hints carry (DeliverHints re-tries us after draining).
  if (server->prepared.has_value()) {
    for (const auto& [intended, keys] : server->hints) {
      if (!keys.empty() && server->prepared->Contains(intended)) return;
    }
  }
  task->report_inflight = true;
  const uint64_t epoch = task->epoch;
  config_service_->ReportCatchUp(
      server->node, epoch, [this, server, epoch](Status s) {
        MigrationTask* t = server->migration.get();
        if (t == nullptr || t->epoch != epoch) return;
        t->report_inflight = false;
        if (s.ok()) {
          t->reported = true;
          ++stats_.migrations_completed;
          return;
        }
        rpc_->simulator()->ScheduleAfter(
            kMigrateRetryPause, [this, server, epoch] {
              MigrationTask* t2 = server->migration.get();
              if (t2 != nullptr && t2->epoch == epoch) {
                TryReportCatchUp(server);
              }
            });
      });
}

void DynamoCluster::RedirectHints(Server* server) {
  for (auto it = server->hints.begin(); it != server->hints.end();) {
    const sim::NodeId intended = it->first;
    if (Contains(placements_.at(server->epoch).members, intended)) {
      ++it;
      continue;
    }
    // The intended home left the committed view: waiting for it to come
    // back would pend forever. Re-aim each hint at the key's new primary
    // under the current epoch.
    for (const auto& [key, versions] : it->second) {
      ++stats_.hints_redirected;
      c_hints_redirected_->Inc();
      const std::vector<sim::NodeId> pref =
          PreferenceListAt(server->epoch, key);
      const sim::NodeId target = pref.empty() ? server->node : pref.front();
      if (target == server->node) {
        // We are the new primary: the handoff is a local merge.
        server->storage->MergeRemote(key, versions);
        ++stats_.hints_delivered;
        c_hints_delivered_->Inc();
        continue;
      }
      HandOff(server, target, m_store_, key, versions);
    }
    it = server->hints.erase(it);
  }
}

Result<sim::NodeId> DynamoCluster::AddServerLive(
    std::function<void(Status)> prepared) {
  EVC_CHECK(elastic());
  if (config_service_->ReconfigInProgress()) {
    return Status::FailedPrecondition("reconfiguration in flight");
  }
  Server* server = CreateServer();
  // The newcomer serves nothing until it pulls a view; data still reaches
  // it meanwhile via cross-epoch migration chunks and extra write legs.
  server->needs_refresh = true;
  SubscribeServer(server);
  ScheduleRefreshTick(server);
  if (hint_interval_ > 0) ScheduleHintTick(server, hint_interval_);
  if (!config_.use_oracle_detector) {
    std::vector<sim::NodeId> nodes;
    nodes.reserve(servers_.size());
    for (const auto& s : servers_) nodes.push_back(s->node);
    server->resilient->StartHeartbeats(nodes);
  }
  if (anti_entropy_ != nullptr) {
    anti_entropy_->AddMember(server->node, server->storage.get());
  }
  RefreshView(server);
  const sim::NodeId node = server->node;
  EVC_RETURN_IF_ERROR(config_service_->ProposeJoin(node, std::move(prepared)));
  return node;
}

Status DynamoCluster::RemoveServerLive(sim::NodeId node,
                                       std::function<void(Status)> prepared) {
  EVC_CHECK(elastic());
  if (FindServer(node) == nullptr) {
    return Status::InvalidArgument("unknown server");
  }
  if (config_service_->ReconfigInProgress()) {
    return Status::FailedPrecondition("reconfiguration in flight");
  }
  if (static_cast<int>(config_service_->committed().members.size()) <=
      kMinElasticMembers) {
    return Status::FailedPrecondition("member floor reached");
  }
  return config_service_->ProposeLeave(node, std::move(prepared));
}

std::vector<sim::NodeId> DynamoCluster::CommittedMembers() const {
  return elastic() ? config_service_->committed().members
                   : placements_.at(0).members;
}

uint64_t DynamoCluster::committed_epoch() const {
  return elastic() ? config_service_->committed().epoch : 0;
}

bool DynamoCluster::Migrating() const {
  if (!elastic()) return false;
  if (config_service_->ReconfigInProgress()) return true;
  const uint64_t committed = config_service_->committed().epoch;
  for (const auto& server : servers_) {
    if (server->migration != nullptr && !server->migration->reported) {
      return true;
    }
    if (!server->departed && server->epoch != committed) return true;
  }
  return false;
}

}  // namespace evc::repl
