#include "core/replicated_store.h"

#include <algorithm>

#include "causal/causal_store.h"
#include "clock/version_vector.h"
#include "consensus/paxos.h"
#include "replication/quorum_store.h"
#include "replication/timeline_store.h"

namespace evc::core {

const char* ConsistencyLevelToString(ConsistencyLevel level) {
  switch (level) {
    case ConsistencyLevel::kEventual:
      return "eventual";
    case ConsistencyLevel::kQuorum:
      return "quorum";
    case ConsistencyLevel::kCausal:
      return "causal";
    case ConsistencyLevel::kTimeline:
      return "timeline";
    case ConsistencyLevel::kStrong:
      return "strong";
  }
  return "?";
}

struct ReplicatedStore::ClientState {
  sim::NodeId node = 0;
  int dc = 0;
  // Quorum levels: causal context from the client's last read per key.
  std::map<std::string, VersionVector> contexts;
  // Strong level: a Paxos client tracking the leader.
  std::unique_ptr<consensus::PaxosKvClient> paxos_client;
  // Causal level: dependency-tracking client.
  std::unique_ptr<causal::CausalClient> causal_client;
};

struct ReplicatedStore::Impl {
  // Exactly one of these is populated, per options.level.
  std::unique_ptr<repl::DynamoCluster> dynamo;
  std::vector<sim::NodeId> dynamo_servers;
  std::vector<int> server_dc;  // dc of dynamo_servers[i]

  std::unique_ptr<consensus::PaxosCluster> paxos;
  std::vector<sim::NodeId> paxos_servers;

  std::unique_ptr<causal::CausalCluster> causal;
  std::vector<sim::NodeId> causal_dcs;

  std::unique_ptr<repl::TimelineCluster> timeline;
  std::vector<sim::NodeId> timeline_servers;
  std::vector<int> timeline_server_dc;
};

ReplicatedStore::ReplicatedStore(StoreOptions options)
    : options_(options), impl_(std::make_unique<Impl>()) {
  EVC_CHECK(options_.datacenters >= 1 && options_.datacenters <= 5);

  sim_ = std::make_unique<sim::Simulator>(options_.seed);
  auto base = options_.datacenters <= 3
                  ? sim::WanMatrixLatency::ThreeRegionBaseUs()
                  : sim::WanMatrixLatency::FiveRegionBaseUs();
  // Trim the matrix to the requested datacenter count.
  base.resize(options_.datacenters);
  for (auto& row : base) row.resize(options_.datacenters);
  auto latency = std::make_unique<sim::WanMatrixLatency>(std::move(base));
  wan_ = latency.get();
  net_ = std::make_unique<sim::Network>(sim_.get(), std::move(latency));
  rpc_ = std::make_unique<sim::Rpc>(net_.get());

  const int total_servers = options_.datacenters;  // one per datacenter

  switch (options_.level) {
    case ConsistencyLevel::kEventual:
    case ConsistencyLevel::kQuorum: {
      repl::QuorumConfig config;
      config.replication_factor = std::min(3, total_servers);
      if (options_.level == ConsistencyLevel::kEventual) {
        config.read_quorum = 1;
        config.write_quorum = 1;
        config.sloppy = true;
      } else {
        config.read_quorum = std::min(2, config.replication_factor);
        config.write_quorum = std::min(2, config.replication_factor);
        config.sloppy = false;
      }
      impl_->dynamo = std::make_unique<repl::DynamoCluster>(rpc_.get(),
                                                            config);
      for (int s = 0; s < total_servers; ++s) {
        const sim::NodeId node = impl_->dynamo->AddServer();
        const int dc = s % options_.datacenters;
        wan_->AssignNode(node, dc);
        impl_->dynamo_servers.push_back(node);
        impl_->server_dc.push_back(dc);
      }
      // Anti-entropy keeps eventual replicas converging in the background.
      impl_->dynamo->StartAntiEntropy(500 * sim::kMillisecond);
      impl_->dynamo->StartHintDelivery(500 * sim::kMillisecond);
      break;
    }
    case ConsistencyLevel::kStrong: {
      impl_->paxos = std::make_unique<consensus::PaxosCluster>(
          rpc_.get(), consensus::PaxosOptions{});
      for (int s = 0; s < total_servers; ++s) {
        const sim::NodeId node = impl_->paxos->AddServer();
        wan_->AssignNode(node, s % options_.datacenters);
        impl_->paxos_servers.push_back(node);
      }
      impl_->paxos->Start();
      sim_->RunFor(2 * sim::kSecond);  // let a leader emerge
      break;
    }
    case ConsistencyLevel::kCausal: {
      impl_->causal = std::make_unique<causal::CausalCluster>(rpc_.get());
      for (int d = 0; d < options_.datacenters; ++d) {
        const sim::NodeId node = impl_->causal->AddDatacenter();
        wan_->AssignNode(node, d);
        impl_->causal_dcs.push_back(node);
      }
      break;
    }
    case ConsistencyLevel::kTimeline: {
      impl_->timeline = std::make_unique<repl::TimelineCluster>(
          rpc_.get(), repl::TimelineOptions{});
      for (int s = 0; s < total_servers; ++s) {
        const sim::NodeId node = impl_->timeline->AddServer();
        const int dc = s % options_.datacenters;
        wan_->AssignNode(node, dc);
        impl_->timeline_servers.push_back(node);
        impl_->timeline_server_dc.push_back(dc);
      }
      break;
    }
  }
}

ReplicatedStore::~ReplicatedStore() = default;

sim::NodeId ReplicatedStore::AddClient(int dc) {
  EVC_CHECK(dc >= 0 && dc < options_.datacenters);
  const sim::NodeId node = net_->AddNode();
  wan_->AssignNode(node, dc);
  auto state = std::make_unique<ClientState>();
  state->node = node;
  state->dc = dc;
  if (options_.level == ConsistencyLevel::kStrong) {
    state->paxos_client = std::make_unique<consensus::PaxosKvClient>(
        impl_->paxos.get(), sim_.get(), node, impl_->paxos_servers);
  } else if (options_.level == ConsistencyLevel::kCausal) {
    state->causal_client = std::make_unique<causal::CausalClient>(
        impl_->causal.get(), node, impl_->causal_dcs[dc]);
  }
  clients_[node] = std::move(state);
  return node;
}

namespace {

// Picks the coordinator in the client's datacenter (local-first routing).
sim::NodeId LocalServer(const std::vector<sim::NodeId>& servers,
                        const std::vector<int>& server_dc, int client_dc) {
  for (size_t i = 0; i < servers.size(); ++i) {
    if (server_dc[i] == client_dc) return servers[i];
  }
  return servers[0];
}

}  // namespace

void ReplicatedStore::Put(sim::NodeId client, const std::string& key,
                          std::string value, WriteCallback done) {
  auto it = clients_.find(client);
  EVC_CHECK(it != clients_.end());
  ClientState* state = it->second.get();
  const sim::Time start = sim_->Now();
  auto finish = [this, start, done](Status s) {
    if (s.ok()) {
      put_latency_.Add(static_cast<double>(sim_->Now() - start));
    } else {
      ++puts_failed_;
    }
    done(std::move(s));
  };

  switch (options_.level) {
    case ConsistencyLevel::kEventual:
    case ConsistencyLevel::kQuorum: {
      const sim::NodeId coordinator =
          LocalServer(impl_->dynamo_servers, impl_->server_dc, state->dc);
      const VersionVector ctx = state->contexts[key];
      impl_->dynamo->Put(client, coordinator, key, std::move(value), ctx,
                         [state, key, finish](Result<Version> r) {
                           if (r.ok()) {
                             state->contexts[key].MergeWith(r->vv);
                           }
                           finish(r.status());
                         });
      break;
    }
    case ConsistencyLevel::kStrong:
      state->paxos_client->Put(key, std::move(value),
                               [finish](Result<uint64_t> r) {
                                 finish(r.status());
                               });
      break;
    case ConsistencyLevel::kCausal:
      state->causal_client->Put(key, std::move(value),
                                [finish](Result<causal::WriteId> r) {
                                  finish(r.status());
                                });
      break;
    case ConsistencyLevel::kTimeline:
      impl_->timeline->Write(client, key, std::move(value),
                             [finish](Result<uint64_t> r) {
                               finish(r.status());
                             });
      break;
  }
}

void ReplicatedStore::Get(sim::NodeId client, const std::string& key,
                          ReadCallback done) {
  auto it = clients_.find(client);
  EVC_CHECK(it != clients_.end());
  ClientState* state = it->second.get();
  const sim::Time start = sim_->Now();
  auto finish = [this, start, done](Result<std::string> r) {
    if (r.ok() || r.status().IsNotFound()) {
      get_latency_.Add(static_cast<double>(sim_->Now() - start));
    } else {
      ++gets_failed_;
    }
    done(std::move(r));
  };

  switch (options_.level) {
    case ConsistencyLevel::kEventual:
    case ConsistencyLevel::kQuorum: {
      const sim::NodeId coordinator =
          LocalServer(impl_->dynamo_servers, impl_->server_dc, state->dc);
      impl_->dynamo->Get(
          client, coordinator, key,
          [state, key, finish](Result<repl::ReadResult> r) {
            if (!r.ok()) {
              finish(r.status());
              return;
            }
            state->contexts[key] = r->context;
            if (r->versions.empty()) {
              finish(Status::NotFound(key));
              return;
            }
            // Facade policy: newest timestamp wins among siblings.
            const Version* best = &r->versions[0];
            for (const Version& v : r->versions) {
              if (best->lww_ts < v.lww_ts) best = &v;
            }
            finish(best->value);
          });
      break;
    }
    case ConsistencyLevel::kStrong:
      state->paxos_client->Get(key, finish);
      break;
    case ConsistencyLevel::kCausal:
      state->causal_client->Get(
          key, [finish, key](Result<causal::CausalRead> r) {
            if (!r.ok()) {
              finish(r.status());
            } else if (!r->found) {
              finish(Status::NotFound(key));
            } else {
              finish(r->value);
            }
          });
      break;
    case ConsistencyLevel::kTimeline: {
      const sim::NodeId replica = LocalServer(
          impl_->timeline_servers, impl_->timeline_server_dc, state->dc);
      impl_->timeline->Read(
          client, replica, key, repl::TimelineReadLevel::kAny, 0,
          [finish, key](Result<repl::TimelineRead> r) {
            if (!r.ok()) {
              finish(r.status());
            } else if (!r->found) {
              finish(Status::NotFound(key));
            } else {
              finish(r->value);
            }
          });
      break;
    }
  }
}

void ReplicatedStore::RunFor(sim::Time duration) { sim_->RunFor(duration); }

}  // namespace evc::core
