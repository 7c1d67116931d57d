#include "pivot/runner.h"

#include "common/check.h"
#include "crypto/threshold_paillier.h"
#include "net/network.h"
#include "net/socket.h"

namespace pivot {

namespace {

// Initialization stage: the trusted key generation ceremony (every
// client receives the public key and its partial secret key), derived
// from run_seed alone. The in-process harness and every party process
// call this, so their key material cannot drift apart; it stands in for
// the out-of-band distribution a real deployment would use.
ThresholdPaillier FederationKeys(const PivotParams& params, int num_parties) {
  Rng key_rng(params.run_seed ^ 0x4b455953 /* "KEYS" */);
  return GenerateThresholdPaillier(params.key_bits, num_parties, key_rng);
}

}  // namespace

Status RunFederationPartitioned(
    const VerticalPartition& partition, const FederationConfig& cfg,
    const std::function<Status(PartyContext&)>& body, NetworkStats* stats) {
  const int m = cfg.num_parties;
  PIVOT_CHECK(static_cast<int>(partition.views.size()) == m);
  PIVOT_CHECK(cfg.super_client >= 0 && cfg.super_client < m);

  // Hoisted above the attempt loop so restarted parties keep their key
  // material, as a rebooted real deployment would reload it from disk.
  const ThresholdPaillier keys = FederationKeys(cfg.params, m);

  if (cfg.checkpoint != nullptr) {
    PIVOT_CHECK(cfg.checkpoint->num_parties() == m);
  }

  const auto party_body = [&](int id, Endpoint& ep) -> Status {
    PartyContext ctx(id, cfg.super_client, &ep, keys.pk,
                     keys.partial_keys[id], partition.views[id],
                     id == cfg.super_client ? partition.labels
                                            : std::vector<double>{},
                     cfg.params);
    if (cfg.checkpoint != nullptr) {
      ctx.set_checkpoint(&cfg.checkpoint->party(id));
    }
    return body(ctx);
  };

  // Attempt loop: each attempt gets a fresh mesh (a restart tears down
  // all connections), while the checkpoint stores persist across
  // attempts. Transient faults that already fired are dropped from the
  // plan so a recovered crash does not re-fire on the resumed run.
  FaultPlan plan = cfg.fault_plan;
  NetworkStats total{};
  Status st = Status::Ok();
  for (int attempt = 0;; ++attempt) {
    uint64_t fired_mask = 0;
    if (cfg.backend == NetBackend::kSocket) {
      SocketOptions opts;
      opts.net = cfg.net;
      opts.supervision = cfg.supervision;
      // Every party's network gets the full plan: fault actions key on
      // the sending party, so each network only fires its own actions
      // and OR-ing the masks reconstructs the global fired set.
      std::vector<FaultPlan> plans(m, plan);
      NetworkStats s{};
      st = RunLoopbackParties(m, opts, party_body, &s, plans, &fired_mask);
      total.Add(s);
    } else {
      InMemoryNetwork net(m, cfg.net, cfg.network_sim);
      net.set_fault_plan(plan);
      st = RunParties(net, party_body);
      total.Add(net.stats());
      fired_mask = net.fired_fault_mask();
    }
    if (st.ok() || cfg.checkpoint == nullptr || attempt >= cfg.max_restarts) {
      break;
    }
    plan = plan.WithoutFiredTransient(fired_mask);
  }
  if (stats != nullptr) *stats = total;
  return st;
}

Status RunPartyFederation(const VerticalPartition& partition,
                          const PartyConfig& cfg,
                          const std::function<Status(PartyContext&)>& body,
                          NetworkStats* stats) {
  const int m = static_cast<int>(cfg.addresses.size());
  PIVOT_CHECK_MSG(m >= 1, "party mode needs at least one address");
  PIVOT_CHECK(cfg.party_id >= 0 && cfg.party_id < m);
  PIVOT_CHECK(cfg.super_client >= 0 && cfg.super_client < m);
  PIVOT_CHECK(static_cast<int>(partition.views.size()) == m);

  // Same key ceremony as the in-process harness: every process derives
  // identical key material from run_seed.
  const ThresholdPaillier keys = FederationKeys(cfg.params, m);

  // The checkpoint store outlives attempts; with a persist path it also
  // outlives the process, which is what makes SIGKILL + relaunch resume
  // possible.
  CheckpointStore store(cfg.checkpoint_history);
  if (!cfg.checkpoint_dir.empty()) {
    const std::string path = cfg.checkpoint_dir + "/party" +
                             std::to_string(cfg.party_id) + ".ckpt";
    PIVOT_RETURN_IF_ERROR(store.LoadFromFile(path));
    store.SetPersistPath(path);
  }

  FaultPlan plan = cfg.fault_plan;
  NetworkStats total{};
  Status st = Status::Ok();
  for (int attempt = 0;; ++attempt) {
    SocketOptions opts;
    opts.net = cfg.net;
    opts.supervision = cfg.supervision;
    // Bridge the supervisor's periodic tick to the orchestrator hooks:
    // export liveness, and convert a pending shutdown request into a
    // mesh abort so blocked receives wake within a heartbeat.
    SocketNetwork* live_net = nullptr;
    if (cfg.on_alive || cfg.shutdown_requested) {
      opts.on_tick = [&cfg, &live_net]() {
        if (cfg.on_alive) cfg.on_alive();
        if (live_net != nullptr && cfg.shutdown_requested &&
            cfg.shutdown_requested()) {
          live_net->Abort(Status::Aborted("shutdown requested"),
                          cfg.party_id);
        }
      };
    }
    {
      SocketNetwork net(cfg.party_id, m, opts);
      live_net = &net;
      net.set_fault_plan(plan);
      st = net.Bind(cfg.addresses[cfg.party_id]);
      if (st.ok()) st = net.Establish(cfg.addresses);
      if (st.ok() && cfg.on_mesh_ready) {
        // Readiness barrier: report the mesh up and wait for GO before
        // any protocol traffic, so training starts simultaneously
        // across the federation (see orchestrator/supervisor.h).
        st = cfg.on_mesh_ready(attempt,
                               [&net]() { return net.aborted(); });
      }
      if (st.ok()) {
        PartyContext ctx(cfg.party_id, cfg.super_client, &net.endpoint(),
                         keys.pk, keys.partial_keys[cfg.party_id],
                         partition.views[cfg.party_id],
                         cfg.party_id == cfg.super_client
                             ? partition.labels
                             : std::vector<double>{},
                         cfg.params);
        ctx.set_checkpoint(&store);
        st = body(ctx);
      }
      // Tell peers why this party is going down so their blocked
      // receives wake immediately.
      if (!st.ok() && st.code() != StatusCode::kAborted) {
        net.Abort(st, cfg.party_id);
      }
      total.Add(net.stats());
      plan = plan.WithoutFiredTransient(net.fired_fault_mask());
    }  // mesh torn down (and the listen address released) before a retry
    if (st.ok() || attempt >= cfg.max_restarts) break;
    if (cfg.shutdown_requested && cfg.shutdown_requested()) {
      // Graceful shutdown: stop retrying. The persisted checkpoint store
      // already holds the latest snapshot (it mirrors every mutation),
      // so a future relaunch resumes from here.
      break;
    }
  }
  if (stats != nullptr) *stats = total;
  return st;
}

Status RunFederation(const Dataset& data, const FederationConfig& cfg,
                     const std::function<Status(PartyContext&)>& body,
                     NetworkStats* stats) {
  VerticalPartition partition = PartitionVertically(data, cfg.num_parties);
  return RunFederationPartitioned(partition, cfg, body, stats);
}

std::vector<std::vector<double>> SliceRowsForParty(const Dataset& data,
                                                   int party,
                                                   int num_parties) {
  VerticalPartition part = PartitionVertically(data, num_parties);
  return part.views[party].features;
}

}  // namespace pivot
