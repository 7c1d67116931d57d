#include "pivot/runner.h"

#include <cmath>

#include "common/check.h"
#include "common/thread_pool.h"
#include "crypto/threshold_paillier.h"
#include "net/socket.h"
#include "pivot/checkpoint.h"

namespace pivot {

namespace {

// Initialization stage: the trusted key generation ceremony (every
// client receives the public key and its partial secret key), derived
// from run_seed alone. Both runners call this, so their key material
// cannot drift apart; it stands in for the out-of-band distribution a
// real deployment would use.
ThresholdPaillier FederationKeys(const PivotParams& params, int num_parties) {
  Rng key_rng(params.run_seed ^ 0x4b455953 /* "KEYS" */);
  return GenerateThresholdPaillier(params.key_bits, num_parties, key_rng);
}

// Runs `body` as party `id`: its vertical view, the public key and its
// partial secret key, the labels if it is the super client, and its
// checkpoint store (null = no snapshots).
Status RunPartyBody(const VerticalPartition& partition,
                    const ThresholdPaillier& keys, const RunnerConfig& cfg,
                    int id, Endpoint& ep, CheckpointStore* store,
                    const std::function<Status(PartyContext&)>& body) {
  PartyContext ctx(id, cfg.super_client, &ep, keys.pk, keys.partial_keys[id],
                   partition.views[id],
                   id == cfg.super_client ? partition.labels
                                          : std::vector<double>{},
                   cfg.params);
  ctx.set_checkpoint(store);
  return body(ctx);
}

// Regression labels ride the Paillier carriers shifted by
// kRegressionLabelOffset (pivot/params.h). A label outside the bound
// would wrap the enhanced protocol's plaintext space and fail deep inside
// training, so both runners check the labels before any party exists.
Status ValidateLabels(const PivotParams& params,
                      const std::vector<double>& labels) {
  if (params.tree.task != TreeTask::kRegression) return Status::Ok();
  constexpr int64_t bound = kRegressionLabelOffset - 1;
  for (double y : labels) {
    if (!(std::abs(y) < static_cast<double>(bound))) {
      return Status::InvalidArgument("regression labels must satisfy |y| < " +
                                     std::to_string(bound));
    }
  }
  return Status::Ok();
}

// One attempt over a fresh mesh running `plan`: returns the attempt's
// status, adds its traffic to `total` and ORs the fault actions that
// fired into `fired`.
using Attempt = std::function<Status(int attempt, const FaultPlan& plan,
                                     NetworkStats& total, uint64_t& fired)>;

// The restart loop of both runners. A failed attempt is retried up to
// cfg.max_restarts times, unless `stop` (optional) asks to stop. Transient
// faults that already fired are dropped from the plan so a recovered
// crash does not re-fire on the resumed run.
Status RunAttempts(const RunnerConfig& cfg, const std::function<bool()>& stop,
                   const Attempt& attempt, NetworkStats* stats) {
  FaultPlan plan = cfg.fault_plan;
  NetworkStats total{};
  Status st = Status::Ok();
  for (int n = 0;; ++n) {
    uint64_t fired = 0;
    st = attempt(n, plan, total, fired);
    if (st.ok() || n >= cfg.max_restarts || (stop && stop())) break;
    plan = plan.WithoutFiredTransient(fired);
  }
  if (stats != nullptr) *stats = total;
  return st;
}

}  // namespace

Status RunFederationPartitioned(
    const VerticalPartition& partition, const FederationConfig& cfg,
    const std::function<Status(PartyContext&)>& body, NetworkStats* stats) {
  const int m = cfg.num_parties;
  PIVOT_CHECK(static_cast<int>(partition.views.size()) == m);
  PIVOT_CHECK(cfg.super_client >= 0 && cfg.super_client < m);
  // Checked here, before any party exists, so a bad setting is an error
  // for the caller rather than PartyContext's invariant check.
  PIVOT_RETURN_IF_ERROR(ValidateCryptoThreads(cfg.params.crypto_threads));
  PIVOT_RETURN_IF_ERROR(ValidateLabels(cfg.params, partition.labels));

  // Keys and checkpoint stores outlive attempts, as a rebooted party
  // would reload both from its own disk.
  const ThresholdPaillier keys = FederationKeys(cfg.params, m);
  std::vector<CheckpointStore> stores(cfg.max_restarts > 0 ? m : 0);

  return RunAttempts(
      cfg, nullptr,
      [&](int, const FaultPlan& plan, NetworkStats& total, uint64_t& fired) {
        InMemoryNetwork net(m, cfg.net, cfg.network_sim);
        net.set_fault_plan(plan);
        const Status st = RunParties(net, [&](int id, Endpoint& ep) {
          return RunPartyBody(partition, keys, cfg, id, ep,
                              stores.empty() ? nullptr : &stores[id], body);
        });
        total.Add(net.stats());
        fired = net.fired_fault_mask();
        return st;
      },
      stats);
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
  PIVOT_RETURN_IF_ERROR(ValidateCryptoThreads(cfg.params.crypto_threads));
  PIVOT_RETURN_IF_ERROR(ValidateLabels(cfg.params, partition.labels));

  const ThresholdPaillier keys = FederationKeys(cfg.params, m);
  // With a persist path the store also outlives the process, which is
  // what makes SIGKILL + relaunch resume possible.
  CheckpointStore store;
  if (!cfg.checkpoint_dir.empty()) {
    const std::string path = cfg.checkpoint_dir + "/party" +
                             std::to_string(cfg.party_id) + ".ckpt";
    PIVOT_RETURN_IF_ERROR(store.LoadFromFile(path));
    store.SetPersistPath(path);
  }

  return RunAttempts(
      cfg, cfg.shutdown_requested,
      [&](int attempt, const FaultPlan& plan, NetworkStats& total,
          uint64_t& fired) {
        SocketOptions opts;
        opts.net = cfg.net;
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
        // Torn down (and the listen address released) before a retry.
        SocketNetwork net(cfg.party_id, m, opts);
        live_net = &net;
        net.set_fault_plan(plan);
        Status st = net.Bind(cfg.addresses[cfg.party_id]);
        if (st.ok()) st = net.Establish(cfg.addresses);
        if (st.ok() && cfg.on_mesh_ready) {
          // Readiness barrier: report the mesh up and wait for GO before
          // any protocol traffic, so training starts simultaneously
          // across the federation (see orchestrator/supervisor.h).
          st = cfg.on_mesh_ready(attempt, [&net]() { return net.aborted(); });
        }
        if (st.ok()) {
          st = RunPartyBody(partition, keys, cfg, cfg.party_id, net.endpoint(),
                            &store, body);
        }
        // Tell peers why this party is going down so their blocked
        // receives wake immediately.
        if (!st.ok() && st.code() != StatusCode::kAborted) {
          net.Abort(st, cfg.party_id);
        }
        total.Add(net.stats());
        fired = net.fired_fault_mask();
        return st;
      },
      stats);
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
