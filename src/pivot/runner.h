#ifndef PIVOT_PIVOT_RUNNER_H_
#define PIVOT_PIVOT_RUNNER_H_

#include <functional>
#include <string>
#include <vector>

#include "data/dataset.h"
#include "net/fault.h"
#include "net/network.h"
#include "pivot/context.h"

namespace pivot {

// Federation runners. Both play the paper's initialization stage —
// vertical alignment, hyper-parameter consensus and the threshold key
// ceremony, all derived from the data and params.run_seed — and then run
// `body` with each client's PartyContext on one attempt loop:
//
//   RunFederation / RunFederationPartitioned  every party in this process,
//       one thread each, over the in-memory mesh (net/network.h). This is
//       what tests, benches and examples use to stand up an m-party Pivot
//       deployment on one machine.
//   RunPartyFederation  one party of a multi-process federation over the
//       socket transport (net/socket.h); what `pivot_cli party` runs.
//
// Because partitioning, keys and randomness depend on nothing but the
// data and the params, both runners train bit-identical models. Both
// return InvalidArgument before any party starts when a setting cannot
// run: crypto_threads out of range, or a regression task with a label
// outside |y| < kRegressionLabelOffset - 1 (pivot/params.h).

// Settings both runners carry.
struct RunnerConfig {
  // The client holding the labels (the paper's super client).
  int super_client = 0;
  PivotParams params;
  // Reliable-channel tunables for the party mesh (net/channel.h). The
  // default recv timeout is generous so slow Paillier batches never trip
  // it; chaos tests shrink it so injected delays surface quickly.
  NetConfig net = [] {
    NetConfig c;
    c.recv_timeout_ms = 600'000;
    return c;
  }();
  // Optional deterministic fault injection (chaos testing); see
  // net/fault.h. Empty = no faults.
  FaultPlan fault_plan;
  // Attempts beyond the first. Each attempt runs over a fresh mesh;
  // checkpoint stores (pivot/checkpoint.h) persist across attempts, so
  // the trainer resumes from the latest common snapshot. Transient faults
  // that already fired are removed from the plan between attempts; fatal
  // ones persist.
  int max_restarts = 0;
};

// In-process federation: one thread per client over the in-memory mesh.
// With max_restarts > 0 the runner owns one checkpoint store per party,
// wires it into that party's context and restarts a failed attempt;
// with max_restarts == 0 nothing is snapshotted.
struct FederationConfig : RunnerConfig {
  int num_parties = 3;
  // Optional LAN emulation (latency/bandwidth); see net/network.h.
  NetworkSim network_sim;
};

// Partitions `data` vertically across cfg.num_parties clients (labels go
// to the super client only) and runs `body(ctx)` on every party thread.
// Returns the first party error, if any. When `stats` is non-null it
// receives the aggregate traffic/round counters of the run (also on
// failure: partial traffic up to the abort).
Status RunFederation(const Dataset& data, const FederationConfig& cfg,
                     const std::function<Status(PartyContext&)>& body,
                     NetworkStats* stats = nullptr);

// Variant that takes a pre-built vertical partition (so callers can keep
// train/test views aligned).
Status RunFederationPartitioned(
    const VerticalPartition& partition, const FederationConfig& cfg,
    const std::function<Status(PartyContext&)>& body,
    NetworkStats* stats = nullptr);

// Extracts this party's rows (its feature slice) from a dataset, matching
// the round-robin vertical partition used by RunFederation. Helper for
// preparing test-set slices inside `body`.
std::vector<std::vector<double>> SliceRowsForParty(const Dataset& data,
                                                   int party, int num_parties);

// ----- real multi-process deployment (pivot_cli party mode) ------------

// Configuration of ONE party process in a multi-process federation. Every
// process loads the full dataset and partitions it deterministically
// (PartitionVertically keyed on nothing but the data), and derives the
// threshold keys from params.run_seed — so no out-of-band exchange is
// needed and the final model is bit-identical to the single-process run.
struct PartyConfig : RunnerConfig {
  // A peer crash surfaces here as an abort (changed handshake
  // incarnation); each retry tears the mesh down, rebinds the same
  // address and re-establishes. Several attempts can be burned while
  // processes converge on a fresh mesh, so the default budget is more
  // generous than the in-process one.
  PartyConfig() { max_restarts = 5; }

  int party_id = 0;
  // addresses[j] = party j's listen address ("host:port" or "unix:PATH").
  // This party binds its own entry and dials/accepts the rest by rank.
  std::vector<std::string> addresses;
  // Directory for this party's persistent checkpoint store
  // (<dir>/party<id>.ckpt). When set, snapshots survive a process
  // SIGKILL: the relaunched process reloads the store and rejoins the
  // federation at the negotiated min-index. Empty = in-memory
  // checkpoints only (restarts within the process still resume).
  std::string checkpoint_dir;

  // ----- orchestrator control hooks (all optional) ---------------------
  // Wired by `pivot_cli party --control-fd/--go-fd` when the process runs
  // under the federation orchestrator (src/orchestrator/); all default to
  // unset for standalone parties.
  //
  // Called after the socket mesh is fully established, before `body`
  // runs: the party reports READY over the control pipe and blocks at
  // the readiness barrier until the orchestrator answers GO. `aborted`
  // polls this attempt's mesh abort flag so a peer dying at the barrier
  // fails the attempt promptly instead of waiting out the GO deadline.
  // A non-ok return fails the attempt (and is retried like any other
  // attempt failure).
  std::function<Status(int attempt, const std::function<bool()>& aborted)>
      on_mesh_ready;
  // Invoked about once per heartbeat interval from the supervisor thread
  // while the mesh is up; exports liveness to the orchestrator's stall
  // detector. Must be cheap and must not block.
  std::function<void()> on_alive;
  // Polled from the supervisor tick and between attempts. Returning true
  // aborts the mesh (waking any blocked Recv within a heartbeat) and
  // stops the attempt loop without burning retries: graceful shutdown.
  std::function<bool()> shutdown_requested;
};

// Runs one party of a multi-process federation over the socket transport:
// binds, establishes the mesh, then executes `body(ctx)` with this
// party's view, restarting (up to max_restarts) on failures so the
// surviving processes ride out a peer crash + relaunch. The party always
// checkpoints into its own store, on disk when checkpoint_dir is set.
// Returns the final attempt's status. `stats` (optional) accumulates this
// process's traffic across attempts.
Status RunPartyFederation(const VerticalPartition& partition,
                          const PartyConfig& cfg,
                          const std::function<Status(PartyContext&)>& body,
                          NetworkStats* stats = nullptr);

}  // namespace pivot

#endif  // PIVOT_PIVOT_RUNNER_H_
