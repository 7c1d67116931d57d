#ifndef PIVOT_ORCHESTRATOR_SPEC_H_
#define PIVOT_ORCHESTRATOR_SPEC_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace pivot {
namespace orch {

// One federation, one file (DESIGN.md, "Orchestration model"). The spec
// names every knob an N-party deployment needs — parties, endpoints,
// data/checkpoint/model paths, training parameters, and the supervision
// budgets — and the orchestrator renders it into one `pivot_cli party`
// command line per party. Paths in the spec may be relative; the
// orchestrator runs every party with its working directory set to the
// run's --workdir, so relative out/checkpoint paths land there while a
// shared absolute data path can be reused across runs.
//
// Format: line-based `key = value`, `#` comments, blank lines ignored.
// Unknown keys are an error (a typo silently falling back to a default
// is how a 3-party chaos run quietly trains with the wrong depth).
//
//   parties = 3              # number of party processes
//   data = /abs/train.csv    # training CSV (headerless, label last)
//   out = model              # model prefix -> model.party<i>.bin
//   checkpoint_dir = ckpt    # per-party persistent checkpoint stores
//   address.0 = unix:/tmp/p0.sock   # optional; default: per-run unix
//   address.1 = 127.0.0.1:9100      # sockets under the workdir
//   task = classification    # or regression
//   depth = 4
//   splits = 8
//   classes = 0              # 0 = derive from the data
//   protocol = basic         # or enhanced
//   key_bits = 0             # 0 = protocol default
//   crypto_threads = 0       # per-party crypto fan-out; 0 = auto
//   super = 0                # the label-holding super client
//   party_max_restarts = 5   # in-process attempt budget per party
//   max_restarts = 3         # process-level respawns per party
//   backoff_base_ms = 250    # deterministic exponential respawn backoff
//   backoff_max_ms = 2000
//   ready_timeout_ms = 60000 # spawn -> READY deadline
//   stall_timeout_ms = 60000 # control-pipe silence => hung, SIGKILL
//   term_grace_ms = 5000     # SIGTERM -> SIGKILL teardown grace
//   go_timeout_ms = 120000   # party-side READY -> GO barrier deadline
//   cli =                    # pivot_cli path override (default: self)

struct FederationSpec {
  int parties = 3;
  int super_client = 0;
  std::string data;
  std::string out = "model";
  std::string checkpoint_dir = "ckpt";
  // addresses[i] = party i's listen address; empty = auto unix sockets
  // under the orchestrator's workdir.
  std::vector<std::string> addresses;

  // Training parameters, forwarded verbatim to `pivot_cli party`.
  std::string task = "classification";
  int classes = 0;
  int depth = 4;
  int splits = 8;
  std::string protocol = "basic";
  int key_bits = 0;
  // 0 = auto: the orchestrator's CPUs split evenly over the party
  // processes it spawns (PartyCryptoThreads); at most kMaxCryptoThreads.
  int crypto_threads = 0;
  int party_max_restarts = 5;

  // Process supervision budgets (DESIGN.md, "Orchestration model").
  int max_restarts = 3;
  int backoff_base_ms = 250;
  int backoff_max_ms = 2'000;
  int ready_timeout_ms = 60'000;
  int stall_timeout_ms = 60'000;
  int term_grace_ms = 5'000;
  int go_timeout_ms = 120'000;

  std::string cli;
};

// Parses the spec text. Unknown keys, malformed integers, out-of-range
// addresses and inconsistent party counts are errors.
Result<FederationSpec> ParseFederationSpec(const std::string& text);

// Reads and parses a spec file.
Result<FederationSpec> LoadFederationSpec(const std::string& path);

// Validates cross-field invariants (party count vs addresses vs super
// client, budgets non-negative). Parse runs this; the orchestrator runs
// it again after filling default addresses.
[[nodiscard]] Status ValidateFederationSpec(const FederationSpec& spec);

// The --crypto-threads value every party process is started with: the
// spec's crypto_threads, or for 0 (auto) max(1, AvailableCpus() /
// parties), since the parties share this host's CPUs.
int PartyCryptoThreads(const FederationSpec& spec);

// Renders party `i`'s full command line (argv[0] = `cli`). `control_fd`
// and `go_fd` are the child's inherited control-protocol descriptors
// (child -> orchestrator readiness/heartbeats, orchestrator -> child GO
// barrier release); pass -1 to omit, which yields a standalone party
// command usable without an orchestrator. Requires spec.addresses to be
// fully populated.
std::vector<std::string> PartyCommand(const FederationSpec& spec, int party,
                                      const std::string& cli, int control_fd,
                                      int go_fd);

}  // namespace orch
}  // namespace pivot

#endif  // PIVOT_ORCHESTRATOR_SPEC_H_
