#ifndef PIVOT_ORCHESTRATOR_ORCHESTRATOR_H_
#define PIVOT_ORCHESTRATOR_ORCHESTRATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "orchestrator/fault.h"
#include "orchestrator/process.h"
#include "orchestrator/spec.h"
#include "orchestrator/supervisor.h"

namespace pivot {
namespace orch {

// The federation orchestrator: turns an N-party federation into one
// command. It renders per-party command lines from a FederationSpec,
// spawns one `pivot_cli party` process per party with captured logs,
// and runs a strictly single-threaded supervise loop that
//
//   - drains the per-party control pipes (HELLO/READY/ALIVE/BYE),
//   - reaps exited children (waitpid, non-blocking),
//   - fires due process-level chaos faults (SIGKILL/SIGSTOP/...),
//   - ticks the ProcessSupervisor (respawns with deterministic backoff,
//     ready/stall force-kills, barrier release, budget escalation),
//
// until every party exits 0 (success), a restart budget is exhausted
// (teardown naming the root-cause party), the deadline passes, or the
// operator interrupts it. Teardown is always graceful-first: SIGTERM to
// every live party, a term_grace_ms wait for checkpoint-flush + exit,
// then SIGKILL for stragglers — no process outlives the orchestrator.
//
// Single-threadedness is load-bearing: it is what makes fork() safe
// (see process.h) and it means every decision in the loop is ordered,
// so a chaos run driven by a seeded ProcFaultPlan is reproducible.
//
// Progress goes to stderr; results go into the returned report and a
// report.json in the workdir. Nothing here prints to stdout (the
// secret-print lint rule applies to src/ as usual).

struct OrchestratorOptions {
  FederationSpec spec;
  // Absolute run directory: children chdir here, so every relative path
  // in the spec (out, checkpoint_dir) is isolated per run. Holds
  // logs/party<i>.{out,err}.log, auto-assigned unix sockets, report.json.
  std::string workdir;
  // Path to the pivot_cli binary used for party processes.
  std::string cli;
  // Deterministic process-fault schedule; empty = fault-free run.
  ProcFaultPlan faults;
  // Whole-federation wall-clock budget; 0 = unlimited. Exceeding it
  // triggers teardown with a deadline root cause.
  int64_t deadline_ms = 0;
  // Polled each loop pass; true => graceful teardown, exit code 4. The
  // CLI wires its SIGTERM/SIGINT flag in here.
  std::function<bool()> interrupted;
};

struct PartyOutcome {
  int party = 0;
  std::string phase;        // final PartyPhaseName
  int restarts = 0;         // respawns consumed
  int last_exit_code = -1;  // signals encoded as 128+sig
  std::string last_exit;
  std::string log_path;     // captured stderr
  std::string model_path;   // this party's model view
  std::string model_sha256; // empty when the view was never written
};

struct OrchestratorReport {
  bool ok = false;
  bool interrupted = false;
  int root_cause_party = -1;   // -1 when no single party is to blame
  std::string root_cause;      // empty on success
  int64_t wall_ms = 0;
  // SHA256 over the concatenated per-party view digests: one string
  // that two orchestrated runs can compare for bit-identity.
  std::string model_fingerprint;
  std::vector<PartyOutcome> parties;
  std::string report_path;     // the report.json written in the workdir

  // 0 = success, 4 = interrupted by the operator, 1 = any other failure.
  int ExitCode() const;
};

class Orchestrator {
 public:
  explicit Orchestrator(OrchestratorOptions options);
  ~Orchestrator();

  Orchestrator(const Orchestrator&) = delete;
  Orchestrator& operator=(const Orchestrator&) = delete;

  // Runs the federation to completion. Infrastructure errors (bad
  // workdir, pipe exhaustion) surface as a Status; protocol-level
  // failures (budget exhaustion, deadline) come back as a report with
  // ok=false and a root cause.
  Result<OrchestratorReport> Run();

 private:
  struct PartyIo {
    Pipe control;        // child writes, orchestrator reads (non-blocking)
    Pipe go;             // orchestrator writes, child reads
    std::string buffer;  // partial control line carried across reads
    std::string failed;  // text of the last FAILED line, until its exit
  };

  Result<int> SpawnParty(int party);
  void DrainControl(int64_t now_ms);
  void ReapAll(int64_t now_ms);
  void FireFaults(int64_t elapsed_ms);
  // SIGTERM every live party, wait term_grace_ms, SIGKILL stragglers.
  void Teardown(const char* why);
  void CollectModels(OrchestratorReport& report);
  void WriteReport(OrchestratorReport& report);

  OrchestratorOptions options_;
  std::vector<PartyIo> io_;
  std::unique_ptr<ProcessSupervisor> supervisor_;
  // Set by the escalate callback; first escalation wins.
  int failed_party_ = -1;
  Status failure_ = Status::Ok();
};

}  // namespace orch
}  // namespace pivot

#endif  // PIVOT_ORCHESTRATOR_ORCHESTRATOR_H_
