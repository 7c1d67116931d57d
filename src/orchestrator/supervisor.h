#ifndef PIVOT_ORCHESTRATOR_SUPERVISOR_H_
#define PIVOT_ORCHESTRATOR_SUPERVISOR_H_

#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace pivot {
namespace orch {

// Process-level supervision state machine (DESIGN.md, "Orchestration
// model"): the process twin of net/supervisor.h's ConnectionSupervisor,
// with the same architecture — a passive state machine that owns no
// thread, no pid and no pipe. The orchestrator's supervise loop calls
// Tick(now_ms) and feeds it events (NoteExited / NoteReady /
// NoteControl); every side effect (spawning a party, force-killing a
// stalled one, releasing the readiness barrier, escalating to teardown)
// goes through the Callbacks struct. That keeps restart budgets,
// deterministic backoff and barrier release unit-testable with fake
// clocks and recording callbacks (tests/orchestrator_test.cc), exactly
// like the connection supervisor's Tick tests.
//
// Per-party lifecycle:
//
//   kIdle ──spawn──► kLaunching ──READY──► kWaiting ──GO──► kRunning
//     ▲                  │ ready timeout       │                │ READY again
//     │                  ▼ (SIGKILL)           │ exit           │ (peer died,
//     │              [exit event]◄─────────────┘◄── stall ──────┤  mesh rebuilt)
//     │                  │                          (SIGKILL)   ▼
//     ├──backoff──── kBackoff ◄── budget left ── exit!=0 ◄── kWaiting
//     │                  │            │
//     │                  │            └─ every live PEER ──► kRestarting
//     │                  │                (SIGTERM; exits are budget-free)
//     │                  │                       │ exit (any code)
//     │                  └── budget ◄────────────┘
//     │                      exhausted ──► kFailed (escalate, naming
//     │                                    the crashed party)
//     └── kRestarting exits respawn here, synced to the generation start
//   exit 0 from any phase ──► kDone
//
// The readiness barrier: a party reports READY once its socket mesh is
// fully established (every peer connected), then blocks until the
// orchestrator answers GO. A slow-starting or respawned party cannot
// burn its peers' in-process retry budgets, because peers wait at the
// barrier instead of timing out against a half-up mesh.
//
// Generation restart: a crash dooms the whole mesh generation, not just
// the crashed party. Handshakes are incarnation-stamped (net/socket.h),
// so the respawned process's fresh incarnation aborts every survivor's
// established attempt; survivors then redial with fresh incarnations of
// their own, aborting each other in turn. Letting survivors ride that
// out is a livelock: convergence needs all parties' final attempts to
// establish in one overlapping window, which staggered respawns never
// reliably produce (observed: in-process attempt budgets burned, 60 s
// wedges, 18 barrier releases without convergence). Instead the
// supervisor treats the crash as fatal to the generation: the crashed
// party burns one restart and backs off as usual, and every live peer
// is asked to restart too (SIGTERM -> graceful exit with checkpoints
// persisted -> budget-FREE respawn, synced to the crashed party's
// respawn time). All processes then cold-start together — the one mesh
// formation case that is deterministic — and resume from the min-index
// checkpoint, bit-identical. Budget-free collateral exits keep the
// restart budget attributing blame to the party that actually crashed.
// A kDone peer is pulled back in the same way (no process to SIGTERM;
// it just respawns): resume needs every party, and a finished party
// replays deterministically to the same model bytes.
//
// Release rule: a waiting party is released as soon as NO party is down
// (every phase is kWaiting/kRunning/kDone) — deliberately weaker than
// "all parties waiting". Strict simultaneity deadlocks on the READY/GO
// race: a party whose mesh attempt dies between sending READY and
// reading GO re-arms its barrier with a fresh nonce, while a peer that
// accepted its own GO is already kRunning, blocked in Recv on the
// waiting parties — so "all waiting" would never hold again. With the
// weaker rule the late party is simply released into the live mesh; if
// that mesh generation is already doomed the attempt aborts and
// re-enters the barrier, costing one retry instead of a deadlock.

struct ProcessSupervisorConfig {
  // Respawns per party beyond its first launch; exhaustion escalates.
  int max_restarts = 3;
  // Deterministic exponential respawn backoff: base * 2^(restart-1),
  // capped at max. No jitter — chaos runs must replay identically.
  int backoff_base_ms = 250;
  int backoff_max_ms = 2'000;
  // Spawn -> READY deadline; a party that cannot bring its mesh up in
  // time is SIGKILLed and treated as crashed (burns a restart).
  int ready_timeout_ms = 60'000;
  // Control-pipe silence while running; a live-but-mute process (hung,
  // or SIGSTOPped by the chaos driver) is SIGKILLed and respawned, so a
  // wedged party converges to the same crash-resume path.
  int stall_timeout_ms = 60'000;
  // SIGTERM -> exit deadline for a collateral generation restart; a
  // party that ignores the request is SIGKILLed (still budget-free).
  int restart_grace_ms = 5'000;
};

enum class PartyPhase {
  kIdle,        // not yet spawned
  kLaunching,   // spawned; establishing the mesh, READY not yet seen
  kWaiting,     // READY received; blocked on the GO barrier
  kRunning,     // GO sent; training
  kRestarting,  // a peer crashed; asked to exit for a generation restart
  kBackoff,     // exited abnormally; respawn scheduled
  kDone,        // exited 0
  kFailed,      // restart budget exhausted; escalated
};

const char* PartyPhaseName(PartyPhase phase);

// Exit code of a party whose run failed on its configuration (`pivot_cli
// party` on InvalidArgument or FailedPrecondition, e.g. labels out of
// range). A relaunch would fail the same way, so the supervisor escalates
// at once: no respawn, no restart budget spent.
inline constexpr int kConfigErrorExit = 5;

// Snapshot of one party's supervision state, for reports and tests.
struct PartyStatus {
  PartyPhase phase = PartyPhase::kIdle;
  int pid = -1;             // -1 when no live process
  int restarts = 0;         // respawns consumed
  int last_exit_code = -1;  // -1 = none yet; signals encoded as 128+sig
  std::string last_exit;    // human-readable last exit description
};

class ProcessSupervisor {
 public:
  struct Callbacks {
    // Launch party `party`'s process; returns its pid. A spawn error is
    // treated like an immediate crash (burns a restart).
    std::function<Result<int>(int party)> spawn;
    // Force-kill a party that missed its ready deadline or stalled.
    std::function<void(int party, int pid, const std::string& reason)>
        force_kill;
    // Release the barrier for one party: answer its `nonce` READY with GO.
    std::function<void(int party, const std::string& nonce)> send_go;
    // Ask a live peer of a crashed party to exit for a generation
    // restart (SIGTERM; its subsequent exit is budget-free).
    std::function<void(int party, int pid)> request_restart;
    // Restart budget exhausted: escalate to federation teardown. `cause`
    // names the party and why it is beyond recovery.
    std::function<void(int party, const Status& cause)> escalate;
  };

  ProcessSupervisor(int num_parties, ProcessSupervisorConfig config,
                    Callbacks callbacks);

  // Event feed from the supervise loop.
  // A reaped child. `exit_code` is the wait status description: for a
  // normal exit the code, for a signal death 128+signo (shell
  // convention); `detail` is a human-readable description for reports.
  void NoteExited(int party, int exit_code, const std::string& detail,
                  int64_t now_ms);
  // Party reported READY over the control pipe with barrier nonce.
  void NoteReady(int party, const std::string& nonce, int64_t now_ms);
  // Any control-pipe traffic from the party (HELLO/ALIVE/BYE): feeds the
  // stall detector.
  void NoteControl(int party, int64_t now_ms);

  // Teardown has been decided: from here on NoteExited only records exit
  // facts for the report (exit 0 still lands in kDone) — no respawns, no
  // budget burn, no generation restarts from the teardown SIGTERMs.
  void Quiesce();

  // One supervision pass: spawns parties that are due (first launch or
  // backoff expiry), kills ready-timeout and stall offenders, releases
  // the barrier when every party is waiting at it, escalates exhausted
  // budgets. Returns a sleep hint in ms (1..backoff_base_ms).
  int Tick(int64_t now_ms);

  PartyStatus Describe(int party) const;
  // pid -> party for reap routing; -1 if unknown.
  int PartyForPid(int pid) const;
  // True when every party reached kDone.
  bool AllDone() const;
  // True when any party reached kFailed.
  bool AnyFailed() const;

  const ProcessSupervisorConfig& config() const { return config_; }

 private:
  struct PartySlot {
    PartyPhase phase = PartyPhase::kIdle;
    int pid = -1;
    int restarts = 0;
    int backoff_ms = 0;
    int64_t respawn_at_ms = 0;   // valid in kBackoff
    int64_t restart_deadline_ms = 0;  // valid in kRestarting
    int64_t spawned_at_ms = 0;   // valid from spawn
    int64_t last_control_ms = 0;
    std::string ready_nonce;     // valid in kWaiting
    bool kill_sent = false;      // force-kill issued, waiting for reap
    int last_exit_code = -1;
    std::string last_exit;
  };

  // Marks an abnormal exit: either schedules a respawn (budget left) or
  // flips to kFailed and returns the escalation status. A configuration
  // error (kConfigErrorExit) always fails, without spending the budget.
  Status HandleCrashLocked(PartySlot& slot, int party, int64_t now_ms);
  // Respawn time for a budget-free generation-restart exit: no earlier
  // than any pending respawn, so the generation cold-starts together.
  int64_t SyncedRespawnLocked(int64_t now_ms) const;

  int num_parties_;
  ProcessSupervisorConfig config_;
  Callbacks callbacks_;
  mutable std::mutex mu_;
  bool quiesced_ = false;
  std::vector<PartySlot> parties_;
};

}  // namespace orch
}  // namespace pivot

#endif  // PIVOT_ORCHESTRATOR_SUPERVISOR_H_
