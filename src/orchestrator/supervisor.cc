#include "orchestrator/supervisor.h"

#include <algorithm>
#include <utility>

#include "common/check.h"

namespace pivot {
namespace orch {

const char* PartyPhaseName(PartyPhase phase) {
  switch (phase) {
    case PartyPhase::kIdle:
      return "idle";
    case PartyPhase::kLaunching:
      return "launching";
    case PartyPhase::kWaiting:
      return "waiting-at-barrier";
    case PartyPhase::kRunning:
      return "running";
    case PartyPhase::kRestarting:
      return "restarting";
    case PartyPhase::kBackoff:
      return "backoff";
    case PartyPhase::kDone:
      return "done";
    case PartyPhase::kFailed:
      return "failed";
  }
  return "unknown";
}

ProcessSupervisor::ProcessSupervisor(int num_parties,
                                     ProcessSupervisorConfig config,
                                     Callbacks callbacks)
    : num_parties_(num_parties),
      config_(config),
      callbacks_(std::move(callbacks)),
      parties_(num_parties) {
  PIVOT_CHECK(num_parties >= 1);
}

Status ProcessSupervisor::HandleCrashLocked(PartySlot& slot, int party,
                                            int64_t now_ms) {
  if (slot.last_exit_code == kConfigErrorExit) {
    slot.phase = PartyPhase::kFailed;
    return Status::InvalidArgument(
        "party " + std::to_string(party) +
        " failed on a configuration error (" + slot.last_exit +
        "); a restart would fail the same way, tearing the federation "
        "down");
  }
  if (slot.restarts >= config_.max_restarts) {
    slot.phase = PartyPhase::kFailed;
    return Status::ProtocolError(
        "party " + std::to_string(party) + " is beyond recovery: " +
        slot.last_exit + " with the restart budget exhausted (" +
        std::to_string(slot.restarts) + "/" +
        std::to_string(config_.max_restarts) +
        " restarts used); tearing the federation down");
  }
  ++slot.restarts;
  // Deterministic exponential backoff, same shape as the connection
  // supervisor's redial schedule: base, 2*base, ... capped at max.
  int64_t backoff = config_.backoff_base_ms;
  for (int i = 1; i < slot.restarts && backoff < config_.backoff_max_ms; ++i) {
    backoff *= 2;
  }
  slot.backoff_ms =
      static_cast<int>(std::min<int64_t>(backoff, config_.backoff_max_ms));
  slot.respawn_at_ms = now_ms + slot.backoff_ms;
  slot.phase = PartyPhase::kBackoff;
  return Status::Ok();
}

int64_t ProcessSupervisor::SyncedRespawnLocked(int64_t now_ms) const {
  // A generation restarts together: every respawn lands at (or after)
  // the latest pending one, so all processes cold-start in the same
  // window and the mesh forms the way a first launch does.
  int64_t at = now_ms + config_.backoff_base_ms;
  for (const PartySlot& slot : parties_) {
    if (slot.phase == PartyPhase::kBackoff) {
      at = std::max(at, slot.respawn_at_ms);
    }
  }
  return at;
}

void ProcessSupervisor::NoteExited(int party, int exit_code,
                                   const std::string& detail, int64_t now_ms) {
  PIVOT_CHECK(party >= 0 && party < num_parties_);
  Status escalation = Status::Ok();
  std::vector<std::pair<int, int>> restart_requests;  // (party, pid)
  {
    std::lock_guard<std::mutex> lock(mu_);
    PartySlot& slot = parties_[party];
    slot.pid = -1;
    slot.kill_sent = false;
    slot.last_exit_code = exit_code;
    slot.last_exit = detail;
    if (quiesced_) {
      // Teardown reap: record the facts, no state machinery. Exit 0
      // still counts as done so a clean finish during teardown reads
      // correctly in the report.
      if (exit_code == 0) slot.phase = PartyPhase::kDone;
      return;
    }
    if (slot.phase == PartyPhase::kDone || slot.phase == PartyPhase::kFailed) {
      return;  // late reap after teardown decisions were already made
    }
    if (slot.phase == PartyPhase::kRestarting) {
      // Collateral exit from a generation restart: budget-free respawn,
      // synced to the generation start. The usual exit here is 3
      // (graceful, checkpoints persisted); 128+SIGKILL after the grace
      // deadline — or a chaos kill racing the request — lands here too
      // and is deliberately also free: checkpoints persist after every
      // mutation, so the resume is identical either way.
      slot.phase = PartyPhase::kBackoff;
      slot.backoff_ms = config_.backoff_base_ms;
      slot.respawn_at_ms = SyncedRespawnLocked(now_ms);
      return;
    }
    if (exit_code == 0) {
      slot.phase = PartyPhase::kDone;
      return;
    }
    escalation = HandleCrashLocked(slot, party, now_ms);
    if (escalation.ok()) {
      // The crash dooms the whole mesh generation (fresh handshake
      // incarnations abort every survivor's attempt — see the header):
      // ask every live peer to restart too, budget-free.
      for (int q = 0; q < num_parties_; ++q) {
        if (q == party) continue;
        PartySlot& peer = parties_[q];
        switch (peer.phase) {
          case PartyPhase::kLaunching:
          case PartyPhase::kWaiting:
          case PartyPhase::kRunning:
            peer.phase = PartyPhase::kRestarting;
            peer.kill_sent = false;
            peer.restart_deadline_ms = now_ms + config_.restart_grace_ms;
            restart_requests.emplace_back(q, peer.pid);
            break;
          case PartyPhase::kDone:
            // Resume needs every party at the table; a finished party
            // replays deterministically to the same model bytes.
            peer.phase = PartyPhase::kBackoff;
            peer.backoff_ms = config_.backoff_base_ms;
            peer.respawn_at_ms = slot.respawn_at_ms;
            break;
          case PartyPhase::kIdle:
          case PartyPhase::kRestarting:
          case PartyPhase::kBackoff:
          case PartyPhase::kFailed:
            break;  // already down or already on the way back
        }
      }
    }
  }
  for (const auto& [q, pid] : restart_requests) {
    if (callbacks_.request_restart) callbacks_.request_restart(q, pid);
  }
  if (!escalation.ok() && callbacks_.escalate) {
    callbacks_.escalate(party, escalation);
  }
}

void ProcessSupervisor::Quiesce() {
  std::lock_guard<std::mutex> lock(mu_);
  quiesced_ = true;
}

void ProcessSupervisor::NoteReady(int party, const std::string& nonce,
                                  int64_t now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  PartySlot& slot = parties_[party];
  slot.last_control_ms = now_ms;
  if (slot.phase != PartyPhase::kLaunching &&
      slot.phase != PartyPhase::kRunning &&
      slot.phase != PartyPhase::kWaiting) {
    return;  // READY from a process we already gave up on
  }
  // A kRunning party re-entering READY means its attempt failed (a peer
  // died) and the rebuilt mesh is up again: it re-arms the barrier.
  slot.phase = PartyPhase::kWaiting;
  slot.ready_nonce = nonce;
}

void ProcessSupervisor::NoteControl(int party, int64_t now_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  parties_[party].last_control_ms = now_ms;
}

int ProcessSupervisor::Tick(int64_t now_ms) {
  struct Kill {
    int party;
    int pid;
    std::string reason;
  };
  struct Go {
    int party;
    std::string nonce;
  };
  std::vector<int> spawns;
  std::vector<Kill> kills;
  std::vector<Go> gos;
  int64_t next_due = now_ms + 100;  // sleep-hint cap

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (quiesced_) return 100;  // teardown owns the processes now
    // The barrier is open while no party is down (unspawned, mid-launch,
    // in backoff, or beyond recovery). It is NOT "all parties waiting":
    // requiring global simultaneity deadlocks on the READY/GO race —
    // a party whose attempt dies between READY and GO re-arms its
    // barrier while a peer that accepted its GO is already running
    // (blocked in Recv on the waiting parties), so "all waiting" can
    // never become true again. Releasing against {waiting, running,
    // done} peers keeps the guarantee that matters — training never
    // starts while a peer is down — and the worst a premature GO can
    // cost is one attempt that aborts and re-enters the barrier.
    bool barrier_open = true;
    for (int p = 0; p < num_parties_; ++p) {
      const PartyPhase phase = parties_[p].phase;
      if (phase != PartyPhase::kWaiting && phase != PartyPhase::kRunning &&
          phase != PartyPhase::kDone) {
        barrier_open = false;
      }
    }
    for (int p = 0; p < num_parties_; ++p) {
      PartySlot& slot = parties_[p];
      switch (slot.phase) {
        case PartyPhase::kIdle:
          spawns.push_back(p);
          break;
        case PartyPhase::kLaunching: {
          const int64_t deadline =
              slot.spawned_at_ms + config_.ready_timeout_ms;
          if (!slot.kill_sent && now_ms >= deadline) {
            slot.kill_sent = true;
            kills.push_back(
                {p, slot.pid,
                 "party " + std::to_string(p) + " did not report READY "
                 "within " + std::to_string(config_.ready_timeout_ms) +
                 " ms of spawn; force-killing it"});
          }
          next_due = std::min(next_due, deadline);
          break;
        }
        case PartyPhase::kWaiting:
        case PartyPhase::kRunning: {
          const int64_t deadline =
              slot.last_control_ms + config_.stall_timeout_ms;
          if (!slot.kill_sent && now_ms >= deadline) {
            slot.kill_sent = true;
            kills.push_back(
                {p, slot.pid,
                 "party " + std::to_string(p) + " sent no control traffic "
                 "for " + std::to_string(now_ms - slot.last_control_ms) +
                 " ms (stall timeout " +
                 std::to_string(config_.stall_timeout_ms) +
                 " ms): process is alive but wedged; force-killing it"});
          }
          next_due = std::min(next_due, deadline);
          break;
        }
        case PartyPhase::kRestarting: {
          const int64_t deadline = slot.restart_deadline_ms;
          if (!slot.kill_sent && now_ms >= deadline) {
            slot.kill_sent = true;
            kills.push_back(
                {p, slot.pid,
                 "party " + std::to_string(p) + " did not exit within " +
                 std::to_string(config_.restart_grace_ms) +
                 " ms of a generation-restart request; force-killing it"});
          }
          next_due = std::min(next_due, deadline);
          break;
        }
        case PartyPhase::kBackoff:
          if (now_ms >= slot.respawn_at_ms) {
            spawns.push_back(p);
          }
          next_due = std::min(next_due, slot.respawn_at_ms);
          break;
        case PartyPhase::kDone:
        case PartyPhase::kFailed:
          break;
      }
    }
    if (barrier_open) {
      for (int p = 0; p < num_parties_; ++p) {
        if (parties_[p].phase == PartyPhase::kWaiting) {
          gos.push_back({p, parties_[p].ready_nonce});
          parties_[p].phase = PartyPhase::kRunning;
        }
      }
    }
  }

  // Side effects run without the lock: spawn forks, force_kill and
  // send_go do I/O, and all of them may feed events straight back in.
  std::vector<std::pair<int, Result<int>>> spawned;
  spawned.reserve(spawns.size());
  for (int p : spawns) {
    if (!callbacks_.spawn) continue;
    spawned.emplace_back(p, callbacks_.spawn(p));
  }
  for (const Kill& k : kills) {
    if (callbacks_.force_kill) callbacks_.force_kill(k.party, k.pid, k.reason);
  }
  for (const Go& g : gos) {
    if (callbacks_.send_go) callbacks_.send_go(g.party, g.nonce);
  }

  std::vector<std::pair<int, Status>> failed_spawns;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto& [p, result] : spawned) {
      PartySlot& slot = parties_[p];
      if (result.ok()) {
        slot.phase = PartyPhase::kLaunching;
        slot.pid = result.value();
        slot.spawned_at_ms = now_ms;
        slot.last_control_ms = now_ms;
        slot.kill_sent = false;
        slot.ready_nonce.clear();
      } else {
        // A spawn error is an immediate crash: it burns a restart and
        // escalates once the budget is gone, like any other exit.
        slot.last_exit_code = 127;
        slot.last_exit = "spawn failed: " + result.status().ToString();
        const Status st = HandleCrashLocked(slot, p, now_ms);
        if (!st.ok()) failed_spawns.emplace_back(p, st);
      }
    }
  }
  for (const auto& [p, st] : failed_spawns) {
    if (callbacks_.escalate) callbacks_.escalate(p, st);
  }

  return static_cast<int>(std::clamp<int64_t>(next_due - now_ms, 1, 100));
}

PartyStatus ProcessSupervisor::Describe(int party) const {
  std::lock_guard<std::mutex> lock(mu_);
  const PartySlot& slot = parties_[party];
  PartyStatus status;
  status.phase = slot.phase;
  status.pid = slot.pid;
  status.restarts = slot.restarts;
  status.last_exit_code = slot.last_exit_code;
  status.last_exit = slot.last_exit;
  return status;
}

int ProcessSupervisor::PartyForPid(int pid) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (int p = 0; p < num_parties_; ++p) {
    if (parties_[p].pid == pid) return p;
  }
  return -1;
}

bool ProcessSupervisor::AllDone() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const PartySlot& slot : parties_) {
    if (slot.phase != PartyPhase::kDone) return false;
  }
  return true;
}

bool ProcessSupervisor::AnyFailed() const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const PartySlot& slot : parties_) {
    if (slot.phase == PartyPhase::kFailed) return true;
  }
  return false;
}

}  // namespace orch
}  // namespace pivot
