#include "orchestrator/orchestrator.h"

#include <errno.h>
#include <signal.h>
#include <sys/stat.h>

#include <algorithm>
#include <cstdio>
#include <utility>

#include "common/sha256.h"
#include "pivot/serialize.h"

namespace pivot {
namespace orch {

namespace {

// The loop's sleep granularity bounds fault-injection timing skew: a
// fault scheduled at T fires within [T, T + kLoopSliceMs + one tick).
constexpr int kLoopSliceMs = 20;

Status EnsureDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::Ok();
  }
  return Status::IoError("mkdir failed: " + path);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

// Resolves a spec-relative path against the workdir, the same way the
// chdir'd children see it.
std::string ResolvePath(const std::string& workdir, const std::string& path) {
  if (path.empty() || path.front() == '/') return path;
  return workdir + "/" + path;
}

}  // namespace

int OrchestratorReport::ExitCode() const {
  if (ok) return 0;
  if (interrupted) return 4;
  return 1;
}

Orchestrator::Orchestrator(OrchestratorOptions options)
    : options_(std::move(options)) {}

Orchestrator::~Orchestrator() {
  for (PartyIo& io : io_) {
    ClosePipe(io.control);
    ClosePipe(io.go);
  }
}

Result<int> Orchestrator::SpawnParty(int party) {
  const FederationSpec& spec = options_.spec;
  ChildSpec child;
  child.argv = PartyCommand(spec, party, options_.cli,
                            io_[party].control.write_fd,
                            io_[party].go.read_fd);
  child.cwd = options_.workdir;
  child.stdout_path =
      options_.workdir + "/logs/party" + std::to_string(party) + ".out.log";
  child.stderr_path =
      options_.workdir + "/logs/party" + std::to_string(party) + ".err.log";
  child.inherit_fds = {io_[party].control.write_fd, io_[party].go.read_fd};
  Result<int> pid = SpawnChild(child);
  if (pid.ok()) {
    std::fprintf(stderr, "orchestrator: party %d spawned (pid %d)\n", party,
                 pid.value());
  } else {
    std::fprintf(stderr, "orchestrator: party %d spawn failed: %s\n", party,
                 pid.status().ToString().c_str());
  }
  return pid;
}

void Orchestrator::DrainControl(int64_t now_ms) {
  for (int p = 0; p < options_.spec.parties; ++p) {
    PartyIo& io = io_[p];
    const std::string chunk = ReadAvailable(io.control.read_fd);
    if (chunk.empty()) continue;
    io.buffer += chunk;
    size_t start = 0;
    for (;;) {
      const size_t nl = io.buffer.find('\n', start);
      if (nl == std::string::npos) break;
      const std::string line = io.buffer.substr(start, nl - start);
      start = nl + 1;
      if (line.rfind("READY nonce=", 0) == 0) {
        supervisor_->NoteReady(p, line.substr(12), now_ms);
      } else if (!line.empty()) {
        // HELLO / ALIVE / FAILED / BYE all count as liveness for the
        // stall clock.
        if (line.rfind("FAILED ", 0) == 0) io.failed = line.substr(7);
        supervisor_->NoteControl(p, now_ms);
      }
    }
    io.buffer.erase(0, start);
  }
}

void Orchestrator::ReapAll(int64_t now_ms) {
  for (;;) {
    Result<ExitEvent> ev = ReapChild();
    if (!ev.ok()) break;  // NotFound = nothing waiting; errors end the pass
    const int party = supervisor_->PartyForPid(ev.value().pid);
    if (party < 0) {
      std::fprintf(stderr, "orchestrator: reaped unknown pid %d (%s)\n",
                   ev.value().pid, ev.value().Describe().c_str());
      continue;
    }
    const int code = ev.value().exited ? ev.value().exit_code
                                       : 128 + ev.value().signal;
    // The party wrote its FAILED line before exiting, so after the reap
    // it is in the pipe.
    DrainControl(now_ms);
    std::string detail = ev.value().Describe();
    if (!io_[party].failed.empty()) {
      detail += ": " + io_[party].failed;
      io_[party].failed.clear();
    }
    std::fprintf(stderr, "orchestrator: party %d (pid %d) %s\n", party,
                 ev.value().pid, detail.c_str());
    supervisor_->NoteExited(party, code, detail, now_ms);
  }
}

void Orchestrator::FireFaults(int64_t elapsed_ms) {
  for (const ProcFault& fault : options_.faults.TakeDue(elapsed_ms)) {
    const PartyStatus status = supervisor_->Describe(fault.party);
    if (status.pid <= 0) {
      std::fprintf(stderr,
                   "orchestrator: fault %s skipped (party %d has no live "
                   "process, phase %s)\n",
                   fault.ToString().c_str(), fault.party,
                   PartyPhaseName(status.phase));
      continue;
    }
    int signo = SIGKILL;
    switch (fault.kind) {
      case ProcFaultKind::kKill:
        signo = SIGKILL;
        break;
      case ProcFaultKind::kStop:
        signo = SIGSTOP;
        break;
      case ProcFaultKind::kCont:
        signo = SIGCONT;
        break;
      case ProcFaultKind::kTerm:
        signo = SIGTERM;
        break;
    }
    std::fprintf(stderr, "orchestrator: chaos fault %s -> pid %d\n",
                 fault.ToString().c_str(), status.pid);
    const Status st = SignalProcess(status.pid, signo);
    if (!st.ok()) {
      std::fprintf(stderr, "orchestrator: fault delivery: %s\n",
                   st.ToString().c_str());
    }
  }
}

void Orchestrator::Teardown(const char* why) {
  std::fprintf(stderr, "orchestrator: tearing the federation down (%s)\n",
               why);
  // From here exits are facts for the report, not supervision events:
  // without this, the teardown SIGTERMs would read as crashes and spin
  // up pointless backoff/generation-restart state.
  supervisor_->Quiesce();
  const int parties = options_.spec.parties;
  int live = 0;
  for (int p = 0; p < parties; ++p) {
    const PartyStatus status = supervisor_->Describe(p);
    if (status.pid > 0) {
      // SIGCONT first so a chaos-frozen party can see the SIGTERM.
      (void)SignalProcess(status.pid, SIGCONT);
      (void)SignalProcess(status.pid, SIGTERM);
      ++live;
    }
  }
  if (live == 0) return;
  const int64_t deadline = SteadyClockMs() + options_.spec.term_grace_ms;
  while (SteadyClockMs() < deadline) {
    ReapAll(SteadyClockMs());
    live = 0;
    for (int p = 0; p < parties; ++p) {
      if (supervisor_->Describe(p).pid > 0) ++live;
    }
    if (live == 0) return;
    SleepMs(kLoopSliceMs);
  }
  // Grace expired: no process outlives the orchestrator.
  for (int p = 0; p < parties; ++p) {
    const PartyStatus status = supervisor_->Describe(p);
    if (status.pid > 0) {
      std::fprintf(stderr,
                   "orchestrator: party %d (pid %d) ignored SIGTERM for "
                   "%d ms; force-killing it\n",
                   p, status.pid, options_.spec.term_grace_ms);
      (void)SignalProcess(status.pid, SIGKILL);
    }
  }
  // One bounded reap sweep so the report reflects the kills.
  const int64_t kill_deadline = SteadyClockMs() + 2'000;
  while (SteadyClockMs() < kill_deadline) {
    ReapAll(SteadyClockMs());
    int remaining = 0;
    for (int p = 0; p < parties; ++p) {
      if (supervisor_->Describe(p).pid > 0) ++remaining;
    }
    if (remaining == 0) break;
    SleepMs(kLoopSliceMs);
  }
}

void Orchestrator::CollectModels(OrchestratorReport& report) {
  const std::string prefix =
      ResolvePath(options_.workdir, options_.spec.out);
  Sha256 combined;
  bool complete = true;
  for (PartyOutcome& outcome : report.parties) {
    outcome.model_path =
        prefix + ".party" + std::to_string(outcome.party) + ".bin";
    Result<Bytes> blob = LoadModelBytes(outcome.model_path);
    if (!blob.ok()) {
      complete = false;
      continue;
    }
    outcome.model_sha256 = HexDigest(Sha256::Hash(blob.value()));
    combined.Update(outcome.model_sha256);
  }
  if (complete) {
    report.model_fingerprint = HexDigest(combined.Finish());
  }
}

void Orchestrator::WriteReport(OrchestratorReport& report) {
  report.report_path = options_.workdir + "/report.json";
  std::string json = "{\n";
  json += "  \"ok\": " + std::string(report.ok ? "true" : "false") + ",\n";
  json += "  \"interrupted\": " +
          std::string(report.interrupted ? "true" : "false") + ",\n";
  json += "  \"root_cause_party\": " +
          std::to_string(report.root_cause_party) + ",\n";
  json += "  \"root_cause\": \"" + JsonEscape(report.root_cause) + "\",\n";
  json += "  \"wall_ms\": " + std::to_string(report.wall_ms) + ",\n";
  json += "  \"model_fingerprint\": \"" +
          JsonEscape(report.model_fingerprint) + "\",\n";
  json += "  \"parties\": [\n";
  for (size_t i = 0; i < report.parties.size(); ++i) {
    const PartyOutcome& p = report.parties[i];
    json += "    {\"party\": " + std::to_string(p.party) +
            ", \"phase\": \"" + JsonEscape(p.phase) +
            "\", \"restarts\": " + std::to_string(p.restarts) +
            ", \"last_exit_code\": " + std::to_string(p.last_exit_code) +
            ", \"last_exit\": \"" + JsonEscape(p.last_exit) +
            "\", \"log\": \"" + JsonEscape(p.log_path) +
            "\", \"model\": \"" + JsonEscape(p.model_path) +
            "\", \"model_sha256\": \"" + JsonEscape(p.model_sha256) + "\"}";
    json += (i + 1 < report.parties.size()) ? ",\n" : "\n";
  }
  json += "  ]\n}\n";
  std::FILE* f = std::fopen(report.report_path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "orchestrator: cannot write %s\n",
                 report.report_path.c_str());
    report.report_path.clear();
    return;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
}

Result<OrchestratorReport> Orchestrator::Run() {
  FederationSpec& spec = options_.spec;
  if (options_.workdir.empty() || options_.workdir.front() != '/') {
    return Status::InvalidArgument(
        "orchestrator: workdir must be an absolute path");
  }
  PIVOT_RETURN_IF_ERROR(EnsureDir(options_.workdir));
  PIVOT_RETURN_IF_ERROR(EnsureDir(options_.workdir + "/logs"));
  if (spec.addresses.empty()) {
    // Auto-assign a unix-socket mesh under the workdir: zero config for
    // single-host federations, per-run paths for free.
    for (int p = 0; p < spec.parties; ++p) {
      spec.addresses.push_back("unix:" + options_.workdir + "/p" +
                               std::to_string(p) + ".sock");
    }
  }
  PIVOT_RETURN_IF_ERROR(ValidateFederationSpec(spec));

  io_.resize(spec.parties);
  for (int p = 0; p < spec.parties; ++p) {
    // Both read ends are non-blocking: the orchestrator polls control
    // from its loop, and the CHILD polls go (it inherits the read end,
    // and O_NONBLOCK travels with the open file description) so the
    // barrier wait can interleave abort and shutdown checks.
    PIVOT_ASSIGN_OR_RETURN(io_[p].control, MakePipe(/*nonblocking_read=*/true));
    PIVOT_ASSIGN_OR_RETURN(io_[p].go, MakePipe(/*nonblocking_read=*/true));
  }

  ProcessSupervisorConfig sup_config;
  sup_config.max_restarts = spec.max_restarts;
  sup_config.backoff_base_ms = spec.backoff_base_ms;
  sup_config.backoff_max_ms = spec.backoff_max_ms;
  sup_config.ready_timeout_ms = spec.ready_timeout_ms;
  sup_config.stall_timeout_ms = spec.stall_timeout_ms;
  sup_config.restart_grace_ms = spec.term_grace_ms;

  ProcessSupervisor::Callbacks callbacks;
  callbacks.spawn = [this](int party) { return SpawnParty(party); };
  callbacks.force_kill = [](int /*party*/, int pid,
                            const std::string& reason) {
    std::fprintf(stderr, "orchestrator: %s\n", reason.c_str());
    // SIGCONT first: SIGKILL is queued even for a stopped process, but
    // thawing keeps the kernel from leaving it in T state under ptrace.
    (void)SignalProcess(pid, SIGCONT);
    (void)SignalProcess(pid, SIGKILL);
  };
  callbacks.request_restart = [](int party, int pid) {
    std::fprintf(stderr,
                 "orchestrator: peer crash doomed this mesh generation; "
                 "asking party %d (pid %d) to restart (budget-free)\n",
                 party, pid);
    // SIGCONT first so a chaos-frozen party can act on the SIGTERM.
    (void)SignalProcess(pid, SIGCONT);
    (void)SignalProcess(pid, SIGTERM);
  };
  callbacks.send_go = [this](int party, const std::string& nonce) {
    std::fprintf(stderr, "orchestrator: barrier released for party %d\n",
                 party);
    (void)WriteAll(io_[party].go.write_fd, "GO " + nonce + "\n");
  };
  callbacks.escalate = [this](int party, const Status& cause) {
    if (failed_party_ < 0) {
      failed_party_ = party;
      failure_ = cause;
    }
    std::fprintf(stderr, "orchestrator: ESCALATION: %s\n",
                 cause.ToString().c_str());
  };
  supervisor_ = std::make_unique<ProcessSupervisor>(spec.parties, sup_config,
                                                    callbacks);

  std::fprintf(stderr,
               "orchestrator: %d-party federation in %s (budget: %d "
               "restarts/party, backoff %d..%d ms)\n",
               spec.parties, options_.workdir.c_str(),
               sup_config.max_restarts, sup_config.backoff_base_ms,
               sup_config.backoff_max_ms);
  if (!options_.faults.faults().empty()) {
    std::fprintf(stderr, "orchestrator: chaos plan: %s\n",
                 options_.faults.ToString().c_str());
  }

  OrchestratorReport report;
  const int64_t start_ms = SteadyClockMs();
  // The supervise loop. Bounded by: AllDone, escalation (AnyFailed), the
  // federation deadline, or operator interrupt — every iteration makes
  // one bounded pass and sleeps at most kLoopSliceMs.
  for (;;) {
    const int64_t now_ms = SteadyClockMs();
    const int64_t elapsed_ms = now_ms - start_ms;

    if (options_.interrupted && options_.interrupted()) {
      report.interrupted = true;
      report.root_cause = "interrupted by the operator";
      Teardown("operator interrupt");
      break;
    }
    DrainControl(now_ms);
    ReapAll(now_ms);
    FireFaults(elapsed_ms);
    const int hint = supervisor_->Tick(now_ms);

    if (supervisor_->AllDone()) {
      report.ok = true;
      break;
    }
    if (supervisor_->AnyFailed()) {
      report.root_cause_party = failed_party_;
      report.root_cause = failure_.ok() ? "restart budget exhausted"
                                        : failure_.message();
      Teardown("restart budget exhausted");
      break;
    }
    if (options_.deadline_ms > 0 && elapsed_ms > options_.deadline_ms) {
      report.root_cause = "federation deadline of " +
                          std::to_string(options_.deadline_ms) +
                          " ms exceeded";
      Teardown("deadline exceeded");
      break;
    }
    SleepMs(std::min(hint, kLoopSliceMs));
  }
  report.wall_ms = SteadyClockMs() - start_ms;

  for (int p = 0; p < spec.parties; ++p) {
    const PartyStatus status = supervisor_->Describe(p);
    PartyOutcome outcome;
    outcome.party = p;
    outcome.phase = PartyPhaseName(status.phase);
    outcome.restarts = status.restarts;
    outcome.last_exit_code = status.last_exit_code;
    outcome.last_exit = status.last_exit;
    outcome.log_path =
        options_.workdir + "/logs/party" + std::to_string(p) + ".err.log";
    report.parties.push_back(std::move(outcome));
  }
  if (report.ok) CollectModels(report);
  WriteReport(report);

  std::fprintf(stderr, "orchestrator: %s in %lld ms%s%s\n",
               report.ok ? "federation complete"
                         : (report.interrupted ? "interrupted" : "FAILED"),
               static_cast<long long>(report.wall_ms),
               report.root_cause.empty() ? "" : ": ",
               report.root_cause.c_str());
  return report;
}

}  // namespace orch
}  // namespace pivot
