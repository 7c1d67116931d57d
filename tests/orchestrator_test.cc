// Orchestrator tests, three groups.
//
// SpecTest: the federation spec parser — full round-trip, unknown-key
// and malformed-value rejection, address contiguity, and the rendered
// `pivot_cli party` command line.
//
// ProcFaultPlanTest: the process-level chaos plans — schedule parsing,
// seed-derived determinism, the stop/cont pairing invariant, and the
// hand-each-fault-out-once contract of TakeDue.
//
// ProcessSupervisorTest: the process supervision state machine driven
// with a fake clock and recording callbacks, mirroring the
// ConnectionSupervisor tier-1 tests in socket_test.cc — initial spawns,
// the readiness barrier (including the weaker no-party-down release
// rule), deterministic respawn backoff, budget-free generation restarts
// with synchronized respawns, budget exhaustion escalation naming the
// root-cause party, ready-timeout and stall kills, and quiesced
// teardown accounting.

#include "orchestrator/supervisor.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "orchestrator/fault.h"
#include "orchestrator/spec.h"

namespace pivot {
namespace orch {
namespace {

// ----- spec parsing ----------------------------------------------------

constexpr char kFullSpec[] = R"(
# three party deployment
parties = 3
super = 1
data = /data/train.csv
out = model
checkpoint_dir = ckpt
address.0 = unix:/tmp/p0.sock
address.1 = 127.0.0.1:9101
address.2 = 127.0.0.1:9102
task = regression
depth = 5
splits = 16
classes = 4
protocol = enhanced
key_bits = 512
crypto_threads = 2
party_max_restarts = 7
max_restarts = 2
backoff_base_ms = 100
backoff_max_ms = 800
ready_timeout_ms = 9000
stall_timeout_ms = 8000
term_grace_ms = 1500
go_timeout_ms = 30000
cli = /opt/pivot_cli
)";

TEST(SpecTest, ParsesEveryKey) {
  Result<FederationSpec> r = ParseFederationSpec(kFullSpec);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const FederationSpec& s = r.value();
  EXPECT_EQ(s.parties, 3);
  EXPECT_EQ(s.super_client, 1);
  EXPECT_EQ(s.data, "/data/train.csv");
  EXPECT_EQ(s.checkpoint_dir, "ckpt");
  ASSERT_EQ(s.addresses.size(), 3u);
  EXPECT_EQ(s.addresses[1], "127.0.0.1:9101");
  EXPECT_EQ(s.task, "regression");
  EXPECT_EQ(s.depth, 5);
  EXPECT_EQ(s.splits, 16);
  EXPECT_EQ(s.classes, 4);
  EXPECT_EQ(s.protocol, "enhanced");
  EXPECT_EQ(s.key_bits, 512);
  EXPECT_EQ(s.crypto_threads, 2);
  EXPECT_EQ(s.party_max_restarts, 7);
  EXPECT_EQ(s.max_restarts, 2);
  EXPECT_EQ(s.backoff_base_ms, 100);
  EXPECT_EQ(s.backoff_max_ms, 800);
  EXPECT_EQ(s.ready_timeout_ms, 9000);
  EXPECT_EQ(s.stall_timeout_ms, 8000);
  EXPECT_EQ(s.term_grace_ms, 1500);
  EXPECT_EQ(s.go_timeout_ms, 30000);
  EXPECT_EQ(s.cli, "/opt/pivot_cli");
}

TEST(SpecTest, UnknownKeyIsAnError) {
  Result<FederationSpec> r =
      ParseFederationSpec("parties = 3\ndata = /d.csv\ndepht = 4\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("unknown key 'depht'"),
            std::string::npos)
      << r.status().ToString();
}

TEST(SpecTest, MalformedIntegerIsAnError) {
  Result<FederationSpec> r =
      ParseFederationSpec("parties = three\ndata = /d.csv\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("bad integer"), std::string::npos);
}

TEST(SpecTest, AddressGapIsAnError) {
  Result<FederationSpec> r = ParseFederationSpec(
      "parties = 3\ndata = /d.csv\n"
      "address.0 = unix:/tmp/a\naddress.2 = unix:/tmp/c\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("contiguous"), std::string::npos);
}

TEST(SpecTest, SuperOutOfRangeIsAnError) {
  Result<FederationSpec> r =
      ParseFederationSpec("parties = 3\nsuper = 3\ndata = /d.csv\n");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("out of range"), std::string::npos);
}

TEST(SpecTest, CryptoThreadsAutoResolvesPerParty) {
  Result<FederationSpec> r = ParseFederationSpec(
      "parties = 3\ndata = /d.csv\ncrypto_threads = 0\n");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().crypto_threads, 0);
  const int per_party = PartyCryptoThreads(r.value());
  EXPECT_GE(per_party, 1);
  EXPECT_EQ(per_party, std::max(1, AvailableCpus() / 3));
  FederationSpec spec = r.value();
  spec.addresses = {"unix:/tmp/a", "unix:/tmp/b", "unix:/tmp/c"};
  const std::vector<std::string> argv = PartyCommand(spec, 0, "cli", -1, -1);
  const auto it = std::find(argv.begin(), argv.end(), "--crypto-threads");
  ASSERT_NE(it, argv.end());
  ASSERT_NE(it + 1, argv.end());
  EXPECT_EQ(*(it + 1), std::to_string(per_party));
  // The default is auto too.
  Result<FederationSpec> d =
      ParseFederationSpec("parties = 3\ndata = /d.csv\n");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(d.value().crypto_threads, 0);
}

TEST(SpecTest, CryptoThreadsOutOfRangeIsAnError) {
  // Parse and validate only: no rejected value ever reaches a pool.
  for (const char* value : {"-1", "257", "100000"}) {
    std::string text = "parties = 3\ndata = /d.csv\ncrypto_threads = ";
    text.append(value).append("\n");
    Result<FederationSpec> r = ParseFederationSpec(text);
    ASSERT_FALSE(r.ok()) << value;
    EXPECT_NE(r.status().message().find("crypto_threads"), std::string::npos)
        << r.status().ToString();
  }
  Result<FederationSpec> cap = ParseFederationSpec(
      "parties = 3\ndata = /d.csv\ncrypto_threads = 256\n");
  EXPECT_TRUE(cap.ok()) << cap.status().ToString();
}

TEST(SpecTest, PartyCommandRendersTrainingAndControlFlags) {
  Result<FederationSpec> r = ParseFederationSpec(kFullSpec);
  ASSERT_TRUE(r.ok());
  const std::vector<std::string> argv =
      PartyCommand(r.value(), 2, "/opt/pivot_cli", 7, 9);
  ASSERT_GE(argv.size(), 4u);
  EXPECT_EQ(argv[0], "/opt/pivot_cli");
  EXPECT_EQ(argv[1], "party");
  auto flag = [&argv](const std::string& name) -> std::string {
    for (size_t i = 0; i + 1 < argv.size(); ++i) {
      if (argv[i] == name) return argv[i + 1];
    }
    return "<missing>";
  };
  EXPECT_EQ(flag("--party-id"), "2");
  EXPECT_EQ(flag("--peers"),
            "unix:/tmp/p0.sock,127.0.0.1:9101,127.0.0.1:9102");
  EXPECT_EQ(flag("--super"), "1");
  EXPECT_EQ(flag("--task"), "regression");
  // The party's in-process attempt budget comes from party_max_restarts,
  // not the process-level max_restarts.
  EXPECT_EQ(flag("--max-restarts"), "7");
  EXPECT_EQ(flag("--control-fd"), "7");
  EXPECT_EQ(flag("--go-fd"), "9");
  EXPECT_EQ(flag("--go-timeout-ms"), "30000");
}

TEST(SpecTest, PartyCommandOmitsControlFlagsForStandaloneUse) {
  Result<FederationSpec> r = ParseFederationSpec(kFullSpec);
  ASSERT_TRUE(r.ok());
  const std::vector<std::string> argv =
      PartyCommand(r.value(), 0, "/opt/pivot_cli", -1, -1);
  for (const std::string& a : argv) {
    EXPECT_NE(a, "--control-fd");
    EXPECT_NE(a, "--go-fd");
  }
}

// ----- chaos plans -----------------------------------------------------

TEST(ProcFaultPlanTest, ParsesAndSortsSchedule) {
  Result<ProcFaultPlan> r =
      ProcFaultPlan::Parse(" 4000:stop:2 ; 1500:kill:1 ; 6000:cont:2 ", 3);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.value().ToString(), "1500:kill:1;4000:stop:2;6000:cont:2");
}

TEST(ProcFaultPlanTest, RejectsBadKindAndOutOfRangeParty) {
  EXPECT_FALSE(ProcFaultPlan::Parse("100:explode:0", 3).ok());
  EXPECT_FALSE(ProcFaultPlan::Parse("100:kill:3", 3).ok());
  EXPECT_FALSE(ProcFaultPlan::Parse("abc:kill:0", 3).ok());
}

TEST(ProcFaultPlanTest, TakeDueHandsEachFaultOutOnce) {
  Result<ProcFaultPlan> r = ProcFaultPlan::Parse("100:kill:0;300:kill:1", 2);
  ASSERT_TRUE(r.ok());
  ProcFaultPlan plan = r.value();
  EXPECT_TRUE(plan.TakeDue(50).empty());
  std::vector<ProcFault> due = plan.TakeDue(200);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].at_ms, 100);
  EXPECT_TRUE(plan.TakeDue(200).empty()) << "fault 100 must not fire twice";
  due = plan.TakeDue(1'000);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].party, 1);
  EXPECT_TRUE(plan.Exhausted());
}

TEST(ProcFaultPlanTest, SeedDerivedPlansAreDeterministic) {
  const ProcFaultPlan a = ProcFaultPlan::FromSeed(42, 3, 8'000, 4);
  const ProcFaultPlan b = ProcFaultPlan::FromSeed(42, 3, 8'000, 4);
  EXPECT_EQ(a.ToString(), b.ToString());
  EXPECT_NE(a.ToString(), ProcFaultPlan::FromSeed(43, 3, 8'000, 4).ToString());
}

TEST(ProcFaultPlanTest, EveryStopIsPairedWithALaterCont) {
  for (uint64_t seed = 0; seed < 16; ++seed) {
    const ProcFaultPlan plan = ProcFaultPlan::FromSeed(seed, 3, 8'000, 5);
    for (const ProcFault& f : plan.faults()) {
      if (f.kind != ProcFaultKind::kStop) continue;
      bool thawed = false;
      for (const ProcFault& g : plan.faults()) {
        if (g.kind == ProcFaultKind::kCont && g.party == f.party &&
            g.at_ms > f.at_ms) {
          thawed = true;
        }
      }
      EXPECT_TRUE(thawed) << "seed " << seed << ": " << f.ToString()
                          << " never thawed in " << plan.ToString();
    }
  }
}

// ----- supervision state machine (fake clock, recording callbacks) -----

struct RecordingCallbacks {
  std::vector<int> spawns;
  std::vector<std::pair<int, std::string>> kills;  // (party, reason)
  std::vector<std::pair<int, std::string>> gos;    // (party, nonce)
  std::vector<std::pair<int, int>> restarts;       // (party, pid)
  std::vector<std::pair<int, Status>> escalations;
  int next_pid = 100;
  bool fail_spawn = false;

  ProcessSupervisor::Callbacks Bind() {
    ProcessSupervisor::Callbacks cb;
    cb.spawn = [this](int party) -> Result<int> {
      spawns.push_back(party);
      if (fail_spawn) return Status::IoError("spawn refused by test");
      return next_pid++;
    };
    cb.force_kill = [this](int party, int /*pid*/,
                           const std::string& reason) {
      kills.emplace_back(party, reason);
    };
    cb.send_go = [this](int party, const std::string& nonce) {
      gos.emplace_back(party, nonce);
    };
    cb.request_restart = [this](int party, int pid) {
      restarts.emplace_back(party, pid);
    };
    cb.escalate = [this](int party, const Status& cause) {
      escalations.emplace_back(party, cause);
    };
    return cb;
  }
};

ProcessSupervisorConfig FastConfig() {
  ProcessSupervisorConfig cfg;
  cfg.max_restarts = 3;
  cfg.backoff_base_ms = 250;
  cfg.backoff_max_ms = 2'000;
  cfg.ready_timeout_ms = 5'000;
  cfg.stall_timeout_ms = 5'000;
  cfg.restart_grace_ms = 1'000;
  return cfg;
}

// Drives all three parties to kRunning: spawn, READY, barrier release.
void RunToTraining(ProcessSupervisor& sup, RecordingCallbacks& rec,
                   int64_t now) {
  sup.Tick(now);
  ASSERT_EQ(rec.spawns.size(), 3u);
  for (int p = 0; p < 3; ++p) {
    sup.NoteReady(p, "n" + std::to_string(p), now + 10);
  }
  sup.Tick(now + 20);
  ASSERT_EQ(rec.gos.size(), 3u);
}

TEST(ProcessSupervisorTest, FirstTickSpawnsEveryParty) {
  RecordingCallbacks rec;
  ProcessSupervisor sup(3, FastConfig(), rec.Bind());
  sup.Tick(0);
  EXPECT_EQ(rec.spawns, (std::vector<int>{0, 1, 2}));
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(sup.Describe(p).phase, PartyPhase::kLaunching);
    EXPECT_EQ(sup.Describe(p).pid, 100 + p);
  }
}

TEST(ProcessSupervisorTest, BarrierHoldsUntilNoPartyIsDown) {
  RecordingCallbacks rec;
  ProcessSupervisor sup(3, FastConfig(), rec.Bind());
  sup.Tick(0);
  sup.NoteReady(0, "a", 10);
  sup.NoteReady(1, "b", 10);
  sup.Tick(20);  // party 2 is still kLaunching: nobody is released
  EXPECT_TRUE(rec.gos.empty());
  sup.NoteReady(2, "c", 30);
  sup.Tick(40);
  ASSERT_EQ(rec.gos.size(), 3u);
  EXPECT_EQ(rec.gos[0], (std::pair<int, std::string>{0, "a"}));
  for (int p = 0; p < 3; ++p) {
    EXPECT_EQ(sup.Describe(p).phase, PartyPhase::kRunning);
  }
}

TEST(ProcessSupervisorTest, LatecomerIsReleasedAgainstRunningPeers) {
  // The READY/GO race: party 0's attempt dies after its READY was
  // answered, it re-arms the barrier while peers are already kRunning.
  // The weaker release rule (no party down) must let it through alone.
  RecordingCallbacks rec;
  ProcessSupervisor sup(3, FastConfig(), rec.Bind());
  RunToTraining(sup, rec, 0);
  rec.gos.clear();
  sup.NoteReady(0, "a2", 100);  // kRunning -> kWaiting with a fresh nonce
  EXPECT_EQ(sup.Describe(0).phase, PartyPhase::kWaiting);
  sup.Tick(120);
  ASSERT_EQ(rec.gos.size(), 1u);
  EXPECT_EQ(rec.gos[0], (std::pair<int, std::string>{0, "a2"}));
  EXPECT_EQ(sup.Describe(0).phase, PartyPhase::kRunning);
}

TEST(ProcessSupervisorTest, CrashBacksOffDeterministically) {
  RecordingCallbacks rec;
  ProcessSupervisorConfig cfg = FastConfig();
  cfg.max_restarts = 10;
  ProcessSupervisor sup(1, cfg, rec.Bind());
  sup.Tick(0);
  // Crash repeatedly; the respawn delays must follow 250, 500, 1000,
  // 2000, 2000 (capped) with no jitter.
  const int expected[] = {250, 500, 1'000, 2'000, 2'000};
  int64_t now = 0;
  for (int i = 0; i < 5; ++i) {
    sup.NoteExited(0, 137, "killed by signal 9", now);
    EXPECT_EQ(sup.Describe(0).phase, PartyPhase::kBackoff);
    const size_t before = rec.spawns.size();
    sup.Tick(now + expected[i] - 1);
    EXPECT_EQ(rec.spawns.size(), before) << "respawn " << i << " fired early";
    sup.Tick(now + expected[i]);
    ASSERT_EQ(rec.spawns.size(), before + 1) << "respawn " << i << " missed";
    now += expected[i];
  }
  EXPECT_EQ(sup.Describe(0).restarts, 5);
}

TEST(ProcessSupervisorTest, CrashRequestsBudgetFreeGenerationRestart) {
  RecordingCallbacks rec;
  ProcessSupervisor sup(3, FastConfig(), rec.Bind());
  RunToTraining(sup, rec, 0);
  // Party 1 crashes: it burns a restart; live peers 0 and 2 are asked to
  // restart (SIGTERM on the orchestrator side) without burning theirs.
  sup.NoteExited(1, 137, "killed by signal 9", 1'000);
  ASSERT_EQ(rec.restarts.size(), 2u);
  EXPECT_EQ(rec.restarts[0].first, 0);
  EXPECT_EQ(rec.restarts[1].first, 2);
  EXPECT_EQ(sup.Describe(0).phase, PartyPhase::kRestarting);
  EXPECT_EQ(sup.Describe(1).phase, PartyPhase::kBackoff);
  EXPECT_EQ(sup.Describe(1).restarts, 1);
  // Collateral exits (graceful code 3) respawn with no budget burn,
  // synced at or after the crashed party's own respawn time.
  sup.NoteExited(0, 3, "exit code 3", 1'050);
  sup.NoteExited(2, 3, "exit code 3", 1'060);
  EXPECT_EQ(sup.Describe(0).restarts, 0);
  EXPECT_EQ(sup.Describe(2).restarts, 0);
  rec.spawns.clear();
  sup.Tick(1'249);  // crashed party respawns at 1000 + 250
  EXPECT_TRUE(rec.spawns.empty());
  sup.Tick(1'350);  // collateral respawns land no earlier than 1250
  EXPECT_EQ(rec.spawns.size(), 3u);
}

TEST(ProcessSupervisorTest, DonePeerIsPulledBackIntoTheGeneration) {
  // Resume needs every party at the table: if one party already finished
  // (exit 0) when a peer crashes, it must respawn and replay.
  RecordingCallbacks rec;
  ProcessSupervisor sup(3, FastConfig(), rec.Bind());
  RunToTraining(sup, rec, 0);
  sup.NoteExited(0, 0, "exit code 0", 900);
  EXPECT_EQ(sup.Describe(0).phase, PartyPhase::kDone);
  sup.NoteExited(1, 137, "killed by signal 9", 1'000);
  EXPECT_EQ(sup.Describe(0).phase, PartyPhase::kBackoff);
  EXPECT_EQ(sup.Describe(0).restarts, 0) << "pull-back must be budget-free";
  ASSERT_EQ(rec.restarts.size(), 1u) << "no process to SIGTERM for party 0";
  EXPECT_EQ(rec.restarts[0].first, 2);
  EXPECT_FALSE(sup.AllDone());
}

TEST(ProcessSupervisorTest, RestartGraceExpiryForceKills) {
  RecordingCallbacks rec;
  ProcessSupervisor sup(3, FastConfig(), rec.Bind());
  RunToTraining(sup, rec, 0);
  sup.NoteExited(1, 137, "killed by signal 9", 1'000);
  sup.Tick(1'999);  // restart_grace_ms = 1000: not yet
  EXPECT_TRUE(rec.kills.empty());
  sup.Tick(2'000);
  ASSERT_EQ(rec.kills.size(), 2u);
  EXPECT_NE(rec.kills[0].second.find("generation-restart"),
            std::string::npos)
      << rec.kills[0].second;
  // The SIGKILL exit is still budget-free.
  sup.NoteExited(0, 137, "killed by signal 9", 2'100);
  EXPECT_EQ(sup.Describe(0).restarts, 0);
  EXPECT_EQ(sup.Describe(0).phase, PartyPhase::kBackoff);
}

TEST(ProcessSupervisorTest, BudgetExhaustionEscalatesNamingTheParty) {
  RecordingCallbacks rec;
  ProcessSupervisorConfig cfg = FastConfig();
  cfg.max_restarts = 2;
  ProcessSupervisor sup(1, cfg, rec.Bind());
  int64_t now = 0;
  sup.Tick(now);
  for (int i = 0; i < 2; ++i) {
    sup.NoteExited(0, 137, "killed by signal 9 (Killed)", now);
    now += 3'000;
    sup.Tick(now);  // respawn
  }
  EXPECT_TRUE(rec.escalations.empty());
  sup.NoteExited(0, 137, "killed by signal 9 (Killed)", now);
  ASSERT_EQ(rec.escalations.size(), 1u);
  EXPECT_EQ(rec.escalations[0].first, 0);
  const std::string msg = rec.escalations[0].second.message();
  EXPECT_NE(msg.find("party 0 is beyond recovery"), std::string::npos) << msg;
  EXPECT_NE(msg.find("2/2 restarts"), std::string::npos) << msg;
  EXPECT_TRUE(sup.AnyFailed());
  EXPECT_EQ(sup.Describe(0).phase, PartyPhase::kFailed);
}

TEST(ProcessSupervisorTest, ReadyTimeoutKillsALaunchingParty) {
  RecordingCallbacks rec;
  ProcessSupervisor sup(1, FastConfig(), rec.Bind());
  sup.Tick(0);
  sup.Tick(4'999);
  EXPECT_TRUE(rec.kills.empty());
  sup.Tick(5'000);  // ready_timeout_ms = 5000
  ASSERT_EQ(rec.kills.size(), 1u);
  EXPECT_NE(rec.kills[0].second.find("did not report READY"),
            std::string::npos);
  sup.Tick(5'100);
  EXPECT_EQ(rec.kills.size(), 1u) << "kill must not be re-sent before reap";
}

TEST(ProcessSupervisorTest, StallKillsAMutePartyAndControlFeedsTheClock) {
  RecordingCallbacks rec;
  ProcessSupervisor sup(3, FastConfig(), rec.Bind());
  RunToTraining(sup, rec, 0);
  sup.NoteControl(0, 3'000);
  sup.NoteControl(1, 3'000);
  sup.NoteControl(2, 3'000);
  sup.Tick(7'000);  // 4 s of silence < 5 s stall timeout
  EXPECT_TRUE(rec.kills.empty());
  sup.NoteControl(0, 7'000);
  sup.NoteControl(1, 7'000);
  sup.Tick(8'000);  // party 2 has now been silent for 5 s
  ASSERT_EQ(rec.kills.size(), 1u);
  EXPECT_EQ(rec.kills[0].first, 2);
  EXPECT_NE(rec.kills[0].second.find("no control traffic"),
            std::string::npos);
}

TEST(ProcessSupervisorTest, AllDoneAfterEveryPartyExitsZero) {
  RecordingCallbacks rec;
  ProcessSupervisor sup(3, FastConfig(), rec.Bind());
  RunToTraining(sup, rec, 0);
  EXPECT_FALSE(sup.AllDone());
  for (int p = 0; p < 3; ++p) {
    sup.NoteExited(p, 0, "exit code 0", 2'000 + p);
  }
  EXPECT_TRUE(sup.AllDone());
  EXPECT_FALSE(sup.AnyFailed());
  EXPECT_TRUE(rec.restarts.empty());
  EXPECT_TRUE(rec.escalations.empty());
}

TEST(ProcessSupervisorTest, SpawnFailureBurnsARestartAndRetries) {
  RecordingCallbacks rec;
  rec.fail_spawn = true;
  ProcessSupervisor sup(1, FastConfig(), rec.Bind());
  sup.Tick(0);
  EXPECT_EQ(sup.Describe(0).phase, PartyPhase::kBackoff);
  EXPECT_EQ(sup.Describe(0).restarts, 1);
  EXPECT_EQ(sup.Describe(0).last_exit_code, 127);
  rec.fail_spawn = false;
  sup.Tick(250);
  EXPECT_EQ(sup.Describe(0).phase, PartyPhase::kLaunching);
  EXPECT_EQ(rec.spawns.size(), 2u);
}

TEST(ProcessSupervisorTest, ReadyFromARestartingPartyIsIgnored) {
  // A party can finish re-establishing its mesh and send READY just as
  // the restart request races in; it must stay condemned.
  RecordingCallbacks rec;
  ProcessSupervisor sup(3, FastConfig(), rec.Bind());
  RunToTraining(sup, rec, 0);
  sup.NoteExited(1, 137, "killed by signal 9", 1'000);
  sup.NoteReady(0, "late", 1'010);
  EXPECT_EQ(sup.Describe(0).phase, PartyPhase::kRestarting);
  rec.gos.clear();
  sup.Tick(1'020);
  EXPECT_TRUE(rec.gos.empty());
}

TEST(ProcessSupervisorTest, QuiesceRecordsTeardownExitsWithoutSupervision) {
  RecordingCallbacks rec;
  ProcessSupervisor sup(3, FastConfig(), rec.Bind());
  RunToTraining(sup, rec, 0);
  sup.Quiesce();
  // Teardown SIGTERMs arrive as exit 3: no backoff, no budget burn, no
  // generation-restart fan-out — just facts for the report.
  sup.NoteExited(0, 3, "exit code 3", 2'000);
  sup.NoteExited(1, 0, "exit code 0", 2'000);
  EXPECT_EQ(sup.Describe(0).phase, PartyPhase::kRunning);
  EXPECT_EQ(sup.Describe(0).last_exit_code, 3);
  EXPECT_EQ(sup.Describe(0).restarts, 0);
  EXPECT_EQ(sup.Describe(1).phase, PartyPhase::kDone);
  EXPECT_TRUE(rec.restarts.empty());
  rec.spawns.clear();
  sup.Tick(10'000);
  EXPECT_TRUE(rec.spawns.empty()) << "no respawns after Quiesce";
}

TEST(ProcessSupervisorTest, PartyForPidRoutesAndForgets) {
  RecordingCallbacks rec;
  ProcessSupervisor sup(3, FastConfig(), rec.Bind());
  sup.Tick(0);
  EXPECT_EQ(sup.PartyForPid(101), 1);
  EXPECT_EQ(sup.PartyForPid(999), -1);
  sup.NoteExited(1, 137, "killed by signal 9", 100);
  EXPECT_EQ(sup.PartyForPid(101), -1) << "reaped pid must be forgotten";
}

}  // namespace
}  // namespace orch
}  // namespace pivot
