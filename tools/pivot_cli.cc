// pivot_cli — train and score Pivot models on CSV data from the command
// line, simulating the m-party federation in one process.
//
//   pivot_cli train --data train.csv [--task classification|regression]
//             [--classes C] [--parties M] [--depth H] [--splits B]
//             [--protocol basic|enhanced] [--key-bits K] --out PREFIX
//       Trains one Pivot decision tree; writes PREFIX.party<i>.bin (each
//       party's model view) and prints the training summary.
//
//   pivot_cli predict --data test.csv --model PREFIX [--parties M]
//       Loads every party's view and runs the federated prediction
//       protocol per row; prints predictions (and accuracy/MSE when the
//       CSV's label column is present).
//
//   pivot_cli serve --data requests.csv --model PREFIX [--parties M]
//             [--batch-size B] [--max-wait MS] [--repeat R] [--prewarm 0|1]
//       Sustained-traffic mode: pins the model in a per-party
//       ServingSession (warm prediction cache + pre-warmed encryption-
//       randomness pool), streams the CSV rows through per-party request
//       queues, and serves them in coalesced batches — one batched
//       protocol sweep per batch. Prints throughput/latency stats and the
//       cost report instead of per-row predictions.
//
//   pivot_cli party --party-id I --peers addr0,addr1,... --data train.csv
//             --out PREFIX [--super S] [--checkpoint-dir DIR]
//             [--max-restarts R] [--control-fd N --go-fd N
//             [--go-timeout-ms MS]] [train flags]
//       Launches ONE party of a real multi-process federation over the
//       socket transport (net/socket.h). Addresses are "host:port" or
//       "unix:PATH", one per party in rank order; each process binds its
//       own entry and dials/accepts the rest. With --checkpoint-dir the
//       party persists its checkpoints, so a SIGKILL'd process can be
//       relaunched with the same command line and rejoin the federation,
//       resuming at the negotiated min-index for a bit-identical final
//       model. Writes only this party's view, PREFIX.party<I>.bin.
//       SIGTERM/SIGINT request a graceful shutdown: the mesh is aborted,
//       the persisted checkpoint store already holds the latest snapshot,
//       and the process exits with the distinct code 3 so a supervisor
//       can tell "asked to stop" from "crashed". A run that fails on its
//       configuration (InvalidArgument or FailedPrecondition, e.g. labels
//       out of range) exits with code 5: a relaunch would fail the same
//       way. Under the orchestrator, --control-fd/--go-fd carry the
//       readiness/liveness protocol: the party writes HELLO/READY/ALIVE/
//       FAILED/BYE lines and blocks at the readiness barrier until the
//       orchestrator answers GO.
//
//   pivot_cli orchestrate --spec federation.spec [--workdir DIR]
//             [--faults SCHED | --chaos-seed N [--chaos-count K]
//             [--chaos-window-ms MS]] [--deadline-ms MS]
//       One-command federation: reads the spec (src/orchestrator/spec.h
//       documents the format), renders one `pivot_cli party` command per
//       party, spawns and supervises them (readiness barrier, health-
//       checked restarts with deterministic backoff, restart budgets,
//       SIGTERM-propagating teardown), optionally injects seeded
//       process-level chaos (SIGKILL/SIGSTOP/SIGCONT/SIGTERM), and
//       verifies + fingerprints the collected model views. Writes
//       report.json into the workdir. Exit codes: 0 success, 1 failure
//       (report names the root-cause party), 4 interrupted.
//
// CSV format: headerless numeric rows, last column = label.

#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <string>

#include "orchestrator/fault.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/process.h"
#include "orchestrator/spec.h"

#include "common/op_counters.h"
#include "common/thread_pool.h"
#include "data/dataset.h"
#include "pivot/prediction.h"
#include "pivot/runner.h"
#include "pivot/serialize.h"
#include "pivot/trainer.h"
#include "serve/serving_session.h"

using namespace pivot;

namespace {

// Exit code for "asked to stop and stopped cleanly" — distinct from 0
// (finished training) and 1 (failed), so the orchestrator can tell a
// graceful shutdown from a crash when aggregating exit codes.
constexpr int kGracefulShutdownExit = 3;

// Exit code of a failed party run: orch::kConfigErrorExit when the same
// command line would fail the same way again, 1 otherwise.
int FailureExitCode(const Status& st) {
  return st.code() == StatusCode::kInvalidArgument ||
                 st.code() == StatusCode::kFailedPrecondition
             ? orch::kConfigErrorExit
             : 1;
}

// Reports a failed run to the orchestrator as one FAILED line (newlines
// flattened), so its report can name the error rather than an exit code.
void ReportFailure(int control_fd, const Status& st) {
  if (control_fd < 0) return;
  std::string line = st.ToString();
  std::replace(line.begin(), line.end(), '\n', ' ');
  (void)orch::WriteAll(control_fd, "FAILED " + line + "\n");
}

// Set by the SIGTERM/SIGINT handler; polled from the runner's supervisor
// tick (which aborts the mesh, waking blocked receives within a
// heartbeat) and from the party/orchestrator loops.
volatile std::sig_atomic_t g_shutdown = 0;

void HandleShutdownSignal(int /*signo*/) { g_shutdown = 1; }

// SA_RESTART keeps mid-syscall protocol reads intact: the handler only
// sets the flag, and the supervisor tick turns it into a mesh abort.
void InstallShutdownHandlers() {
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = HandleShutdownSignal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  sigaction(SIGTERM, &sa, nullptr);
  sigaction(SIGINT, &sa, nullptr);
  // A peer (or the orchestrator) closing a pipe mid-write must surface
  // as an error return, not kill the process.
  signal(SIGPIPE, SIG_IGN);
}

struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : it->second;
  }
  int GetInt(const std::string& key, int fallback) const {
    auto it = flags.find(key);
    return it == flags.end() ? fallback : std::stoi(it->second);
  }
};

Result<Args> ParseArgs(int argc, char** argv) {
  if (argc < 2) return Status::InvalidArgument("missing command");
  Args args;
  args.command = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0) {
      return Status::InvalidArgument(std::string("bad flag: ") + argv[i]);
    }
    args.flags[argv[i] + 2] = argv[i + 1];
  }
  return args;
}

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  pivot_cli train --data train.csv --out PREFIX\n"
               "            [--task classification|regression] [--classes C]\n"
               "            [--parties M] [--depth H] [--splits B]\n"
               "            [--protocol basic|enhanced] [--key-bits K]\n"
               "            [--crypto-threads T]\n"
               "  pivot_cli predict --data test.csv --model PREFIX "
               "[--parties M]\n"
               "  pivot_cli serve --data requests.csv --model PREFIX\n"
               "            [--parties M] [--batch-size B] [--max-wait MS]\n"
               "            [--repeat R] [--prewarm 0|1] "
               "[--crypto-threads T]\n"
               "  pivot_cli party --party-id I --peers addr0,addr1,...\n"
               "            --data train.csv --out PREFIX [--super S]\n"
               "            [--checkpoint-dir DIR] [--max-restarts R]\n"
               "            [--control-fd N --go-fd N [--go-timeout-ms MS]]\n"
               "            [train flags]\n"
               "  pivot_cli orchestrate --spec federation.spec\n"
               "            [--workdir DIR] [--deadline-ms MS]\n"
               "            [--faults SCHED | --chaos-seed N\n"
               "            [--chaos-count K] [--chaos-window-ms MS]]\n");
  return 2;
}

// Loads every party's serialized model view (PREFIX.party<i>.bin).
Result<std::vector<PivotTree>> LoadViews(const std::string& prefix, int m) {
  std::vector<PivotTree> views(m);
  for (int p = 0; p < m; ++p) {
    const std::string path = prefix + ".party" + std::to_string(p) + ".bin";
    PIVOT_ASSIGN_OR_RETURN(Bytes blob, LoadModelBytes(path));
    PIVOT_ASSIGN_OR_RETURN(views[p], DeserializePivotTree(blob));
  }
  return views;
}

// Inputs shared by `train` and `party`: loads the --data CSV and applies
// the tree hyper-parameters, protocol, key size, crypto fan-out and the
// environment-overridable NetConfig.
Result<Dataset> LoadTrainInputs(const Args& args, RunnerConfig* cfg,
                                TrainTreeOptions* opts) {
  // Fan-out cap for the batched crypto kernels, 0 = one per available
  // CPU; results are bit-identical for every value (see DESIGN.md,
  // "Parallelism model").
  cfg->params.crypto_threads = args.GetInt("crypto-threads", 0);
  PIVOT_RETURN_IF_ERROR(ValidateCryptoThreads(cfg->params.crypto_threads));
  PIVOT_ASSIGN_OR_RETURN(Dataset data, LoadCsv(args.Get("data", "")));
  const bool enhanced = args.Get("protocol", "basic") == "enhanced";
  opts->protocol = enhanced ? Protocol::kEnhanced : Protocol::kBasic;
  const bool regression = args.Get("task", "classification") == "regression";
  cfg->params.tree.task =
      regression ? TreeTask::kRegression : TreeTask::kClassification;
  cfg->params.tree.num_classes =
      args.GetInt("classes", regression ? 2 : data.NumClasses());
  cfg->params.tree.max_depth = args.GetInt("depth", 4);
  cfg->params.tree.max_splits = args.GetInt("splits", 8);
  cfg->params.key_bits = args.GetInt("key-bits", enhanced ? 512 : 256);
  // Reliable-channel tunables (timeouts, retry budget, backoff) are
  // environment-overridable; see net/channel.h.
  PIVOT_ASSIGN_OR_RETURN(cfg->net, NetConfig::FromEnv(cfg->net));
  return data;
}

// Party body of `train` and `party`: trains one tree and writes this
// party's view to PREFIX.party<id>.bin.
Result<PivotTree> TrainAndSave(PartyContext& ctx, const TrainTreeOptions& opts,
                               const std::string& out_prefix) {
  PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));
  const std::string path =
      out_prefix + ".party" + std::to_string(ctx.id()) + ".bin";
  PIVOT_RETURN_IF_ERROR(SaveModelBytes(SerializePivotTree(tree), path));
  return tree;
}

int RunTrain(const Args& args) {
  const std::string data_path = args.Get("data", "");
  const std::string out_prefix = args.Get("out", "");
  if (data_path.empty() || out_prefix.empty()) return Usage();

  FederationConfig cfg;
  cfg.num_parties = args.GetInt("parties", 3);
  TrainTreeOptions opts;
  Result<Dataset> data = LoadTrainInputs(args, &cfg, &opts);
  if (!data.ok()) {
    std::fprintf(stderr, "error: %s\n", data.status().ToString().c_str());
    return 1;
  }
  const char* protocol =
      opts.protocol == Protocol::kEnhanced ? "enhanced" : "basic";

  std::printf("training a %s-protocol Pivot tree: %zu samples, %zu features, "
              "%d parties...\n",
              protocol, data.value().num_samples(),
              data.value().num_features(), cfg.num_parties);

  std::mutex mu;
  int internal_nodes = 0;
  NetworkStats net_stats;
  const OpSnapshot ops_before = OpSnapshot::Take();
  Status st = RunFederation(data.value(), cfg, [&](PartyContext& ctx) -> Status {
    PIVOT_ASSIGN_OR_RETURN(PivotTree tree,
                           TrainAndSave(ctx, opts, out_prefix));
    if (ctx.id() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      internal_nodes = tree.NumInternalNodes();
    }
    return Status::Ok();
  }, &net_stats);
  if (!st.ok()) {
    std::fprintf(stderr, "training failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("done: %d internal nodes; model views written to %s.party*."
              "bin\n", internal_nodes, out_prefix.c_str());
  std::printf("network cost: %.2f MB sent in %llu messages, ~%llu rounds\n",
              static_cast<double>(net_stats.bytes_sent) / 1e6,
              static_cast<unsigned long long>(net_stats.messages_sent),
              static_cast<unsigned long long>(net_stats.rounds));
  std::printf("reliability: %llu retransmits, %llu duplicates suppressed, "
              "%llu corrupt frames, %llu nacks\n",
              static_cast<unsigned long long>(net_stats.retransmits),
              static_cast<unsigned long long>(net_stats.duplicates_suppressed),
              static_cast<unsigned long long>(net_stats.corrupt_frames),
              static_cast<unsigned long long>(net_stats.nacks_sent));
  const OpSnapshot ops = OpSnapshot::Take().Delta(ops_before);
  if (ops.pool_tasks > 0 || ops.batch_calls > 0) {
    std::printf("crypto kernels: %llu batch calls, %llu pool tasks, "
                "randomness pool %llu hits / %llu misses\n",
                static_cast<unsigned long long>(ops.batch_calls),
                static_cast<unsigned long long>(ops.pool_tasks),
                static_cast<unsigned long long>(ops.enc_pool_hits),
                static_cast<unsigned long long>(ops.enc_pool_misses));
  }
  if (ops.ckpt_writes > 0 || ops.ckpt_restores > 0) {
    std::printf("checkpointing: %llu writes (%llu us), %llu restores "
                "(%llu us)\n",
                static_cast<unsigned long long>(ops.ckpt_writes),
                static_cast<unsigned long long>(ops.ckpt_write_us),
                static_cast<unsigned long long>(ops.ckpt_restores),
                static_cast<unsigned long long>(ops.ckpt_restore_us));
  }
  return 0;
}

// One party process of a multi-process federation (socket transport).
int RunParty(const Args& args) {
  InstallShutdownHandlers();
  const std::string data_path = args.Get("data", "");
  const std::string out_prefix = args.Get("out", "");
  const std::string peers = args.Get("peers", "");
  if (data_path.empty() || out_prefix.empty() || peers.empty() ||
      args.flags.find("party-id") == args.flags.end()) {
    return Usage();
  }
  // Orchestrator control protocol (both fds inherited from the spawning
  // orchestrator; -1 = standalone party, no protocol).
  const int control_fd = args.GetInt("control-fd", -1);
  const int go_fd = args.GetInt("go-fd", -1);
  const int go_timeout_ms = args.GetInt("go-timeout-ms", 120'000);

  PartyConfig cfg;
  cfg.party_id = args.GetInt("party-id", 0);
  for (size_t start = 0; start <= peers.size();) {
    size_t comma = peers.find(',', start);
    if (comma == std::string::npos) comma = peers.size();
    cfg.addresses.push_back(peers.substr(start, comma - start));
    start = comma + 1;
  }
  const int m = static_cast<int>(cfg.addresses.size());
  if (cfg.party_id < 0 || cfg.party_id >= m) {
    std::fprintf(stderr, "error: --party-id %d out of range for %d peers\n",
                 cfg.party_id, m);
    return 1;
  }
  cfg.super_client = args.GetInt("super", 0);
  cfg.checkpoint_dir = args.Get("checkpoint-dir", "");
  cfg.max_restarts = args.GetInt("max-restarts", cfg.max_restarts);

  TrainTreeOptions opts;
  Result<Dataset> data = LoadTrainInputs(args, &cfg, &opts);
  if (!data.ok()) {
    std::fprintf(stderr, "error: %s\n", data.status().ToString().c_str());
    ReportFailure(control_fd, data.status());
    return FailureExitCode(data.status());
  }
  const char* protocol =
      opts.protocol == Protocol::kEnhanced ? "enhanced" : "basic";

  if (control_fd >= 0) {
    (void)orch::WriteAll(control_fd, "HELLO pid=" +
                                         std::to_string(::getpid()) + "\n");
    // Liveness export: one ALIVE per supervisor tick feeds the
    // orchestrator's stall detector (a SIGSTOPped party goes mute and
    // gets force-killed into the crash-resume path).
    cfg.on_alive = [control_fd]() {
      (void)orch::WriteAll(control_fd, "ALIVE\n");
    };
    // Readiness barrier: announce the mesh is up, then hold all protocol
    // traffic until the orchestrator's GO. The nonce (pid.attempt) makes
    // a stale GO addressed to a previous incarnation or attempt
    // unmistakable — it is simply skipped.
    cfg.on_mesh_ready = [control_fd, go_fd, go_timeout_ms](
                            int attempt,
                            const std::function<bool()>& aborted) -> Status {
      const std::string nonce = std::to_string(::getpid()) + "." +
                                std::to_string(attempt);
      std::fprintf(stderr, "party: mesh up, READY nonce=%s\n", nonce.c_str());
      PIVOT_RETURN_IF_ERROR(
          orch::WriteAll(control_fd, "READY nonce=" + nonce + "\n"));
      if (go_fd < 0) return Status::Ok();
      const std::string want = "GO " + nonce;
      std::string buf;
      const int64_t barrier_deadline = orch::SteadyClockMs() + go_timeout_ms;
      while (orch::SteadyClockMs() < barrier_deadline) {
        if (g_shutdown != 0) {
          return Status::Aborted("shutdown requested at the barrier");
        }
        if (aborted()) {
          // A peer died while we waited; fail the attempt now so the
          // rebuilt mesh can re-enter the barrier, instead of burning
          // the whole GO deadline against a half-up federation.
          return Status::Aborted("mesh aborted at the readiness barrier");
        }
        buf += orch::ReadAvailable(go_fd);
        size_t start = 0;
        size_t nl;
        while ((nl = buf.find('\n', start)) != std::string::npos) {
          if (buf.compare(start, nl - start, want) == 0) {
            std::fprintf(stderr, "party: GO received for nonce=%s\n",
                         nonce.c_str());
            return Status::Ok();
          }
          start = nl + 1;  // stale GO for an earlier incarnation: skip
        }
        buf.erase(0, start);
        orch::SleepMs(20);
      }
      return Status::ProtocolError(
          "no GO from the orchestrator within " +
          std::to_string(go_timeout_ms) + " ms at the readiness barrier");
    };
  }
  cfg.shutdown_requested = []() { return g_shutdown != 0; };

  // Every process loads the full dataset and partitions deterministically;
  // the result matches the in-process harness bit for bit.
  VerticalPartition partition = PartitionVertically(data.value(), m);

  std::fprintf(stderr,
               "party %d/%d (%s, super=%d): training a %s-protocol Pivot "
               "tree over sockets...\n",
               cfg.party_id, m, cfg.addresses[cfg.party_id].c_str(),
               cfg.super_client, protocol);

  NetworkStats net_stats;
  Status st = RunPartyFederation(
      partition, cfg,
      [&](PartyContext& ctx) -> Status {
        return TrainAndSave(ctx, opts, out_prefix).status();
      },
      &net_stats);
  const int exit_code =
      st.ok() ? 0
              : (g_shutdown != 0 ? kGracefulShutdownExit : FailureExitCode(st));
  if (exit_code != 0 && exit_code != kGracefulShutdownExit) {
    ReportFailure(control_fd, st);
  }
  if (control_fd >= 0) {
    (void)orch::WriteAll(control_fd,
                         "BYE code=" + std::to_string(exit_code) + "\n");
  }
  if (exit_code == kGracefulShutdownExit) {
    // The persistent checkpoint store mirrors every snapshot to disk as
    // it is taken (pivot/checkpoint.h), so the latest state is already
    // flushed; a relaunch resumes from here bit-identically.
    std::fprintf(stderr,
                 "party %d: graceful shutdown (checkpoints persisted); "
                 "relaunch to resume\n",
                 cfg.party_id);
    return kGracefulShutdownExit;
  }
  if (!st.ok()) {
    std::fprintf(stderr, "party %d failed: %s\n", cfg.party_id,
                 st.ToString().c_str());
    return exit_code;
  }
  std::fprintf(stderr,
               "party %d done: %.2f MB sent in %llu messages; "
               "%llu retransmits, %llu reconnects, %llu heartbeats\n",
               cfg.party_id,
               static_cast<double>(net_stats.bytes_sent) / 1e6,
               static_cast<unsigned long long>(net_stats.messages_sent),
               static_cast<unsigned long long>(net_stats.retransmits),
               static_cast<unsigned long long>(net_stats.reconnects),
               static_cast<unsigned long long>(net_stats.heartbeats));
  return 0;
}

int RunPredict(const Args& args) {
  const std::string data_path = args.Get("data", "");
  const std::string prefix = args.Get("model", "");
  if (data_path.empty() || prefix.empty()) return Usage();
  const int m = args.GetInt("parties", 3);

  Result<Dataset> data = LoadCsv(data_path);
  if (!data.ok()) {
    std::fprintf(stderr, "error: %s\n", data.status().ToString().c_str());
    return 1;
  }

  Result<std::vector<PivotTree>> views_or = LoadViews(prefix, m);
  if (!views_or.ok()) {
    std::fprintf(stderr, "error: %s\n", views_or.status().ToString().c_str());
    return 1;
  }
  std::vector<PivotTree> views = std::move(views_or).value();

  FederationConfig cfg;
  cfg.num_parties = m;
  cfg.params.tree.task = views[0].task;
  cfg.params.tree.num_classes = views[0].num_classes;
  cfg.params.key_bits =
      views[0].protocol == Protocol::kEnhanced ? 512 : 256;

  std::vector<double> predictions(data.value().num_samples(), 0.0);
  std::mutex mu;
  Status st = RunFederation(data.value(), cfg, [&](PartyContext& ctx) -> Status {
    auto rows = SliceRowsForParty(data.value(), ctx.id(), m);
    PIVOT_ASSIGN_OR_RETURN(std::vector<double> preds,
                           PredictPivotMany(ctx, views[ctx.id()], rows));
    if (ctx.id() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      predictions = std::move(preds);
    }
    return Status::Ok();
  });
  if (!st.ok()) {
    std::fprintf(stderr, "prediction failed: %s\n", st.ToString().c_str());
    return 1;
  }

  for (size_t i = 0; i < predictions.size(); ++i) {
    std::printf("%zu,%g\n", i, predictions[i]);
  }
  if (views[0].task == TreeTask::kRegression) {
    std::fprintf(stderr, "mse: %.6f\n",
                 MeanSquaredError(predictions, data.value().labels));
  } else {
    std::fprintf(stderr, "accuracy: %.4f\n",
                 Accuracy(predictions, data.value().labels));
  }
  return 0;
}

int RunServe(const Args& args) {
  const std::string data_path = args.Get("data", "");
  const std::string prefix = args.Get("model", "");
  if (data_path.empty() || prefix.empty()) return Usage();
  const int m = args.GetInt("parties", 3);
  const int repeat = std::max(1, args.GetInt("repeat", 1));
  const int crypto_threads = args.GetInt("crypto-threads", 0);
  if (Status st = ValidateCryptoThreads(crypto_threads); !st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }

  Result<Dataset> data = LoadCsv(data_path);
  if (!data.ok()) {
    std::fprintf(stderr, "error: %s\n", data.status().ToString().c_str());
    return 1;
  }
  Result<std::vector<PivotTree>> views_or = LoadViews(prefix, m);
  if (!views_or.ok()) {
    std::fprintf(stderr, "error: %s\n", views_or.status().ToString().c_str());
    return 1;
  }
  std::vector<PivotTree> views = std::move(views_or).value();

  FederationConfig cfg;
  cfg.num_parties = m;
  cfg.params.tree.task = views[0].task;
  cfg.params.tree.num_classes = views[0].num_classes;
  cfg.params.key_bits = views[0].protocol == Protocol::kEnhanced ? 512 : 256;
  cfg.params.crypto_threads = crypto_threads;
  Result<NetConfig> net_cfg = NetConfig::FromEnv(cfg.net);
  if (!net_cfg.ok()) {
    std::fprintf(stderr, "error: %s\n", net_cfg.status().ToString().c_str());
    return 1;
  }
  cfg.net = net_cfg.value();

  serve::ServeOptions opts;
  opts.batch_size = std::min(4096, std::max(1, args.GetInt("batch-size", 16)));
  opts.max_wait_ms = std::max(0, args.GetInt("max-wait", 5));
  const uint64_t total_requests =
      static_cast<uint64_t>(data.value().num_samples()) * repeat;
  if (args.GetInt("prewarm", 1) != 0) {
    // One offline (r, r^n) pair per encrypted prediction-vector entry this
    // party will touch: requests x leaves.
    opts.prewarm_pairs =
        total_requests * static_cast<uint64_t>(views[0].NumLeaves());
  }

  std::printf("serving %llu requests (%zu rows x %d) with batch_size=%d, "
              "max_wait=%dms, prewarm_pairs=%llu...\n",
              static_cast<unsigned long long>(total_requests),
              data.value().num_samples(), repeat, opts.batch_size,
              opts.max_wait_ms,
              static_cast<unsigned long long>(opts.prewarm_pairs));

  std::vector<double> predictions;
  serve::ServingStats stats;
  std::mutex mu;
  NetworkStats net_stats;
  const OpSnapshot ops_before = OpSnapshot::Take();
  Status st = RunFederation(
      data.value(), cfg,
      [&](PartyContext& ctx) -> Status {
        serve::ServingSession session(ctx, views[ctx.id()], opts);
        // Warm the per-model caches and the randomness pool before any
        // request is enqueued, so latency measures serving, not setup.
        PIVOT_RETURN_IF_ERROR(session.Warmup());
        const auto rows = SliceRowsForParty(data.value(), ctx.id(), m);
        serve::RequestQueue queue;
        for (int r = 0; r < repeat; ++r) {
          for (const auto& row : rows) queue.Push(row);
        }
        queue.Close();
        std::vector<double> preds;
        PIVOT_ASSIGN_OR_RETURN(serve::ServingStats party_stats,
                               session.Serve(queue, &preds));
        if (ctx.id() == 0) {
          std::lock_guard<std::mutex> lock(mu);
          predictions = std::move(preds);
          stats = party_stats;
        }
        return Status::Ok();
      },
      &net_stats);
  if (!st.ok()) {
    std::fprintf(stderr, "serving failed: %s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("served %llu requests in %llu batches: %.1f req/s, occupancy "
              "%.2f, max queue depth %llu\n",
              static_cast<unsigned long long>(stats.requests),
              static_cast<unsigned long long>(stats.batches),
              stats.requests_per_sec, stats.mean_occupancy,
              static_cast<unsigned long long>(stats.max_queue_depth));
  std::printf("latency: p50 %.2f ms, p99 %.2f ms, mean %.2f ms, max %.2f ms\n",
              stats.p50_ms, stats.p99_ms, stats.mean_ms, stats.max_ms);
  std::vector<double> labels;
  for (int r = 0; r < repeat; ++r) {
    labels.insert(labels.end(), data.value().labels.begin(),
                  data.value().labels.end());
  }
  if (!labels.empty() && predictions.size() == labels.size()) {
    if (views[0].task == TreeTask::kRegression) {
      std::printf("mse: %.6f\n", MeanSquaredError(predictions, labels));
    } else {
      std::printf("accuracy: %.4f\n", Accuracy(predictions, labels));
    }
  }
  std::printf("network cost: %.2f MB sent in %llu messages, ~%llu rounds\n",
              static_cast<double>(net_stats.bytes_sent) / 1e6,
              static_cast<unsigned long long>(net_stats.messages_sent),
              static_cast<unsigned long long>(net_stats.rounds));
  const OpSnapshot ops = OpSnapshot::Take().Delta(ops_before);
  std::printf("crypto kernels: %llu batch calls, %llu pool tasks, "
              "randomness pool %llu hits / %llu misses\n",
              static_cast<unsigned long long>(ops.batch_calls),
              static_cast<unsigned long long>(ops.pool_tasks),
              static_cast<unsigned long long>(ops.enc_pool_hits),
              static_cast<unsigned long long>(ops.enc_pool_misses));
  std::printf("serving counters: %llu requests / %llu batches\n",
              static_cast<unsigned long long>(ops.serve_requests),
              static_cast<unsigned long long>(ops.serve_batches));
  return 0;
}

// Resolves the running binary's own path so the orchestrator can spawn
// party processes of the exact same build; falls back to argv[0].
std::string SelfExe(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return std::string(buf);
  }
  return argv0 != nullptr ? std::string(argv0) : std::string("pivot_cli");
}

// One-command federation: spawn + supervise every party (see
// src/orchestrator/orchestrator.h).
int RunOrchestrate(const Args& args, const char* argv0) {
  InstallShutdownHandlers();
  const std::string spec_path = args.Get("spec", "");
  if (spec_path.empty()) return Usage();
  Result<orch::FederationSpec> spec = orch::LoadFederationSpec(spec_path);
  if (!spec.ok()) {
    std::fprintf(stderr, "error: %s\n", spec.status().ToString().c_str());
    return 2;
  }

  orch::OrchestratorOptions options;
  options.spec = spec.value();
  std::string workdir = args.Get("workdir", "");
  if (workdir.empty()) {
    const char* tmp = std::getenv("TMPDIR");
    workdir = std::string(tmp != nullptr && *tmp != '\0' ? tmp : "/tmp") +
              "/pivot_orch." + std::to_string(::getpid());
  }
  if (workdir.front() != '/') {
    char cwd[4096];
    if (::getcwd(cwd, sizeof(cwd)) != nullptr) {
      workdir = std::string(cwd) + "/" + workdir;
    }
  }
  options.workdir = workdir;
  options.cli =
      spec.value().cli.empty() ? SelfExe(argv0) : spec.value().cli;
  options.deadline_ms = args.GetInt("deadline-ms", 0);

  const std::string faults = args.Get("faults", "");
  if (!faults.empty()) {
    Result<orch::ProcFaultPlan> plan =
        orch::ProcFaultPlan::Parse(faults, spec.value().parties);
    if (!plan.ok()) {
      std::fprintf(stderr, "error: %s\n", plan.status().ToString().c_str());
      return 2;
    }
    options.faults = plan.value();
  } else if (args.flags.find("chaos-seed") != args.flags.end()) {
    const uint64_t seed =
        std::strtoull(args.Get("chaos-seed", "0").c_str(), nullptr, 10);
    options.faults = orch::ProcFaultPlan::FromSeed(
        seed, spec.value().parties, args.GetInt("chaos-window-ms", 8'000),
        args.GetInt("chaos-count", 3));
  }
  options.interrupted = []() { return g_shutdown != 0; };

  orch::Orchestrator orchestrator(std::move(options));
  Result<orch::OrchestratorReport> run = orchestrator.Run();
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const orch::OrchestratorReport& report = run.value();
  std::printf("federation %s in %lld ms (workdir %s)\n",
              report.ok ? "complete"
                        : (report.interrupted ? "interrupted" : "FAILED"),
              static_cast<long long>(report.wall_ms), workdir.c_str());
  for (const orch::PartyOutcome& p : report.parties) {
    std::printf("  party %d: %s, %d restart(s), last exit %d (%s)\n",
                p.party, p.phase.c_str(), p.restarts, p.last_exit_code,
                p.last_exit.empty() ? "never exited" : p.last_exit.c_str());
  }
  if (report.ok) {
    std::printf("model fingerprint: %s\n", report.model_fingerprint.c_str());
    std::printf("model views: %s/%s.party*.bin\n", workdir.c_str(),
                spec.value().out.c_str());
  } else {
    std::printf("root cause: %s\n", report.root_cause.c_str());
    if (report.root_cause_party >= 0) {
      std::printf("root-cause party: %d\n", report.root_cause_party);
    }
  }
  std::printf("report: %s\n", report.report_path.c_str());
  return report.ExitCode();
}

}  // namespace

int main(int argc, char** argv) {
  Result<Args> args = ParseArgs(argc, argv);
  if (!args.ok()) return Usage();
  if (args.value().command == "train") return RunTrain(args.value());
  if (args.value().command == "party") return RunParty(args.value());
  if (args.value().command == "predict") return RunPredict(args.value());
  if (args.value().command == "serve") return RunServe(args.value());
  if (args.value().command == "orchestrate") {
    return RunOrchestrate(args.value(), argv[0]);
  }
  return Usage();
}
