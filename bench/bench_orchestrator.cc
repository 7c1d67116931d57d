// Orchestration overhead bench: the same 3-party training run measured
// three ways — the in-memory thread mesh (`pivot_cli train` path), the
// orchestrated multi-process unix-socket federation (`pivot_cli
// orchestrate` path), and the orchestrated federation with one SIGKILL
// mid-training (generation restart + checkpoint resume). The bench's
// own gate is bit-identity: all three runs must produce byte-identical
// per-party model views, so the wall-clock columns compare *transport
// and supervision* cost, never different models.
//
// The orchestrated runs go through the pivot_orchestrator library (not
// a shell-out): fork/exec/kill/waitpid are confined to src/orchestrator
// by the raw-process lint rule, and the library path is exactly what
// `pivot_cli orchestrate` executes. The party binary itself is resolved
// via --cli=PATH or the PIVOT_CLI environment variable, defaulting to
// ../tools/pivot_cli and tools/pivot_cli (running from build/bench or
// the build root).
//
// Usage: bench_orchestrator [--tiny|--full] [--cli=/path/to/pivot_cli]

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include <unistd.h>

#include "bench/bench_util.h"
#include "data/dataset.h"
#include "orchestrator/fault.h"
#include "orchestrator/orchestrator.h"
#include "orchestrator/spec.h"
#include "pivot/serialize.h"

namespace pivot {
namespace bench {
namespace {

namespace fs = std::filesystem;

struct OrchBenchParams {
  int rows = 60;
  int depth = 3;
  int key_bits = 256;
  int reps = 3;
};

// Same deterministic LCG generator as tests/orchestrator_chaos_test.sh:
// 6 features, binary label keyed to features 0 and 3.
void WriteCsv(const fs::path& path, int rows) {
  std::ofstream out(path);
  uint64_t seed = 42;
  for (int i = 0; i < rows; ++i) {
    double sum = 0.0;
    for (int j = 0; j < 6; ++j) {
      seed = (seed * 1103515245 + 12345) % 2147483648;
      const double x = static_cast<double>(seed % 10000) / 10000.0;
      if (j == 0 || j == 3) sum += x;
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.4f,", x);
      out << buf;
    }
    out << (sum > 1.0 ? 1 : 0) << "\n";
  }
}

Result<Bytes> ReadAll(const fs::path& path) { return LoadModelBytes(path); }

// The in-memory baseline: the exact RunTrain configuration from
// pivot_cli, so the model bytes must match the orchestrated runs.
Result<double> TimeInMemory(const Dataset& data, const OrchBenchParams& p,
                            const std::string& out_prefix) {
  FederationConfig cfg;
  cfg.num_parties = 3;
  cfg.params.tree.task = TreeTask::kClassification;
  cfg.params.tree.num_classes = data.NumClasses();
  cfg.params.tree.max_depth = p.depth;
  cfg.params.tree.max_splits = 8;
  cfg.params.key_bits = p.key_bits;

  WallTimer timer;
  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    TrainTreeOptions opts;
    PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));
    const std::string path =
        out_prefix + ".party" + std::to_string(ctx.id()) + ".bin";
    return SaveModelBytes(SerializePivotTree(tree), path);
  });
  PIVOT_RETURN_IF_ERROR(st);
  return timer.ElapsedSeconds();
}

// One orchestrated run: 3 `pivot_cli party` processes over per-run unix
// sockets, supervised end to end. Returns wall seconds; the model views
// land in <workdir>/model.party<i>.bin.
Result<double> TimeOrchestrated(const fs::path& csv, const fs::path& workdir,
                                const std::string& cli,
                                const OrchBenchParams& p,
                                const std::string& faults) {
  orch::OrchestratorOptions options;
  options.spec.parties = 3;
  options.spec.data = csv.string();
  options.spec.out = "model";
  options.spec.depth = p.depth;
  options.spec.key_bits = p.key_bits;
  options.workdir = workdir.string();
  options.cli = cli;
  options.deadline_ms = 300'000;
  if (!faults.empty()) {
    PIVOT_ASSIGN_OR_RETURN(options.faults,
                           orch::ProcFaultPlan::Parse(faults, 3));
  }

  WallTimer timer;
  orch::Orchestrator orchestrator(std::move(options));
  PIVOT_ASSIGN_OR_RETURN(orch::OrchestratorReport report, orchestrator.Run());
  const double seconds = timer.ElapsedSeconds();
  if (!report.ok) {
    return Status::Internal("orchestrated run failed: " + report.root_cause);
  }
  return seconds;
}

// Every mode must reproduce the baseline model views byte for byte.
Result<bool> ViewsMatch(const std::string& base_prefix,
                        const std::string& other_prefix) {
  for (int i = 0; i < 3; ++i) {
    const std::string suffix = ".party" + std::to_string(i) + ".bin";
    PIVOT_ASSIGN_OR_RETURN(Bytes a, ReadAll(base_prefix + suffix));
    PIVOT_ASSIGN_OR_RETURN(Bytes b, ReadAll(other_prefix + suffix));
    if (a != b) return false;
  }
  return true;
}

std::string FindCli(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--cli=", 6) == 0) return argv[i] + 6;
  }
  if (const char* env = std::getenv("PIVOT_CLI")) return env;
  for (const char* candidate : {"../tools/pivot_cli", "tools/pivot_cli"}) {
    if (fs::exists(candidate)) return fs::absolute(candidate).string();
  }
  return "";
}

int Main(int argc, char** argv) {
  const BenchArgs args = ParseBenchArgs(argc, argv);
  OrchBenchParams p;
  if (args.tiny) {
    p.rows = 30;
    p.depth = 2;
    p.reps = 1;
  } else if (args.full) {
    p.rows = 200;
    p.depth = 4;
    p.reps = 5;
  }

  const std::string cli = FindCli(argc, argv);
  if (cli.empty() || !fs::exists(cli)) {
    std::fprintf(stderr,
                 "SKIP: pivot_cli not found (pass --cli=PATH or set "
                 "PIVOT_CLI)\n");
    return 0;
  }

  const fs::path dir =
      fs::temp_directory_path() /
      ("pivot_bench_orch." + std::to_string(::getpid()));
  std::error_code ec;
  fs::create_directories(dir, ec);
  const fs::path csv = dir / "train.csv";
  WriteCsv(csv, p.rows);

  Result<Dataset> data = LoadCsv(csv.string());
  if (!data.ok()) {
    std::fprintf(stderr, "error: %s\n", data.status().ToString().c_str());
    return 1;
  }

  std::printf("orchestration overhead: %d rows, depth %d, %d-bit keys, "
              "%d rep(s)\n",
              p.rows, p.depth, p.key_bits, p.reps);
  std::printf("%-22s %4s %10s\n", "mode", "rep", "seconds");

  struct Mode {
    const char* name;
    std::string faults;  // empty = fault-free; only orchestrated modes
    bool orchestrated;
  };
  const std::vector<Mode> modes = {
      {"in-memory", "", false},
      {"orchestrated-sockets", "", true},
      {"orchestrated-kill", "900:kill:1", true},
  };

  const std::string base_prefix = (dir / "mem").string();
  std::vector<JsonObject> rows;
  double mem_total = 0.0;
  double orch_total = 0.0;
  for (const Mode& mode : modes) {
    for (int rep = 0; rep < p.reps; ++rep) {
      Result<double> seconds = Status::Ok();
      std::string view_prefix;
      if (mode.orchestrated) {
        const fs::path workdir =
            dir / (std::string(mode.name) + ".rep" + std::to_string(rep));
        seconds = TimeOrchestrated(csv, workdir, cli, p, mode.faults);
        view_prefix = (workdir / "model").string();
      } else {
        seconds = TimeInMemory(data.value(), p, base_prefix);
        view_prefix = base_prefix;
      }
      if (!seconds.ok()) {
        std::fprintf(stderr, "error: %s (%s rep %d)\n",
                     seconds.status().ToString().c_str(), mode.name, rep);
        return 1;
      }
      // Bit-identity gate: transport/supervision must never change the
      // model. (Rep 0 of in-memory *writes* the baseline.)
      Result<bool> match = ViewsMatch(base_prefix, view_prefix);
      if (!match.ok() || !match.value()) {
        std::fprintf(stderr,
                     "FAIL: %s rep %d model views differ from the in-memory "
                     "baseline\n", mode.name, rep);
        return 1;
      }
      std::printf("%-22s %4d %9.3fs\n", mode.name, rep, seconds.value());
      if (std::strcmp(mode.name, "in-memory") == 0) {
        mem_total += seconds.value();
      } else if (std::strcmp(mode.name, "orchestrated-sockets") == 0) {
        orch_total += seconds.value();
      }
      JsonObject row;
      row.Set("mode", mode.name);
      row.Set("rep", rep);
      row.Set("seconds", seconds.value());
      if (!mode.faults.empty()) row.Set("faults", mode.faults);
      row.Set("bit_identical", "true");
      rows.push_back(std::move(row));
    }
  }

  const double overhead =
      mem_total > 0.0 ? orch_total / mem_total : 0.0;
  std::printf("orchestrated-sockets / in-memory wall-clock: %.2fx\n",
              overhead);

  JsonObject meta;
  meta.Set("samples", static_cast<uint64_t>(p.rows));
  meta.Set("depth", p.depth);
  meta.Set("key_bits", p.key_bits);
  meta.Set("reps", p.reps);
  meta.Set("parties", 3);
  meta.Set("orchestrated_over_in_memory", overhead);
  WriteBenchJson("bench_orchestrator", std::move(meta), rows);

  fs::remove_all(dir, ec);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pivot

int main(int argc, char** argv) {
  return pivot::bench::Main(argc, argv);
}
