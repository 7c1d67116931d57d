#ifndef PIVOT_BENCH_BENCH_UTIL_H_
#define PIVOT_BENCH_BENCH_UTIL_H_

// Shared harness for the table/figure reproduction benches. Every bench
// binary prints the same rows/series as the corresponding paper artifact
// (see DESIGN.md §2). Default parameters are scaled down from the paper's
// Table 4 so the full suite completes on a laptop; pass --full for
// paper-scale parameters (long-running).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/npd_dt.h"
#include "baselines/spdz_dt.h"
#include "common/op_counters.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "data/synthetic.h"
#include "pivot/ensemble.h"
#include "pivot/prediction.h"
#include "pivot/runner.h"
#include "pivot/trainer.h"

namespace pivot {
namespace bench {

struct BenchArgs {
  bool full = false;
  // CI smoke mode: shrink the workload until the bench finishes in
  // seconds; results are for plumbing validation, not measurement.
  bool tiny = false;
};

inline BenchArgs ParseBenchArgs(int argc, char** argv) {
  BenchArgs args;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--full") == 0) args.full = true;
    if (std::strcmp(argv[i], "--tiny") == 0) args.tiny = true;
  }
  return args;
}

// ----- JSON result emission ------------------------------------------------
// Every bench can persist its measurements as one JSON object in
// bench_results/<name>.json (directory overridable with
// PIVOT_BENCH_OUT_DIR) so runs are diffable and machine-readable. The
// object carries the host's hardware_threads so wall-clock numbers from
// core-starved machines (e.g. 1-core CI) are interpretable.

// Flat ordered string->literal JSON object builder; enough for bench rows
// (numbers and strings, no nesting).
class JsonObject {
 public:
  JsonObject& Set(const std::string& key, const std::string& v) {
    std::string escaped;
    for (char c : v) {
      if (c == '"' || c == '\\') escaped.push_back('\\');
      escaped.push_back(c);
    }
    return SetRaw(key, "\"" + escaped + "\"");
  }
  JsonObject& Set(const std::string& key, const char* v) {
    return Set(key, std::string(v));
  }
  JsonObject& Set(const std::string& key, double v) {
    std::ostringstream os;
    os << v;
    return SetRaw(key, os.str());
  }
  JsonObject& Set(const std::string& key, uint64_t v) {
    return SetRaw(key, std::to_string(v));
  }
  JsonObject& Set(const std::string& key, int v) {
    return SetRaw(key, std::to_string(v));
  }

  std::string Render(const std::string& indent) const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      out += (i == 0 ? "\n" : ",\n");
      out += indent + "  \"" + fields_[i].first + "\": " + fields_[i].second;
    }
    out += "\n" + indent + "}";
    return out;
  }

  // Standard per-row operation counts (cost-model + kernel counters).
  JsonObject& SetOps(const OpSnapshot& ops) {
    Set("ciphertext_ops", ops.ce);
    Set("threshold_decryptions", ops.cd);
    Set("secure_ops", ops.cs);
    Set("pool_tasks", ops.pool_tasks);
    Set("batch_calls", ops.batch_calls);
    Set("enc_pool_hits", ops.enc_pool_hits);
    Set("enc_pool_misses", ops.enc_pool_misses);
    return *this;
  }

 private:
  JsonObject& SetRaw(const std::string& key, std::string literal) {
    fields_.emplace_back(key, std::move(literal));
    return *this;
  }
  std::vector<std::pair<std::string, std::string>> fields_;
};

// Writes `{...meta, "rows": [...]}` to <out-dir>/<name>.json. Returns
// false (and warns on stderr) on I/O failure; benches treat the JSON as
// best-effort and still print their human-readable tables.
inline bool WriteBenchJson(const std::string& name, JsonObject meta,
                           const std::vector<JsonObject>& rows) {
  const char* env = std::getenv("PIVOT_BENCH_OUT_DIR");
  const std::filesystem::path dir = env != nullptr ? env : "bench_results";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::filesystem::path path = dir / (name + ".json");

  meta.Set("bench", name);
  meta.Set("hardware_threads",
           static_cast<uint64_t>(std::thread::hardware_concurrency()));
  // What crypto_threads = 0 (auto) resolves to in this process.
  meta.Set("available_cpus", AvailableCpus());
  std::string body = meta.Render("");
  body.erase(body.rfind('\n'));  // drop the closing "\n}" ...
  body += ",\n  \"rows\": [";
  for (size_t i = 0; i < rows.size(); ++i) {
    body += (i == 0 ? "\n    " : ",\n    ") + rows[i].Render("    ");
  }
  body += "\n  ]\n}\n";

  std::FILE* f = std::fopen(path.string().c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "warning: cannot write %s\n", path.string().c_str());
    return false;
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("# results written to %s\n", path.string().c_str());
  return true;
}

// The evaluated parameters of the paper's Table 4 (defaults scaled down;
// --full restores the paper's defaults).
struct Workload {
  int m = 3;    // clients                 (paper default 3)
  int n = 200;  // samples                 (paper default 50000)
  int d = 3;    // features per client     (paper default 15)
  int b = 4;    // max splits per feature  (paper default 8)
  int h = 3;    // max tree depth          (paper default 4)
  int c = 4;    // classes                 (paper default 4)
  TreeTask task = TreeTask::kClassification;

  static Workload Default(const BenchArgs& args) {
    Workload w;
    if (args.full) {
      w.n = 50000;
      w.d = 15;
      w.b = 8;
      w.h = 4;
    }
    return w;
  }
};

inline Dataset MakeWorkloadData(const Workload& w, uint64_t seed = 1) {
  if (w.task == TreeTask::kRegression) {
    RegressionSpec spec;
    spec.num_samples = w.n;
    spec.num_features = w.d * w.m;
    spec.seed = seed;
    return MakeRegression(spec);
  }
  ClassificationSpec spec;
  spec.num_samples = w.n;
  spec.num_features = w.d * w.m;
  spec.num_classes = w.c;
  spec.seed = seed;
  return MakeClassification(spec);
}

// Crypto fan-out of every figure bench: the paper's plain systems are
// sequential, so figures stay comparable across hosts and with earlier
// committed runs. The "-PP" systems (TimeTreeTraining) use 6; benches
// that measure the library default (serving, orchestrator) or sweep the
// count set their own.
constexpr int kFigureCryptoThreads = 1;

inline FederationConfig MakeFederationConfig(const Workload& w,
                                             const BenchArgs& args,
                                             int key_bits) {
  FederationConfig cfg;
  cfg.num_parties = w.m;
  cfg.params.tree.task = w.task;
  cfg.params.tree.num_classes = w.c;
  cfg.params.tree.max_depth = w.h;
  cfg.params.tree.max_splits = w.b;
  cfg.params.tree.min_samples_split = 5;
  cfg.params.key_bits = args.full ? 1024 : key_bits;
  cfg.params.crypto_threads = kFigureCryptoThreads;
  // LAN emulation: the paper's testbed is a LAN cluster; without delay the
  // in-memory mesh would hide all communication costs (DESIGN.md).
  cfg.network_sim.latency_us = 20;
  cfg.network_sim.bandwidth_gbps = 1.0;
  return cfg;
}

enum class System {
  kPivotBasic,
  kPivotBasicPP,     // parallel threshold decryption
  kPivotEnhanced,
  kPivotEnhancedPP,
  kSpdzDt,
  kNpdDt,
};

inline const char* SystemName(System s) {
  switch (s) {
    case System::kPivotBasic: return "Pivot-Basic";
    case System::kPivotBasicPP: return "Pivot-Basic-PP";
    case System::kPivotEnhanced: return "Pivot-Enhanced";
    case System::kPivotEnhancedPP: return "Pivot-Enhanced-PP";
    case System::kSpdzDt: return "SPDZ-DT";
    case System::kNpdDt: return "NPD-DT";
  }
  return "?";
}

struct TrainResult {
  double seconds = 0.0;
  OpSnapshot ops;  // delta over the training run (all parties aggregated)
  uint64_t bytes_sent = 0;  // payload bytes, all parties (NetworkStats)
};

// Trains one tree with the given system and reports party-0 wall time plus
// the operation-count and traffic deltas. Key generation / data
// partitioning excluded.
inline Result<TrainResult> TimeTreeTraining(const Dataset& data,
                                            FederationConfig cfg,
                                            System system) {
  if (system == System::kPivotBasicPP || system == System::kPivotEnhancedPP) {
    cfg.params.crypto_threads = 6;
  }
  if (system == System::kPivotEnhanced || system == System::kPivotEnhancedPP) {
    cfg.params.key_bits = std::max(cfg.params.key_bits, 384);
  }
  TrainResult result;
  std::mutex mu;
  OpSnapshot before = OpSnapshot::Take();
  NetworkStats net;
  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    WallTimer timer;
    switch (system) {
      case System::kPivotBasic:
      case System::kPivotBasicPP: {
        TrainTreeOptions opts;
        PIVOT_RETURN_IF_ERROR(TrainPivotTree(ctx, opts).status());
        break;
      }
      case System::kPivotEnhanced:
      case System::kPivotEnhancedPP: {
        TrainTreeOptions opts;
        opts.protocol = Protocol::kEnhanced;
        PIVOT_RETURN_IF_ERROR(TrainPivotTree(ctx, opts).status());
        break;
      }
      case System::kSpdzDt:
        PIVOT_RETURN_IF_ERROR(TrainSpdzDt(ctx).status());
        break;
      case System::kNpdDt:
        PIVOT_RETURN_IF_ERROR(TrainNpdDt(ctx).status());
        break;
    }
    if (ctx.id() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      result.seconds = timer.ElapsedSeconds();
    }
    return Status::Ok();
  }, &net);
  PIVOT_RETURN_IF_ERROR(st);
  result.ops = OpSnapshot::Take().Delta(before);
  result.bytes_sent = net.bytes_sent;
  return result;
}

inline void PrintSeriesHeader(const char* x_name,
                              const std::vector<System>& systems) {
  std::printf("%-8s", x_name);
  for (System s : systems) std::printf(" %16s", SystemName(s));
  std::printf("\n");
}

inline void PrintSeriesRow(double x, const std::vector<double>& seconds) {
  std::printf("%-8g", x);
  for (double s : seconds) std::printf(" %14.3fs", s);
  std::printf("\n");
}

}  // namespace bench
}  // namespace pivot

#endif  // PIVOT_BENCH_BENCH_UTIL_H_
