// Ablation: the hybrid TPHE+MPC framework vs pure MPC.
//
// Pivot's central design choice (Section 4) is to compute split statistics
// locally under TPHE and to enter MPC only with O(c·d·b) converted values,
// instead of secret-sharing the O(n·d) dataset and paying n secure
// multiplications per statistic. This bench isolates that choice by
// training the same tree with Pivot-Basic and with SPDZ-DT and reporting
// both wall time and the communication/ops profile as n grows.

#include "bench/bench_util.h"

using namespace pivot;
using namespace pivot::bench;

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  const std::vector<int> ns =
      args.full ? std::vector<int>{5000, 20000, 50000}
                : std::vector<int>{100, 200, 400};

  std::printf("# Ablation: hybrid TPHE+MPC (Pivot-Basic) vs pure MPC "
              "(SPDZ-DT)\n");
  std::printf("%-8s %14s %14s %14s %14s %12s %12s\n", "n", "hybrid(s)",
              "pure-mpc(s)", "hybrid-MB", "pure-MB", "hybrid-Cs",
              "pure-Cs");
  for (int n : ns) {
    Workload w = Workload::Default(args);
    w.n = n;
    Dataset data = MakeWorkloadData(w, 51);
    FederationConfig cfg = MakeFederationConfig(w, args, 256);

    Result<TrainResult> hybrid = TimeTreeTraining(data, cfg,
                                                  System::kPivotBasic);
    Result<TrainResult> pure = TimeTreeTraining(data, cfg, System::kSpdzDt);
    if (!hybrid.ok() || !pure.ok()) {
      std::fprintf(stderr, "ablation failed\n");
      return 1;
    }
    std::printf("%-8d %13.3fs %13.3fs %13.2fM %13.2fM %12llu %12llu\n", n,
                hybrid.value().seconds, pure.value().seconds,
                hybrid.value().bytes_sent / 1e6, pure.value().bytes_sent / 1e6,
                static_cast<unsigned long long>(hybrid.value().ops.cs),
                static_cast<unsigned long long>(pure.value().ops.cs));
  }
  std::printf("\n# expectation: pure-MPC bytes and Cs grow ~linearly in n; "
              "the hybrid's Cs stays ~flat (only Ce grows with n)\n");
  return 0;
}
