// Figure 4f: ensemble training time vs. the number of trees W.
// Series: Pivot-RF classification / regression, Pivot-GBDT classification
// / regression. Expected shape (paper): linear in W for all; GBDT
// classification is by far the most expensive (one-vs-the-rest trains W·c
// trees and runs a secure softmax per round); GBDT regression is slightly
// above RF regression (encrypted residual labels); RF classification is
// slightly above RF regression (c=4 vs 1 label vector).

#include "bench/bench_util.h"

using namespace pivot;
using namespace pivot::bench;

namespace {

double TimeEnsemble(const Dataset& data, FederationConfig cfg, bool gbdt,
                    int num_trees) {
  double seconds = -1.0;
  std::mutex mu;
  Status st = RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    WallTimer timer;
    EnsembleOptions opts;
    opts.num_trees = num_trees;
    if (gbdt) {
      PIVOT_RETURN_IF_ERROR(TrainPivotGbdt(ctx, opts).status());
    } else {
      PIVOT_RETURN_IF_ERROR(TrainPivotForest(ctx, opts).status());
    }
    if (ctx.id() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      seconds = timer.ElapsedSeconds();
    }
    return Status::Ok();
  });
  if (!st.ok()) {
    std::fprintf(stderr, "ensemble failed: %s\n", st.ToString().c_str());
    std::exit(1);
  }
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  const std::vector<int> ws =
      args.full ? std::vector<int>{2, 4, 8, 16, 32} : std::vector<int>{2, 4};

  // Smaller base workload: ensembles multiply the tree cost by W (and by
  // c for GBDT classification).
  Workload base = Workload::Default(args);
  if (!args.full) {
    base.n = 150;
    base.d = 3;
    base.h = 2;
  }

  std::printf("# Figure 4f: ensemble training time vs W (n=%d, d=%d, c=%d)\n",
              base.n, base.d, base.c);
  std::printf("%-8s %18s %18s %18s %18s\n", "W", "RF-Class", "GBDT-Class",
              "RF-Regr", "GBDT-Regr");
  for (int w_trees : ws) {
    // Classification workloads (c classes).
    Workload wc = base;
    Dataset dc = MakeWorkloadData(wc, 11);
    FederationConfig cfg_c = MakeFederationConfig(wc, args, 384);
    const double rf_c = TimeEnsemble(dc, cfg_c, /*gbdt=*/false, w_trees);
    const double gbdt_c = TimeEnsemble(dc, cfg_c, /*gbdt=*/true, w_trees);

    // Regression workloads.
    Workload wr = base;
    wr.task = TreeTask::kRegression;
    Dataset dr = MakeWorkloadData(wr, 12);
    FederationConfig cfg_r = MakeFederationConfig(wr, args, 384);
    const double rf_r = TimeEnsemble(dr, cfg_r, /*gbdt=*/false, w_trees);
    const double gbdt_r = TimeEnsemble(dr, cfg_r, /*gbdt=*/true, w_trees);

    std::printf("%-8d %17.3fs %17.3fs %17.3fs %17.3fs\n", w_trees, rf_c,
                gbdt_c, rf_r, gbdt_r);
  }
  return 0;
}
