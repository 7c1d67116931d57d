// Table 3: model accuracy, Pivot vs the non-private baselines.
//
// The paper evaluates on three real datasets (bank marketing 4521x17 and
// credit card 30000x25 for classification; appliances energy 19735x29 for
// regression). Those datasets are not redistributable here, so this bench
// uses matched-shape synthetic stand-ins (see the substitution table in
// DESIGN.md): the claim under test — the private algorithms match their
// plaintext counterparts on the same data — is data-independent, because
// Pivot explores the identical split space and computes the same gains up
// to fixed-point rounding.
//
// Columns mirror the paper: Pivot-DT vs NP-DT, Pivot-RF vs NP-RF,
// Pivot-GBDT vs NP-GBDT (accuracy for classification, MSE for
// regression).

#include "bench/bench_util.h"
#include "tree/forest.h"
#include "tree/gbdt.h"

using namespace pivot;
using namespace pivot::bench;

namespace {

struct DatasetSpec {
  const char* name;
  bool regression;
  int n, d, classes;
  uint64_t seed;
};

struct RowResult {
  double pivot_dt, np_dt, pivot_rf, np_rf, pivot_gbdt, np_gbdt;
};

double Score(bool regression, const std::vector<double>& pred,
             const std::vector<double>& truth) {
  return regression ? MeanSquaredError(pred, truth) : Accuracy(pred, truth);
}

// Evaluates a party-0 basic-protocol model centrally (the basic model is
// public, so this is equivalent to running the distributed prediction for
// every test row, just faster).
std::vector<double> EvalTree(const PivotTree& tree, const Dataset& test,
                             const std::vector<std::vector<int>>& fmap) {
  std::vector<double> out;
  out.reserve(test.num_samples());
  for (const auto& row : test.features) {
    out.push_back(tree.EvaluatePlain(row, fmap));
  }
  return out;
}

std::vector<double> EvalEnsemble(const PivotEnsemble& model,
                                 const Dataset& test,
                                 const std::vector<std::vector<int>>& fmap) {
  std::vector<double> out;
  for (const auto& row : test.features) {
    if (model.task == TreeTask::kRegression && model.forests.size() == 1 &&
        model.learning_rate != 1.0) {
      double acc = 0;
      for (const PivotTree& t : model.forests[0]) {
        acc += t.EvaluatePlain(row, fmap);
      }
      out.push_back(model.learning_rate * acc);
    } else if (model.forests.size() == 1) {
      // RF: majority vote / mean.
      if (model.task == TreeTask::kRegression) {
        double acc = 0;
        for (const PivotTree& t : model.forests[0]) {
          acc += t.EvaluatePlain(row, fmap);
        }
        out.push_back(acc / model.forests[0].size());
      } else {
        std::vector<int> votes(model.num_classes, 0);
        for (const PivotTree& t : model.forests[0]) {
          ++votes[static_cast<int>(t.EvaluatePlain(row, fmap))];
        }
        out.push_back(static_cast<double>(
            std::max_element(votes.begin(), votes.end()) - votes.begin()));
      }
    } else {
      // GBDT classification: argmax of per-class score sums.
      int best = 0;
      double best_score = -1e30;
      for (size_t k = 0; k < model.forests.size(); ++k) {
        double score = 0;
        for (const PivotTree& t : model.forests[k]) {
          score += t.EvaluatePlain(row, fmap);
        }
        if (score > best_score) {
          best_score = score;
          best = static_cast<int>(k);
        }
      }
      out.push_back(best);
    }
  }
  return out;
}

RowResult RunDataset(const DatasetSpec& spec, const BenchArgs& args) {
  Dataset data;
  if (spec.regression) {
    RegressionSpec rs;
    rs.num_samples = spec.n;
    rs.num_features = spec.d;
    rs.seed = spec.seed;
    data = MakeRegression(rs);
  } else {
    ClassificationSpec cs;
    cs.num_samples = spec.n;
    cs.num_features = spec.d;
    cs.num_classes = spec.classes;
    cs.class_separation = 1.5;
    cs.seed = spec.seed;
    data = MakeClassification(cs);
  }
  Rng rng(spec.seed + 1);
  TrainTestSplit split = SplitTrainTest(data, 0.25, rng);

  const int m = 3;
  const int trees = args.full ? 8 : 2;
  FederationConfig cfg;
  cfg.num_parties = m;
  cfg.params.tree.task =
      spec.regression ? TreeTask::kRegression : TreeTask::kClassification;
  cfg.params.tree.num_classes = spec.classes;
  cfg.params.tree.max_depth = args.full ? 3 : 2;
  cfg.params.tree.max_splits = args.full ? 8 : 4;
  // Paper: 512-bit keys for the accuracy experiments.
  cfg.params.key_bits = args.full ? 512 : 384;
  cfg.params.crypto_threads = kFigureCryptoThreads;

  std::vector<std::vector<int>> fmap;
  for (const auto& v : PartitionVertically(data, m).views) {
    fmap.push_back(v.feature_indices);
  }

  RowResult row{};
  std::mutex mu;
  Status st = RunFederation(split.train, cfg, [&](PartyContext& ctx) -> Status {
    TrainTreeOptions dt_opts;
    PIVOT_ASSIGN_OR_RETURN(PivotTree dt, TrainPivotTree(ctx, dt_opts));
    EnsembleOptions rf_opts;
    rf_opts.num_trees = trees;
    PIVOT_ASSIGN_OR_RETURN(PivotEnsemble rf, TrainPivotForest(ctx, rf_opts));
    EnsembleOptions gbdt_opts;
    gbdt_opts.num_trees = trees;
    PIVOT_ASSIGN_OR_RETURN(PivotEnsemble gbdt, TrainPivotGbdt(ctx, gbdt_opts));
    if (ctx.id() == 0) {
      std::lock_guard<std::mutex> lock(mu);
      row.pivot_dt = Score(spec.regression, EvalTree(dt, split.test, fmap),
                           split.test.labels);
      row.pivot_rf = Score(spec.regression,
                           EvalEnsemble(rf, split.test, fmap),
                           split.test.labels);
      row.pivot_gbdt = Score(spec.regression,
                             EvalEnsemble(gbdt, split.test, fmap),
                             split.test.labels);
    }
    return Status::Ok();
  });
  if (!st.ok()) {
    std::fprintf(stderr, "federation failed on %s: %s\n", spec.name,
                 st.ToString().c_str());
    std::exit(1);
  }

  // Non-private baselines, identical hyper-parameters.
  TreeModel np_dt = TrainCart(split.train, cfg.params.tree);
  row.np_dt = Score(spec.regression, PredictAll(np_dt, split.test),
                    split.test.labels);
  ForestParams fp;
  fp.tree = cfg.params.tree;
  fp.num_trees = trees;
  row.np_rf = Score(spec.regression,
                    PredictAll(TrainForest(split.train, fp), split.test),
                    split.test.labels);
  GbdtParams gp;
  gp.tree = cfg.params.tree;
  gp.num_rounds = trees;
  row.np_gbdt = Score(spec.regression,
                      PredictAll(TrainGbdt(split.train, gp), split.test),
                      split.test.labels);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  BenchArgs args = ParseBenchArgs(argc, argv);
  // Matched-shape stand-ins for the paper's three datasets (scaled down
  // by default; --full restores the original sizes).
  const std::vector<DatasetSpec> specs = {
      {"bank-market (like 4521x17, cls)", false, args.full ? 4521 : 240, 16,
       2, 101},
      {"credit-card (like 30000x25, cls)", false, args.full ? 30000 : 260,
       24, 2, 102},
      {"appliances-energy (like 19735x29, regr)", true,
       args.full ? 19735 : 240, 28, 2, 103},
  };

  std::printf("# Table 3: accuracy (classification) / MSE (regression)\n");
  std::printf("%-42s %9s %9s %9s %9s %10s %10s\n", "dataset", "Pivot-DT",
              "NP-DT", "Pivot-RF", "NP-RF", "Pivot-GBDT", "NP-GBDT");
  for (const DatasetSpec& spec : specs) {
    RowResult row = RunDataset(spec, args);
    std::printf("%-42s %9.4f %9.4f %9.4f %9.4f %10.4f %10.4f\n", spec.name,
                row.pivot_dt, row.np_dt, row.pivot_rf, row.np_rf,
                row.pivot_gbdt, row.np_gbdt);
  }
  std::printf("\n# expectation: each Pivot column tracks its NP column "
              "closely (fixed-point rounding only)\n");
  return 0;
}
