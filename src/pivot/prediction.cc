#include "pivot/prediction.h"

#include <algorithm>
#include <string>

#include "common/check.h"
#include "common/fixed_point.h"
#include "net/codec.h"

namespace pivot {

namespace {

// Maps every leaf (in LeafOrder) to the list of internal-node constraints
// along its root path: (node id, goes_left).
using PathConstraint = LeafPathConstraint;

void CollectPaths(const PivotTree& tree, int id,
                  std::vector<PathConstraint>& prefix,
                  std::vector<std::vector<PathConstraint>>& out) {
  const PivotNode& n = tree.nodes[id];
  if (n.is_leaf) {
    out.push_back(prefix);
    return;
  }
  prefix.push_back({id, true});
  CollectPaths(tree, n.left, prefix, out);
  prefix.back().left = false;
  CollectPaths(tree, n.right, prefix, out);
  prefix.pop_back();
}

std::vector<std::vector<PathConstraint>> LeafPaths(const PivotTree& tree) {
  std::vector<std::vector<PathConstraint>> out;
  std::vector<PathConstraint> prefix;
  if (!tree.nodes.empty()) CollectPaths(tree, 0, prefix, out);
  return out;
}

// The plaintext leaf/label vector z of the basic protocol, in LeafOrder.
std::vector<BigInt> LeafPlainVector(const PivotTree& tree,
                                    const std::vector<int>& leaf_order) {
  std::vector<BigInt> z;
  z.reserve(leaf_order.size());
  for (int id : leaf_order) {
    const double v = tree.nodes[id].leaf_value;
    if (tree.task == TreeTask::kRegression) {
      z.push_back(FpToBigInt(FpFromSigned(FixedFromDouble(v))));
    } else {
      z.push_back(BigInt(static_cast<int64_t>(v)));
    }
  }
  return z;
}

// Both sweeps route an internal node by its owner: basic selectors skip
// the nodes a party does not own, and the enhanced sweep takes a public
// feature's value from its owner. So every such node must name a party in
// [0, m); a hidden-feature enhanced node (feature_local < 0) is routed by
// its lambda selectors instead and may name none. Runs before a sweep
// sends anything, so every party rejects the tree alike.
Status CheckRoutedOwners(const PartyContext& ctx, const PivotTree& tree) {
  for (const PivotNode& n : tree.nodes) {
    if (n.is_leaf) continue;
    if (tree.protocol == Protocol::kEnhanced && n.feature_local < 0) continue;
    if (n.owner < 0 || n.owner >= ctx.num_parties()) {
      return Status::InvalidArgument(
          "tree node owner " + std::to_string(n.owner) + " is not one of the " +
          std::to_string(ctx.num_parties()) + " parties");
    }
  }
  return Status::Ok();
}

// Batched selector bits for this party: sel[b*leaves + leaf] is 1 iff
// row b is consistent with the leaf's root path at every internal node
// this party owns.
Result<std::vector<BigInt>> BatchSelectors(
    PartyContext& ctx, const PivotTree& tree,
    const std::vector<std::vector<double>>& rows,
    const std::vector<std::vector<PathConstraint>>& paths) {
  const size_t leaves = paths.size();
  std::vector<BigInt> sel(rows.size() * leaves);
  for (size_t b = 0; b < rows.size(); ++b) {
    const std::vector<double>& row = rows[b];
    for (size_t leaf = 0; leaf < leaves; ++leaf) {
      bool possible = true;
      for (const PathConstraint& pc : paths[leaf]) {
        const PivotNode& n = tree.nodes[pc.node];
        if (n.owner != ctx.id()) continue;
        if (n.feature_local < 0 ||
            static_cast<size_t>(n.feature_local) >= row.size()) {
          return Status::InvalidArgument(
              "request row narrower than this party's feature view");
        }
        const bool go_left = row[n.feature_local] <= n.threshold;
        if (go_left != pc.left) {
          possible = false;
          break;
        }
      }
      sel[b * leaves + leaf] = BigInt(possible ? 1 : 0);
    }
  }
  return sel;
}

// Batched Algorithm 4: one round-robin sweep updates all B encrypted
// prediction vectors — each hop ships one B x leaves ciphertext matrix
// instead of B separate vectors — and party 0 derives one [k-bar] per
// sample. Party m-1 encrypts its selector bits directly: Enc(sel) has
// the plaintext of Rerandomize(ScalarMul(sel, Enc(1))), Algorithm 4's
// first hop, without the ones-encryption and the scalar multiply.
// Returns the B [k-bar]s on party 0, {} elsewhere.
Result<std::vector<Ciphertext>> RunBasicPredictionBatch(
    PartyContext& ctx, const PivotTree& tree,
    const std::vector<std::vector<double>>& rows,
    const PredictionCache& cache) {
  PIVOT_RETURN_IF_ERROR(CheckRoutedOwners(ctx, tree));
  const int m = ctx.num_parties();
  const size_t batch = rows.size();
  const size_t leaves = cache.paths.size();

  PIVOT_ASSIGN_OR_RETURN(std::vector<BigInt> sel,
                         BatchSelectors(ctx, tree, rows, cache.paths));
  std::vector<Ciphertext> eta;
  if (ctx.id() == m - 1) {
    PIVOT_ASSIGN_OR_RETURN(eta, ctx.EncryptBatch(sel));
  } else {
    PIVOT_ASSIGN_OR_RETURN(Bytes msg, ctx.endpoint().Recv(ctx.id() + 1));
    PIVOT_ASSIGN_OR_RETURN(CiphertextMatrix mat, DecodeCiphertextMatrix(msg));
    if (mat.rows != batch || mat.cols != leaves) {
      return Status::ProtocolError("prediction batch shape mismatch");
    }
    PIVOT_ASSIGN_OR_RETURN(
        std::vector<Ciphertext> scaled,
        ScalarMulBatch(ctx.pk(), sel, mat.flat, ctx.crypto_threads()));
    PIVOT_ASSIGN_OR_RETURN(eta, ctx.RerandomizeBatch(scaled));
  }
  if (ctx.id() > 0) {
    PIVOT_RETURN_IF_ERROR(ctx.endpoint().Send(
        ctx.id() - 1, EncodeCiphertextMatrix(batch, leaves, eta)));
    return std::vector<Ciphertext>{};
  }
  std::vector<Ciphertext> kbars;
  kbars.reserve(batch);
  for (size_t b = 0; b < batch; ++b) {
    const std::vector<Ciphertext> slice(eta.begin() + b * leaves,
                                        eta.begin() + (b + 1) * leaves);
    kbars.push_back(ctx.pk().DotProduct(cache.leaf_plain, slice));
  }
  return kbars;
}

// Batched enhanced prediction (Section 5.2): every step runs once over
// the concatenated batch — one InputVector round per public-feature node,
// one B-wide oblivious selection per hidden node (reusing the cached
// lambda window tables), one share conversion for all hidden values, one
// comparison round for all internal nodes x samples, one Beaver round per
// tree level of markers, and one final leaf dot product. Returns each
// sample's prediction share (batch-major within each node/leaf block).
Result<std::vector<u128>> RunEnhancedPredictionBatch(
    PartyContext& ctx, const PivotTree& tree,
    const std::vector<std::vector<double>>& rows,
    const PredictionCache& cache) {
  PIVOT_RETURN_IF_ERROR(CheckRoutedOwners(ctx, tree));
  MpcEngine& eng = ctx.engine();
  const int k_bound = kValueBits;
  const size_t batch = rows.size();
  const size_t node_count = tree.nodes.size();

  // 1. Secret-share the feature value at every internal node for every
  // sample of the batch. Nodes with a public feature: the owner inputs
  // its values. Nodes with a hidden feature (HidingLevel::kFeature /
  // kClientAndFeature): every involved client selects its candidate
  // feature values against its retained lambda slice; the homomorphic
  // sum is the winning feature's value, which is then converted to
  // shares without anyone learning which feature was used.
  std::vector<u128> x(node_count * batch, 0);
  std::vector<Ciphertext> hidden_cts;  // node-major, `batch` per node
  std::vector<size_t> hidden_ids;
  for (size_t id = 0; id < node_count; ++id) {
    const PivotNode& n = tree.nodes[id];
    if (n.is_leaf) continue;
    if (n.feature_local >= 0) {
      std::vector<i128> vals;
      if (n.owner == ctx.id()) {
        vals.resize(batch);
        for (size_t b = 0; b < batch; ++b) {
          if (static_cast<size_t>(n.feature_local) >= rows[b].size()) {
            return Status::InvalidArgument(
                "request row narrower than this party's feature view");
          }
          vals[b] = FixedFromDouble(rows[b][n.feature_local]);
        }
      }
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> shares,
                             eng.InputVector(n.owner, vals, batch));
      for (size_t b = 0; b < batch; ++b) x[id * batch + b] = shares[b];
      continue;
    }
    const auto it = cache.lambda.find(static_cast<int>(id));
    if (it == cache.lambda.end()) {
      return Status::FailedPrecondition(
          "hidden-feature node without a retained lambda selector");
    }
    std::vector<Ciphertext> x_node(batch, ctx.pk().One());
    bool any = false;
    for (int p = 0; p < ctx.num_parties(); ++p) {
      const PreparedCiphertexts* prepared =
          p < static_cast<int>(it->second.size()) ? it->second[p].get()
                                                  : nullptr;
      if (prepared == nullptr) continue;
      std::vector<Ciphertext> partial;
      if (p == ctx.id()) {
        std::vector<std::vector<BigInt>> x_fix(batch);
        for (size_t b = 0; b < batch; ++b) {
          x_fix[b].resize(n.lambda_features[p].size());
          for (size_t e = 0; e < x_fix[b].size(); ++e) {
            const int feature = n.lambda_features[p][e];
            if (feature < 0 ||
                static_cast<size_t>(feature) >= rows[b].size()) {
              return Status::InvalidArgument(
                  "request row narrower than this party's feature view");
            }
            x_fix[b][e] =
                FpToBigInt(FpFromSigned(FixedFromDouble(rows[b][feature])));
          }
        }
        PIVOT_ASSIGN_OR_RETURN(
            partial, prepared->DotProductMany(x_fix, ctx.crypto_threads()));
        if (ctx.num_parties() > 1) {
          PIVOT_RETURN_IF_ERROR(ctx.BroadcastCiphertexts(partial));
        }
      } else {
        PIVOT_ASSIGN_OR_RETURN(partial, ctx.RecvCiphertexts(p));
      }
      if (partial.size() != batch) {
        return Status::ProtocolError("selection partial size mismatch");
      }
      for (size_t b = 0; b < batch; ++b) {
        x_node[b] = any ? ctx.pk().Add(x_node[b], partial[b]) : partial[b];
      }
      any = true;
    }
    hidden_cts.insert(hidden_cts.end(), x_node.begin(), x_node.end());
    hidden_ids.push_back(id);
  }
  if (!hidden_cts.empty()) {
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> hidden_shares,
                           ctx.CiphertextsToShares(hidden_cts, 0));
    for (size_t i = 0; i < hidden_ids.size(); ++i) {
      for (size_t b = 0; b < batch; ++b) {
        x[hidden_ids[i] * batch + b] = hidden_shares[i * batch + b];
      }
    }
  }

  // 2. Comparison bits for all internal nodes x samples in one round:
  // [x <= tau] = 1 - [tau < x] = LTZ(x - tau - 1).
  std::vector<u128> diffs;
  std::vector<size_t> diff_node;
  for (size_t id = 0; id < node_count; ++id) {
    const PivotNode& n = tree.nodes[id];
    if (n.is_leaf) continue;
    for (size_t b = 0; b < batch; ++b) {
      const u128 d = FpSub(x[id * batch + b], n.threshold_share);
      diffs.push_back(eng.AddConst(d, -1));
    }
    diff_node.push_back(id);
  }
  std::vector<u128> go_left(node_count * batch, 0);
  if (!diffs.empty()) {
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> bits,
                           eng.LessThanZeroVec(diffs, k_bound));
    for (size_t i = 0; i < diff_node.size(); ++i) {
      for (size_t b = 0; b < batch; ++b) {
        go_left[diff_node[i] * batch + b] = bits[i * batch + b];
      }
    }
  }

  // 3. Markers, root to leaves: left = parent*b, right = parent - left.
  // Nodes were added parent-before-children, so a forward scan works.
  std::vector<u128> marker(node_count * batch, 0);
  if (!tree.nodes.empty()) {
    const u128 one = eng.ConstantField(1);
    for (size_t b = 0; b < batch; ++b) marker[b] = one;
  }
  for (size_t id = 0; id < node_count; ++id) {
    const PivotNode& n = tree.nodes[id];
    if (n.is_leaf) continue;
    const std::vector<u128> parents(marker.begin() + id * batch,
                                    marker.begin() + (id + 1) * batch);
    const std::vector<u128> bits(go_left.begin() + id * batch,
                                 go_left.begin() + (id + 1) * batch);
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> left, eng.MulVec(parents, bits));
    for (size_t b = 0; b < batch; ++b) {
      marker[n.left * batch + b] = left[b];
      marker[n.right * batch + b] = MpcEngine::Sub(parents[b], left[b]);
    }
  }

  // 4. Prediction = <z> . <eta> over the leaves, all samples in one round.
  std::vector<u128> etas, zs;
  etas.reserve(cache.leaf_order.size() * batch);
  zs.reserve(cache.leaf_order.size() * batch);
  for (int id : cache.leaf_order) {
    for (size_t b = 0; b < batch; ++b) {
      etas.push_back(marker[id * batch + b]);
      zs.push_back(tree.nodes[id].leaf_share);
    }
  }
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> prods, eng.MulVec(etas, zs));
  std::vector<u128> acc(batch, 0);
  for (size_t l = 0; l < cache.leaf_order.size(); ++l) {
    for (size_t b = 0; b < batch; ++b) {
      acc[b] = FpAdd(acc[b], prods[l * batch + b]);
    }
  }
  return acc;
}

}  // namespace

PredictionCache BuildPredictionCache(const PaillierPublicKey& pk,
                                     const PivotTree& tree) {
  PredictionCache cache;
  cache.paths = LeafPaths(tree);
  cache.leaf_order = tree.LeafOrder();
  cache.leaf_plain = LeafPlainVector(tree, cache.leaf_order);
  for (size_t id = 0; id < tree.nodes.size(); ++id) {
    const PivotNode& n = tree.nodes[id];
    if (n.is_leaf || n.feature_local >= 0 || n.lambda_slices.empty()) continue;
    auto& slots = cache.lambda[static_cast<int>(id)];
    slots.resize(n.lambda_slices.size());
    for (size_t p = 0; p < n.lambda_slices.size(); ++p) {
      if (n.lambda_slices[p].empty()) continue;
      slots[p] = std::make_unique<PreparedCiphertexts>(
          pk, n.lambda_slices[p], /*window_tables=*/true);
    }
  }
  return cache;
}

Result<std::vector<double>> PredictPivotBatch(
    PartyContext& ctx, const PivotTree& tree,
    const std::vector<std::vector<double>>& my_rows,
    const PredictionCache* cache) {
  PIVOT_CHECK_MSG(!tree.nodes.empty(), "empty tree");
  if (my_rows.empty()) return std::vector<double>{};
  PredictionCache transient;
  if (cache == nullptr) {
    transient = BuildPredictionCache(ctx.pk(), tree);
    cache = &transient;
  }
  const size_t batch = my_rows.size();
  std::vector<double> out;
  out.reserve(batch);
  if (tree.protocol == Protocol::kEnhanced) {
    PIVOT_ASSIGN_OR_RETURN(
        std::vector<u128> shares,
        RunEnhancedPredictionBatch(ctx, tree, my_rows, *cache));
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> opened,
                           ctx.engine().OpenVec(shares));
    for (u128 o : opened) {
      const i128 raw = FpToSigned(o);
      out.push_back(tree.task == TreeTask::kRegression
                        ? FixedToDouble(static_cast<int64_t>(raw))
                        : static_cast<double>(raw));
    }
    return out;
  }
  PIVOT_ASSIGN_OR_RETURN(std::vector<Ciphertext> kbars,
                         RunBasicPredictionBatch(ctx, tree, my_rows, *cache));
  PIVOT_ASSIGN_OR_RETURN(std::vector<BigInt> plains,
                         ctx.JointDecrypt(kbars, 0));
  if (plains.size() != batch) {
    return Status::ProtocolError("prediction batch size mismatch");
  }
  for (const BigInt& p : plains) {
    out.push_back(tree.task == TreeTask::kRegression
                      ? ctx.PlaintextToDouble(p)
                      : static_cast<double>(ctx.PlaintextToSigned(p)));
  }
  return out;
}

Result<double> PredictPivot(PartyContext& ctx, const PivotTree& tree,
                            const std::vector<double>& my_features) {
  PIVOT_ASSIGN_OR_RETURN(std::vector<double> preds,
                         PredictPivotBatch(ctx, tree, {my_features}));
  return preds[0];
}

Result<std::vector<double>> PredictPivotMany(
    PartyContext& ctx, const PivotTree& tree,
    const std::vector<std::vector<double>>& my_rows) {
  // One chunk = one batched protocol sweep; bounded so a huge test set
  // never holds its whole encrypted prediction matrix in memory at once.
  // The chunk boundaries are a pure function of the (SPMD-agreed) row
  // count, so every party cuts the stream at the same points.
  constexpr size_t kChunk = 256;
  const PredictionCache cache = BuildPredictionCache(ctx.pk(), tree);
  std::vector<double> out;
  out.reserve(my_rows.size());
  for (size_t begin = 0; begin < my_rows.size(); begin += kChunk) {
    const size_t end = std::min(begin + kChunk, my_rows.size());
    const std::vector<std::vector<double>> chunk(my_rows.begin() + begin,
                                                 my_rows.begin() + end);
    PIVOT_ASSIGN_OR_RETURN(std::vector<double> preds,
                           PredictPivotBatch(ctx, tree, chunk, &cache));
    out.insert(out.end(), preds.begin(), preds.end());
  }
  return out;
}

Result<u128> PredictPivotToShare(PartyContext& ctx, const PivotTree& tree,
                                 const std::vector<double>& my_features) {
  PIVOT_CHECK_MSG(!tree.nodes.empty(), "empty tree");
  const PredictionCache cache = BuildPredictionCache(ctx.pk(), tree);
  if (tree.protocol == Protocol::kEnhanced) {
    PIVOT_ASSIGN_OR_RETURN(
        std::vector<u128> shares,
        RunEnhancedPredictionBatch(ctx, tree, {my_features}, cache));
    return shares[0];
  }
  // Basic: Algorithm 4 up to [k-bar], then Algorithm 2 with party 0 as
  // the holder (only the holder's ciphertexts are read). Note: a basic
  // tree's class prediction is integer-scaled; regression is fixed-point.
  PIVOT_ASSIGN_OR_RETURN(
      std::vector<Ciphertext> kbars,
      RunBasicPredictionBatch(ctx, tree, {my_features}, cache));
  PIVOT_ASSIGN_OR_RETURN(std::vector<u128> shares,
                         ctx.CiphertextsToShares(kbars, 0));
  return shares[0];
}

Result<Ciphertext> PredictPivotEncrypted(
    PartyContext& ctx, const PivotTree& tree,
    const std::vector<double>& my_features) {
  PIVOT_CHECK_MSG(tree.protocol == Protocol::kBasic,
                  "encrypted prediction requires the basic protocol");
  const PredictionCache cache = BuildPredictionCache(ctx.pk(), tree);
  PIVOT_ASSIGN_OR_RETURN(
      std::vector<Ciphertext> kbar,
      RunBasicPredictionBatch(ctx, tree, {my_features}, cache));
  // Party 0 broadcasts [k-bar] so every party holds it.
  if (ctx.id() == 0) {
    if (ctx.num_parties() > 1) {
      PIVOT_RETURN_IF_ERROR(ctx.BroadcastCiphertexts(kbar));
    }
  } else {
    PIVOT_ASSIGN_OR_RETURN(kbar, ctx.RecvCiphertexts(0));
  }
  if (kbar.size() != 1) {
    return Status::ProtocolError("encrypted prediction size mismatch");
  }
  return kbar[0];
}

Result<std::vector<Ciphertext>> PredictTrainingSetEncrypted(
    PartyContext& ctx, const PivotTree& tree) {
  PIVOT_CHECK_MSG(tree.protocol == Protocol::kBasic,
                  "training-set prediction requires the basic protocol");
  std::vector<int> leaf_ids = tree.LeafOrder();
  PIVOT_CHECK_MSG(!leaf_ids.empty() &&
                      !tree.nodes[leaf_ids[0]].leaf_mask.empty(),
                  "tree was trained without keep_leaf_masks");
  const size_t n = tree.nodes[leaf_ids[0]].leaf_mask.size();
  std::vector<Ciphertext> out(n, ctx.pk().One());
  for (int id : leaf_ids) {
    const PivotNode& leaf = tree.nodes[id];
    const BigInt z = FpToBigInt(FpFromSigned(FixedFromDouble(leaf.leaf_value)));
    const std::vector<BigInt> zs(n, z);
    PIVOT_ASSIGN_OR_RETURN(
        std::vector<Ciphertext> scaled,
        ScalarMulBatch(ctx.pk(), zs, leaf.leaf_mask, ctx.crypto_threads()));
    for (size_t t = 0; t < n; ++t) {
      out[t] = ctx.pk().Add(out[t], scaled[t]);
    }
  }
  return out;
}

}  // namespace pivot
