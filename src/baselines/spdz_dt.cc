#include "baselines/spdz_dt.h"

#include <algorithm>

#include "common/check.h"
#include "common/fixed_point.h"
#include "net/codec.h"
#include "pivot/secure_gain.h"

namespace pivot {

namespace {

class SpdzTrainer {
 public:
  explicit SpdzTrainer(PartyContext& ctx)
      : ctx_(ctx),
        m_(ctx.num_parties()),
        me_(ctx.id()) {
    n_ = static_cast<int>(ctx.view().features.size());
    regression_ = ctx.params().tree.task == TreeTask::kRegression;
    c_ = ctx.params().tree.num_classes;
  }

  Result<PivotTree> Train() {
    PIVOT_RETURN_IF_ERROR(ExchangeMetadata());
    PIVOT_RETURN_IF_ERROR(ShareInputs());

    tree_.protocol = Protocol::kBasic;
    tree_.task = regression_ ? TreeTask::kRegression : TreeTask::kClassification;
    tree_.num_classes = c_;

    std::vector<u128> alpha(n_, eng().ConstantField(1));
    std::vector<std::vector<bool>> available(m_);
    for (int i = 0; i < m_; ++i) {
      available[i].assign(split_counts_[i].size(), true);
    }
    PIVOT_RETURN_IF_ERROR(BuildNode(alpha, available, 0).status());
    return std::move(tree_);
  }

 private:
  MpcEngine& eng() { return ctx_.engine(); }
  const TreeParams& tree_params() const { return ctx_.params().tree; }

  Status ExchangeMetadata() {
    ByteWriter w;
    const auto& cands = ctx_.split_candidates();
    w.WriteU64(cands.size());
    for (const auto& cand : cands) w.WriteU64(cand.size());
    PIVOT_RETURN_IF_ERROR(ctx_.endpoint().Broadcast(w.Take()));
    split_counts_.assign(m_, {});
    for (int p = 0; p < m_; ++p) {
      if (p == me_) {
        for (const auto& cand : cands) {
          split_counts_[p].push_back(static_cast<int>(cand.size()));
        }
        continue;
      }
      PIVOT_ASSIGN_OR_RETURN(Bytes msg, ctx_.endpoint().Recv(p));
      ByteReader r(msg);
      PIVOT_ASSIGN_OR_RETURN(uint64_t d, r.ReadU64());
      for (uint64_t j = 0; j < d; ++j) {
        PIVOT_ASSIGN_OR_RETURN(uint64_t s, r.ReadU64());
        split_counts_[p].push_back(static_cast<int>(s));
      }
    }
    return Status::Ok();
  }

  // Secret-shares the entire computation's inputs up front: every
  // client's per-split indicator vectors (O(n·d·b) shared values — the
  // baseline's defining cost) and the super client's label indicators.
  Status ShareInputs() {
    for (int i = 0; i < m_; ++i) {
      for (size_t j = 0; j < split_counts_[i].size(); ++j) {
        for (int s = 0; s < split_counts_[i][j]; ++s) {
          std::vector<i128> bits(n_, 0);
          if (me_ == i) {
            const auto& ind = ctx_.LeftIndicator(static_cast<int>(j), s);
            for (int t = 0; t < n_; ++t) bits[t] = ind[t];
          }
          PIVOT_ASSIGN_OR_RETURN(std::vector<u128> shares,
                                 eng().InputVector(i, bits, n_));
          indicators_.push_back(std::move(shares));
        }
      }
    }
    // One-hot class indicators, or the one regression label vector.
    beta_.resize(regression_ ? 1 : c_);
    for (int k = 0; k < static_cast<int>(beta_.size()); ++k) {
      std::vector<i128> vals(n_, 0);
      if (ctx_.is_super()) {
        for (int t = 0; t < n_; ++t) {
          const double y = ctx_.labels()[t];
          if (regression_) {
            vals[t] = FixedFromDouble(y);
          } else {
            vals[t] = (static_cast<int>(y) == k) ? 1 : 0;
          }
        }
      }
      PIVOT_ASSIGN_OR_RETURN(beta_[k],
                             eng().InputVector(ctx_.super_client(), vals, n_));
    }
    return Status::Ok();
  }

  struct Block {
    int client, feature, start, count;
  };

  void EnumerateSplits(const std::vector<std::vector<bool>>& available,
                       std::vector<Block>* blocks, int* total) {
    int flat = 0;
    int global = 0;
    for (int i = 0; i < m_; ++i) {
      for (size_t j = 0; j < split_counts_[i].size(); ++j) {
        const int count = split_counts_[i][j];
        if (available[i][j] && count > 0) {
          blocks->push_back({i, static_cast<int>(j), flat, count});
          flat += count;
        }
        global += count;
      }
    }
    *total = flat;
  }

  // Maps a block-relative candidate to the global indicator index.
  int GlobalIndicatorIndex(int client, int feature, int split) const {
    int idx = 0;
    for (int i = 0; i < client; ++i) {
      for (int cnt : split_counts_[i]) idx += cnt;
    }
    for (int j = 0; j < feature; ++j) idx += split_counts_[client][j];
    return idx + split;
  }

  Result<int> MakeLeaf(const std::vector<u128>& agg) {
    PivotNode leaf;
    leaf.is_leaf = true;
    if (regression_) {
      u128 denom = MpcEngine::MulPub(agg[0], static_cast<u128>(1) << kFracBits);
      denom = eng().AddConstField(denom, 1);
      PIVOT_ASSIGN_OR_RETURN(u128 mean, eng().DivFixed(agg[1], denom));
      PIVOT_ASSIGN_OR_RETURN(u128 opened, eng().Open(mean));
      leaf.leaf_value = FixedToDouble(static_cast<int64_t>(FpToSigned(opened)));
    } else {
      std::vector<u128> counts(agg.begin() + 1, agg.end());
      for (u128& g : counts) {
        g = MpcEngine::MulPub(g, static_cast<u128>(1) << kFracBits);
      }
      PIVOT_ASSIGN_OR_RETURN(MpcEngine::ArgmaxShares best,
                             eng().Argmax(counts, 48));
      PIVOT_ASSIGN_OR_RETURN(u128 opened, eng().Open(best.index));
      leaf.leaf_value = static_cast<double>(FpToSigned(opened));
    }
    return tree_.AddNode(leaf);
  }

  Result<int> BuildNode(const std::vector<u128>& alpha,
                        std::vector<std::vector<bool>> available, int depth) {
    // gamma_k = alpha * beta_k element-wise (n·c secure multiplications —
    // what Pivot's TPHE local computation avoids).
    const int label_vectors = static_cast<int>(beta_.size());
    std::vector<std::vector<u128>> gamma(label_vectors);
    for (int k = 0; k < label_vectors; ++k) {
      PIVOT_ASSIGN_OR_RETURN(gamma[k], eng().MulVec(alpha, beta_[k]));
    }
    std::vector<u128> agg(1 + label_vectors, 0);
    for (int t = 0; t < n_; ++t) agg[0] = FpAdd(agg[0], alpha[t]);
    for (int k = 0; k < label_vectors; ++k) {
      for (int t = 0; t < n_; ++t) {
        agg[1 + k] = FpAdd(agg[1 + k], gamma[k][t]);
      }
    }

    std::vector<Block> blocks;
    int total_splits = 0;
    EnumerateSplits(available, &blocks, &total_splits);
    bool prune = depth >= tree_params().max_depth || total_splits == 0;
    if (!prune) {
      u128 cnt = MpcEngine::MulPub(agg[0], static_cast<u128>(1) << kFracBits);
      const i128 threshold =
          static_cast<i128>(tree_params().min_samples_split) << kFracBits;
      PIVOT_ASSIGN_OR_RETURN(
          u128 below, eng().LessThanZero(eng().AddConst(cnt, -threshold), 48));
      PIVOT_ASSIGN_OR_RETURN(u128 opened, eng().Open(below));
      prune = FpToSigned(opened) == 1;
    }
    if (prune) return MakeLeaf(agg);

    // Split statistics: left side via secure inner products with the
    // shared indicators, right side as node aggregate minus left.
    const int per_split = 2 + 2 * label_vectors;
    std::vector<std::vector<u128>> stats(per_split,
                                         std::vector<u128>(total_splits, 0));
    // One big multiplication batch: for each split, alpha·v and gamma_k·v.
    std::vector<u128> lhs, rhs;
    lhs.reserve(static_cast<size_t>(total_splits) * n_ * (1 + label_vectors));
    rhs.reserve(lhs.capacity());
    for (const Block& b : blocks) {
      for (int s = 0; s < b.count; ++s) {
        const std::vector<u128>& v =
            indicators_[GlobalIndicatorIndex(b.client, b.feature, s)];
        for (int t = 0; t < n_; ++t) {
          lhs.push_back(alpha[t]);
          rhs.push_back(v[t]);
        }
        for (int k = 0; k < label_vectors; ++k) {
          for (int t = 0; t < n_; ++t) {
            lhs.push_back(gamma[k][t]);
            rhs.push_back(v[t]);
          }
        }
      }
    }
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> products, eng().MulVec(lhs, rhs));
    size_t cursor = 0;
    for (int s = 0; s < total_splits; ++s) {
      u128 n_l = 0;
      for (int t = 0; t < n_; ++t) n_l = FpAdd(n_l, products[cursor++]);
      stats[0][s] = n_l;
      stats[1][s] = FpSub(agg[0], n_l);
      for (int k = 0; k < label_vectors; ++k) {
        u128 g_l = 0;
        for (int t = 0; t < n_; ++t) g_l = FpAdd(g_l, products[cursor++]);
        stats[2 + 2 * k][s] = g_l;
        stats[3 + 2 * k][s] = FpSub(agg[1 + k], g_l);
      }
    }

    PIVOT_ASSIGN_OR_RETURN(SecureGainResult gains,
                           ComputeSecureGains(eng(), stats, agg, regression_));
    PIVOT_ASSIGN_OR_RETURN(MpcEngine::ArgmaxShares best,
                           eng().Argmax(gains.scores, 48));
    {
      const i128 min_gain = FixedFromDouble(tree_params().min_gain);
      u128 full = FpSub(best.max, gains.node_term);
      PIVOT_ASSIGN_OR_RETURN(
          u128 below, eng().LessThanZero(eng().AddConst(full, -min_gain), 48));
      PIVOT_ASSIGN_OR_RETURN(u128 opened, eng().Open(below));
      if (FpToSigned(opened) == 1) return MakeLeaf(agg);
    }

    PIVOT_ASSIGN_OR_RETURN(u128 sigma_opened, eng().Open(best.index));
    const int sigma = static_cast<int>(FpToSigned(sigma_opened));
    const Block* win = nullptr;
    int split_local = -1;
    for (const Block& b : blocks) {
      if (sigma >= b.start && sigma < b.start + b.count) {
        win = &b;
        split_local = sigma - b.start;
        break;
      }
    }
    if (win == nullptr) return Status::ProtocolError("no winning block");

    PivotNode node;
    node.owner = win->client;
    node.feature_local = win->feature;
    // The owner reveals the threshold (the model is public).
    if (me_ == win->client) {
      node.threshold = ctx_.split_candidates()[win->feature][split_local];
      ByteWriter w;
      w.WriteDouble(node.threshold);
      PIVOT_RETURN_IF_ERROR(ctx_.endpoint().Broadcast(w.Take()));
    } else {
      PIVOT_ASSIGN_OR_RETURN(Bytes msg, ctx_.endpoint().Recv(win->client));
      ByteReader r(msg);
      PIVOT_ASSIGN_OR_RETURN(node.threshold, r.ReadDouble());
    }
    const int id = tree_.AddNode(node);

    // Child masks: alpha_l = alpha·v (n secure mults), alpha_r = alpha - l.
    const std::vector<u128>& v =
        indicators_[GlobalIndicatorIndex(win->client, win->feature,
                                         split_local)];
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> alpha_l, eng().MulVec(alpha, v));
    std::vector<u128> alpha_r(n_);
    for (int t = 0; t < n_; ++t) alpha_r[t] = FpSub(alpha[t], alpha_l[t]);

    available[win->client][win->feature] = false;
    PIVOT_ASSIGN_OR_RETURN(int left_id,
                           BuildNode(alpha_l, available, depth + 1));
    PIVOT_ASSIGN_OR_RETURN(int right_id,
                           BuildNode(alpha_r, available, depth + 1));
    tree_.nodes[id].left = left_id;
    tree_.nodes[id].right = right_id;
    return id;
  }

  PartyContext& ctx_;
  int m_;
  int me_;
  int n_;
  bool regression_;
  int c_;
  std::vector<std::vector<int>> split_counts_;
  std::vector<std::vector<u128>> indicators_;  // [global split][sample]
  std::vector<std::vector<u128>> beta_;        // label indicator shares
  PivotTree tree_;
};

}  // namespace

Result<PivotTree> TrainSpdzDt(PartyContext& ctx) {
  SpdzTrainer trainer(ctx);
  return trainer.Train();
}

}  // namespace pivot
