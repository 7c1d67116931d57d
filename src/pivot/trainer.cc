#include "pivot/trainer.h"

#include "pivot/secure_gain.h"

#include <algorithm>
#include <chrono>

#include "common/check.h"
#include "common/ct.h"
#include "common/fixed_point.h"
#include "common/op_counters.h"
#include "common/thread_pool.h"
#include "crypto/paillier_batch.h"
#include "mpc/dp.h"
#include "net/codec.h"
#include "pivot/checkpoint.h"
#include "pivot/serialize.h"

namespace pivot {

namespace {

// Flat identifier of one candidate split in the global (public) ordering.
struct SplitRef {
  int client = -1;
  int feature = -1;  // local feature index at that client
  int split = -1;    // candidate index within the feature
};

// A (client, feature) block inside the flat split list.
struct Block {
  int client = -1;
  int feature = -1;
  int start = 0;  // first flat index
  int count = 0;  // number of candidate splits
};

// Training-checkpoint snapshot framing ('PVCK'); format in checkpoint.h.
// Version 4: each pending NodeState carries one label vector (gamma).
constexpr uint32_t kCheckpointMagic = 0x5056434B;
constexpr uint32_t kCheckpointVersion = 4;

class TreeTrainer {
 public:
  TreeTrainer(PartyContext& ctx, const TrainTreeOptions& opts)
      : ctx_(ctx),
        opts_(opts),
        m_(ctx.num_parties()),
        me_(ctx.id()) {
    regression_ = ctx.params().tree.task == TreeTask::kRegression ||
                  opts.encrypted_labels.has_value();
    c_ = ctx.params().tree.num_classes;
    n_ = static_cast<int>(ctx.view().features.size());
  }

  Result<PivotTree> Train() {
    if (opts_.encrypted_labels.has_value() &&
        opts_.protocol == Protocol::kEnhanced) {
      return Status::Unimplemented(
          "GBDT (encrypted labels) uses the basic protocol (Section 7.2)");
    }
    epoch_ = ctx_.BumpTrainEpoch();
    if (ctx_.checkpoint() != nullptr) ctx_.checkpoint()->BeginEpoch(epoch_);
    PIVOT_RETURN_IF_ERROR(ExchangeMetadata());

    tree_.protocol = opts_.protocol;
    tree_.task = regression_ ? TreeTask::kRegression : TreeTask::kClassification;
    tree_.num_classes = c_;

    // Resume after a restart when every party has a usable snapshot;
    // otherwise build the root fresh.
    std::vector<PendingNode> stack;
    uint64_t completed = 0;
    PIVOT_ASSIGN_OR_RETURN(bool resumed, TryResume(&stack, &completed));
    if (!resumed) {
      // Root: every sample is available ([alpha] = ([1], ..., [1]); with
      // bootstrap weights the entries are the multiplicities).
      NodeState root;
      root.depth = 0;
      std::vector<BigInt> weights;
      weights.reserve(n_);
      for (int t = 0; t < n_; ++t) {
        const int w = opts_.sample_weights.empty() ? 1 : opts_.sample_weights[t];
        weights.push_back(BigInt(w));
      }
      PIVOT_ASSIGN_OR_RETURN(root.alpha, ctx_.EncryptBatch(weights));
      if (opts_.encrypted_labels.has_value()) {
        root.gamma = opts_.encrypted_labels->y;
        if (static_cast<int>(root.gamma.size()) != n_) {
          return Status::InvalidArgument("encrypted label vector size mismatch");
        }
      }
      root.available.assign(m_, {});
      for (int i = 0; i < m_; ++i) {
        root.available[i].assign(split_counts_[i].size(), true);
      }
      stack.push_back(PendingNode{std::move(root), -1, false});
    }

    // Depth-first construction with an explicit work stack (right child
    // pushed first so the left subtree completes first, matching the
    // recursive order and its node ids exactly). The explicit stack is
    // what makes the training state checkpointable at node granularity.
    while (!stack.empty()) {
      PendingNode cur = std::move(stack.back());
      stack.pop_back();
      PIVOT_ASSIGN_OR_RETURN(ProcessedNode out,
                             ProcessNode(std::move(cur.state)));
      if (cur.parent >= 0) {
        if (cur.is_left) {
          tree_.nodes[cur.parent].left = out.id;
        } else {
          tree_.nodes[cur.parent].right = out.id;
        }
      }
      if (out.internal) {
        stack.push_back(PendingNode{std::move(out.right), out.id, false});
        stack.push_back(PendingNode{std::move(out.left), out.id, true});
      }
      ++completed;
      MaybeCheckpoint(completed, stack);
    }
    return std::move(tree_);
  }

 private:
  struct NodeState {
    std::vector<Ciphertext> alpha;
    // GBDT encrypted-label mode only: [Y ∘ alpha].
    std::vector<Ciphertext> gamma;
    std::vector<std::vector<bool>> available;  // [client][local feature]
    int depth = 0;
  };

  // One not-yet-processed node on the explicit DFS stack: its training
  // state plus where to hang its id once known.
  struct PendingNode {
    NodeState state;
    int parent = -1;     // tree_ node id, -1 for the root
    bool is_left = false;
  };

  // Outcome of processing one node: the tree_ id it received and, for an
  // internal node, the two child states to enqueue.
  struct ProcessedNode {
    int id = -1;
    bool internal = false;
    NodeState left, right;
  };

  MpcEngine& eng() { return ctx_.engine(); }
  const TreeParams& tree_params() const { return ctx_.params().tree; }
  bool enc_label_mode() const { return opts_.encrypted_labels.has_value(); }
  bool dp() const { return ctx_.params().dp.enabled; }
  double dp_eps() const { return ctx_.params().dp.epsilon_per_query; }

  // Publishes each party's per-feature split counts so that all parties
  // agree on the flat split ordering (public metadata of the
  // initialization stage).
  Status ExchangeMetadata() {
    ByteWriter w;
    const auto& cands = ctx_.split_candidates();
    w.WriteU64(cands.size());
    for (const auto& c : cands) w.WriteU64(c.size());
    PIVOT_RETURN_IF_ERROR(ctx_.endpoint().Broadcast(w.Take()));

    split_counts_.assign(m_, {});
    for (int p = 0; p < m_; ++p) {
      if (p == me_) {
        for (const auto& c : cands) {
          split_counts_[p].push_back(static_cast<int>(c.size()));
        }
        continue;
      }
      PIVOT_ASSIGN_OR_RETURN(Bytes msg, ctx_.endpoint().Recv(p));
      ByteReader r(msg);
      PIVOT_ASSIGN_OR_RETURN(uint64_t d, r.ReadU64());
      // Split counts are public metadata, but they size per-split work
      // downstream — bound them by the agreed max_splits and require the
      // header to match the payload exactly so a corrupted or shifted
      // message is rejected here rather than trusted as a work factor.
      if (d != msg.size() / 8 - 1) {
        return Status::ProtocolError(
            "split metadata header/payload size mismatch");
      }
      const uint64_t max_splits =
          static_cast<uint64_t>(ctx_.params().tree.max_splits);
      for (uint64_t j = 0; j < d; ++j) {
        PIVOT_ASSIGN_OR_RETURN(uint64_t s, r.ReadU64());
        if (s > max_splits) {
          return Status::ProtocolError(
              "split count exceeds agreed max_splits");
        }
        split_counts_[p].push_back(static_cast<int>(s));
      }
      if (!r.AtEnd()) {
        return Status::ProtocolError("trailing bytes in split metadata");
      }
    }
    return Status::Ok();
  }

  // Broadcast helper: `owner` sends `own`, everyone returns the vector.
  Result<std::vector<Ciphertext>> BroadcastFrom(
      int owner, const std::vector<Ciphertext>& own) {
    if (m_ == 1) return own;
    if (me_ == owner) {
      PIVOT_RETURN_IF_ERROR(ctx_.BroadcastCiphertexts(own));
      return own;
    }
    return ctx_.RecvCiphertexts(owner);
  }

  // ----- Per-node steps ---------------------------------------------------

  // The super client's local computation (Section 4.1 / 4.2): encrypted
  // per-class indicator vectors [gamma_k] (classification) or the
  // encrypted label vector (regression), broadcast to all.
  Result<std::vector<std::vector<Ciphertext>>> ComputeGammas(
      const NodeState& node) {
    if (enc_label_mode()) {
      return std::vector<std::vector<Ciphertext>>{node.gamma};
    }
    // The task only picks the label encoding: one-hot class indicators,
    // or one vector of shifted label values.
    const int vectors = regression_ ? 1 : c_;
    std::vector<std::vector<Ciphertext>> gammas(vectors);
    if (ctx_.is_super()) {
      const std::vector<double>& y = ctx_.labels();
      for (int k = 0; k < vectors; ++k) {
        std::vector<BigInt> betas(n_);
        for (int t = 0; t < n_; ++t) {
          if (regression_) {
            // Shifted labels keep the homomorphic carrier small and
            // non-negative; UnshiftRegressionStats removes the shift from
            // the converted shares.
            const double shifted =
                y[t] + static_cast<double>(kRegressionLabelOffset);
            betas[t] = FpToBigInt(FpFromSigned(FixedFromDouble(shifted)));
          } else {
            // Constant-time one-hot: no label-steered branch, the match
            // bit comes from a CT compare (see common/ct.h).
            const auto label = static_cast<uint64_t>(
                static_cast<int64_t>(static_cast<int>(y[t])));
            betas[t] = BigInt(static_cast<uint64_t>(
                ct::EqualU64(label, static_cast<uint64_t>(k))));
          }
        }
        PIVOT_ASSIGN_OR_RETURN(
            std::vector<Ciphertext> scaled,
            ScalarMulBatch(ctx_.pk(), betas, node.alpha,
                           ctx_.crypto_threads()));
        // Rerandomize so [0]/copy entries are indistinguishable.
        PIVOT_ASSIGN_OR_RETURN(gammas[k], ctx_.RerandomizeBatch(scaled));
      }
    }
    for (int k = 0; k < vectors; ++k) {
      PIVOT_ASSIGN_OR_RETURN(gammas[k],
                             BroadcastFrom(ctx_.super_client(), gammas[k]));
    }
    return gammas;
  }

  // Removes ComputeGammas' label shift o from a converted regression
  // label sum, exactly and with local share arithmetic only: over n rows
  // the carrier holds S' = S + o·n (S fixed point, n an integer count).
  // Left in place, the shift would scale the f-bit reciprocal error of the
  // gain terms by about o². GBDT's encrypted residuals carry no shift.
  void UnshiftRegressionStats(u128 n, u128& s) const {
    if (enc_label_mode()) return;
    s = FpSub(s, MpcEngine::MulPub(n, static_cast<u128>(kRegressionLabelOffset)
                                          << kFracBits));
  }

  // Homomorphic sum of a broadcast ciphertext vector (local, identical on
  // every party), folded in the Montgomery domain by the batch kernel.
  Ciphertext SumCiphertexts(const std::vector<Ciphertext>& cts) {
    return pivot::SumCiphertexts(ctx_.pk(), cts);
  }

  // Builds the flat list of available splits and their blocks (public).
  void EnumerateSplits(const NodeState& node, std::vector<SplitRef>* refs,
                       std::vector<Block>* blocks) {
    for (int i = 0; i < m_; ++i) {
      for (size_t j = 0; j < split_counts_[i].size(); ++j) {
        if (!node.available[i][j] || split_counts_[i][j] == 0) continue;
        Block b;
        b.client = i;
        b.feature = static_cast<int>(j);
        b.start = static_cast<int>(refs->size());
        b.count = split_counts_[i][j];
        blocks->push_back(b);
        for (int s = 0; s < b.count; ++s) {
          refs->push_back({i, static_cast<int>(j), s});
        }
      }
    }
  }

  // Leaf construction (lines 1-3 of Algorithm 3). `agg` holds the node
  // aggregate shares: classification {count, g_0..g_{c-1}},
  // regression {count, S}.
  Result<int> MakeLeaf(const std::vector<u128>& agg, NodeState& node) {
    PivotNode leaf;
    leaf.is_leaf = true;
    if (opts_.keep_leaf_masks) leaf.leaf_mask = node.alpha;
    const u128 count = agg[0];

    if (regression_) {
      // mean = S / count (S is fixed-point, count an integer; epsilon
      // avoids 0/0 on empty nodes).
      u128 denom = MpcEngine::MulPub(count, static_cast<u128>(1) << kFracBits);
      denom = eng().AddConstField(denom, 1);
      u128 numer = agg[1];
      if (dp()) {
        PIVOT_ASSIGN_OR_RETURN(
            u128 noise, SampleLaplaceShared(eng(), ctx_.prep(), 0.0,
                                            1.0 / dp_eps()));
        numer = FpAdd(numer, noise);
      }
      PIVOT_ASSIGN_OR_RETURN(u128 mean, eng().DivFixed(numer, denom));
      if (opts_.protocol == Protocol::kBasic) {
        PIVOT_ASSIGN_OR_RETURN(u128 opened, eng().Open(mean));
        leaf.leaf_value = FixedToDouble(static_cast<int64_t>(FpToSigned(opened)));
      } else {
        leaf.leaf_share = mean;
      }
      return tree_.AddNode(leaf);
    }

    // Classification: majority class = argmax over per-class counts.
    std::vector<u128> counts(agg.begin() + 1, agg.end());
    for (u128& g : counts) {
      g = MpcEngine::MulPub(g, static_cast<u128>(1) << kFracBits);
      if (dp()) {
        PIVOT_ASSIGN_OR_RETURN(
            u128 noise, SampleLaplaceShared(eng(), ctx_.prep(), 0.0,
                                            1.0 / dp_eps()));
        g = FpAdd(g, noise);
      }
    }
    PIVOT_ASSIGN_OR_RETURN(MpcEngine::ArgmaxShares best,
                           eng().Argmax(counts, 48));
    if (opts_.protocol == Protocol::kBasic) {
      PIVOT_ASSIGN_OR_RETURN(u128 opened, eng().Open(best.index));
      leaf.leaf_value = static_cast<double>(FpToSigned(opened));
    } else {
      leaf.leaf_share = best.index;  // integer-scaled class id share
    }
    return tree_.AddNode(leaf);
  }

  // Local computation + conversion: encrypted split statistics for all
  // available splits, converted to shares in the global flat order.
  // Layout per split (pivot/secure_gain.h): n_l, n_r, then a left/right
  // pair per label vector: g_l0, g_r0, g_l1, ... or S_l, S_r.
  Result<std::vector<std::vector<u128>>> ComputeSplitStatShares(
      const NodeState& node, const std::vector<Block>& blocks,
      const std::vector<std::vector<Ciphertext>>& gammas) {
    const int per_split = 2 + 2 * static_cast<int>(gammas.size());
    // This party's stat ciphertexts for its own blocks, flattened
    // split-major: [split][slot]. They are computed once, before the
    // conversion loop, so no party's local work waits on the conversions
    // of the clients before it.
    std::vector<std::pair<int, int>> tasks;  // (feature, candidate)
    for (const Block& b : blocks) {
      if (b.client != me_) continue;
      for (int s = 0; s < b.count; ++s) tasks.emplace_back(b.feature, s);
    }
    std::vector<Ciphertext> mine(tasks.size() * per_split);
    if (!tasks.empty()) {
      // [alpha] and every [gamma_k] are dot-multiplied once per candidate
      // split: converting them into the Montgomery domain once amortizes
      // the dominant per-term conversion across all splits. Each
      // (split, vector, side) triple writes its own output slot, so the
      // triples fan out across crypto_threads without affecting the
      // result (DotIndicator draws no randomness).
      std::vector<PreparedCiphertexts> prep;
      prep.reserve(1 + gammas.size());
      prep.emplace_back(ctx_.pk(), node.alpha);
      for (const auto& gamma : gammas) prep.emplace_back(ctx_.pk(), gamma);
      PIVOT_RETURN_IF_ERROR(ThreadPool::Global().ParallelFor(
          mine.size(), ctx_.crypto_threads(), [&](size_t idx) -> Status {
            const auto& [feature, split] = tasks[idx / per_split];
            const size_t slot = idx % per_split;
            mine[idx] = prep[slot / 2].DotIndicator(
                ctx_.LeftIndicator(feature, split), slot % 2 == 1);
            return Status::Ok();
          }));
    }

    const std::vector<Ciphertext> none;  // what a non-holder converts
    std::vector<std::vector<u128>> stats;  // [stat slot][flat split]
    stats.assign(per_split, {});
    for (int i = 0; i < m_; ++i) {
      int split_count = 0;
      for (const Block& b : blocks) {
        if (b.client == i) split_count += b.count;
      }
      if (split_count == 0) continue;
      PIVOT_ASSIGN_OR_RETURN(
          std::vector<u128> shares,
          ctx_.CiphertextsToShares(me_ == i ? mine : none, i));
      if (shares.size() != static_cast<size_t>(split_count * per_split)) {
        return Status::ProtocolError("split statistic count mismatch");
      }
      for (int s = 0; s < split_count; ++s) {
        for (int slot = 0; slot < per_split; ++slot) {
          stats[slot].push_back(shares[s * per_split + slot]);
        }
      }
    }
    if (regression_) {  // slots n_l, n_r, S_l, S_r
      for (size_t s = 0; s < stats[0].size(); ++s) {
        UnshiftRegressionStats(stats[0][s], stats[2][s]);
        UnshiftRegressionStats(stats[1][s], stats[3][s]);
      }
    }
    return stats;
  }

  // ----- Model update -------------------------------------------------------

  // Basic protocol: the winning client reveals the threshold and computes
  // the child masks with its plaintext indicator vector.
  Status BasicModelUpdate(NodeState& node, const Block& block,
                                  int split_local, PivotNode* internal,
                                  std::vector<Ciphertext>* alpha_l,
                                  std::vector<Ciphertext>* alpha_r,
                                  NodeState* left, NodeState* right) {
    const int owner = block.client;
    if (me_ == owner) {
      internal->threshold = ctx_.split_candidates()[block.feature][split_local];
      const std::vector<uint8_t>& ind =
          ctx_.LeftIndicator(block.feature, split_local);
      std::vector<BigInt> bl(n_), br(n_);
      for (int t = 0; t < n_; ++t) {
        bl[t] = BigInt(ind[t] ? 1 : 0);
        br[t] = BigInt(ind[t] ? 0 : 1);
      }
      // Masked child vectors: select + rerandomize, batched (the
      // rerandomization hides which entries are [0]s / copies).
      auto masked = [&](const std::vector<BigInt>& sel,
                        const std::vector<Ciphertext>& cts)
          -> Result<std::vector<Ciphertext>> {
        PIVOT_ASSIGN_OR_RETURN(
            std::vector<Ciphertext> scaled,
            ScalarMulBatch(ctx_.pk(), sel, cts, ctx_.crypto_threads()));
        return ctx_.RerandomizeBatch(scaled);
      };
      PIVOT_ASSIGN_OR_RETURN(*alpha_l, masked(bl, node.alpha));
      PIVOT_ASSIGN_OR_RETURN(*alpha_r, masked(br, node.alpha));
      if (enc_label_mode()) {
        PIVOT_ASSIGN_OR_RETURN(left->gamma, masked(bl, node.gamma));
        PIVOT_ASSIGN_OR_RETURN(right->gamma, masked(br, node.gamma));
      }
      // Broadcast threshold + masks.
      ByteWriter w;
      w.WriteDouble(internal->threshold);
      PIVOT_RETURN_IF_ERROR(ctx_.endpoint().Broadcast(w.Take()));
    } else {
      PIVOT_ASSIGN_OR_RETURN(Bytes msg, ctx_.endpoint().Recv(owner));
      ByteReader r(msg);
      PIVOT_ASSIGN_OR_RETURN(internal->threshold, r.ReadDouble());
    }
    PIVOT_ASSIGN_OR_RETURN(*alpha_l, BroadcastFrom(owner, *alpha_l));
    PIVOT_ASSIGN_OR_RETURN(*alpha_r, BroadcastFrom(owner, *alpha_r));
    if (enc_label_mode()) {  // the residual-label vector follows the masks
      PIVOT_ASSIGN_OR_RETURN(left->gamma, BroadcastFrom(owner, left->gamma));
      PIVOT_ASSIGN_OR_RETURN(right->gamma, BroadcastFrom(owner, right->gamma));
    }
    return Status::Ok();
  }

  // Enhanced protocol (Section 5.2): private split selection + encrypted
  // mask updating. Generalized over the hiding level: `span` lists the
  // candidate blocks the one-hot selector ranges over — a single block
  // (threshold hiding), all blocks of one client (feature hiding), or
  // every block (client hiding). s* stays secret in all cases.
  Status EnhancedModelUpdate(NodeState& node, const std::vector<Block>& span,
                             u128 split_share, PivotNode* internal,
                             std::vector<Ciphertext>* alpha_l,
                             std::vector<Ciphertext>* alpha_r) {
    int span_size = 0;
    for (const Block& b : span) span_size += b.count;

    // 1. lambda: one-hot of s* over the span, as shares, then converted
    // into ciphertexts for the PIR-style selection (known to all).
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> lambda_shares,
                           eng().OneHot(split_share, span_size));
    PIVOT_ASSIGN_OR_RETURN(std::vector<Ciphertext> lambda,
                           ctx_.SharesToCiphertexts(lambda_shares));

    // Slice the span per client (flat order inside the span is public).
    std::vector<std::vector<Ciphertext>> slices(m_);
    std::vector<std::vector<int>> slice_features(m_);
    std::vector<std::vector<int>> slice_splits(m_);  // candidate index
    {
      int off = 0;
      for (const Block& b : span) {
        for (int s = 0; s < b.count; ++s) {
          slices[b.client].push_back(lambda[off + s]);
          slice_features[b.client].push_back(b.feature);
          slice_splits[b.client].push_back(s);
        }
        off += b.count;
      }
    }

    // 2. Private split selection (Theorem 2), distributed: every client
    // with candidates in the span selects its partial threshold and
    // left/right indicator columns against its own lambda slice; the
    // partials sum homomorphically to the winner's values because every
    // non-winning slice entry encrypts 0 (mod p).
    std::vector<Ciphertext> tau_sum;    // 1 entry
    std::vector<Ciphertext> vl_sum, vr_sum;
    bool initialized = false;
    for (int i = 0; i < m_; ++i) {
      if (slices[i].empty()) continue;
      std::vector<Ciphertext> payload;  // [tau, v_l(0..n), v_r(0..n)]
      if (me_ == i) {
        const size_t k = slices[i].size();
        std::vector<BigInt> cand_fix(k);
        for (size_t e = 0; e < k; ++e) {
          cand_fix[e] = FpToBigInt(FpFromSigned(FixedFromDouble(
              ctx_.split_candidates()[slice_features[i][e]]
                                     [slice_splits[i][e]])));
        }
        // The lambda slice is dot-multiplied 2n+1 times; prepare its
        // Montgomery forms once and fan the per-sample rows out across
        // crypto_threads (each row writes its own payload slots).
        PreparedCiphertexts slice_prep(ctx_.pk(), slices[i]);
        payload.resize(1 + 2 * n_);
        payload[0] = slice_prep.DotProduct(cand_fix);
        PIVOT_RETURN_IF_ERROR(ThreadPool::Global().ParallelFor(
            static_cast<size_t>(n_), ctx_.crypto_threads(),
            [&](size_t t) -> Status {
              std::vector<uint8_t> row(k);
              for (size_t e = 0; e < k; ++e) {
                row[e] = ctx_.LeftIndicator(slice_features[i][e],
                                            slice_splits[i][e])[t]
                             ? 1
                             : 0;
              }
              payload[1 + t] = slice_prep.DotIndicator(row, false);
              payload[1 + n_ + t] = slice_prep.DotIndicator(row, true);
              return Status::Ok();
            }));
      }
      PIVOT_ASSIGN_OR_RETURN(payload, BroadcastFrom(i, payload));
      if (payload.size() != static_cast<size_t>(1 + 2 * n_)) {
        return Status::ProtocolError("selection payload size mismatch");
      }
      if (!initialized) {
        tau_sum.assign(payload.begin(), payload.begin() + 1);
        vl_sum.assign(payload.begin() + 1, payload.begin() + 1 + n_);
        vr_sum.assign(payload.begin() + 1 + n_, payload.end());
        initialized = true;
      } else {
        tau_sum[0] = ctx_.pk().Add(tau_sum[0], payload[0]);
        for (int t = 0; t < n_; ++t) {
          vl_sum[t] = ctx_.pk().Add(vl_sum[t], payload[1 + t]);
          vr_sum[t] = ctx_.pk().Add(vr_sum[t], payload[1 + n_ + t]);
        }
      }
    }
    if (!initialized) return Status::ProtocolError("empty selection span");

    // Threshold share for the hidden model.
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> thr,
                           ctx_.CiphertextsToShares(tau_sum, 0));
    internal->threshold_share = thr[0];

    // Retain the selector for oblivious prediction when the feature
    // itself is hidden.
    if (opts_.hiding != HidingLevel::kThreshold) {
      internal->lambda_slices = slices;
      internal->lambda_features = slice_features;
    }

    // 3. Encrypted mask updating (Eqn. 10): convert [alpha] to shares,
    // multiply each share into [v] homomorphically, sum at an aggregator
    // (party 0 — [v] is public ciphertext, so any party can aggregate).
    const int aggregator = 0;
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> alpha_shares,
                           ctx_.CiphertextsToShares(node.alpha, 0));
    std::vector<BigInt> share_scalars(n_);
    for (int t = 0; t < n_; ++t) {
      share_scalars[t] = FpToBigInt(alpha_shares[t]);
    }
    PIVOT_ASSIGN_OR_RETURN(
        std::vector<Ciphertext> partial,
        ScalarMulBatch(ctx_.pk(), share_scalars, vl_sum,
                       ctx_.crypto_threads()));
    PIVOT_ASSIGN_OR_RETURN(
        std::vector<Ciphertext> part_r,
        ScalarMulBatch(ctx_.pk(), share_scalars, vr_sum,
                       ctx_.crypto_threads()));
    partial.insert(partial.end(), part_r.begin(), part_r.end());
    if (me_ != aggregator) {
      PIVOT_RETURN_IF_ERROR(
          ctx_.endpoint().Send(aggregator, EncodeCiphertextVector(partial)));
    } else {
      std::vector<std::vector<Ciphertext>> all(m_);
      all[aggregator] = std::move(partial);
      for (int p = 0; p < m_; ++p) {
        if (p == aggregator) continue;
        PIVOT_ASSIGN_OR_RETURN(all[p], ctx_.RecvCiphertexts(p));
        if (all[p].size() != static_cast<size_t>(2 * n_)) {
          return Status::ProtocolError("mask update payload size mismatch");
        }
      }
      alpha_l->reserve(n_);
      alpha_r->reserve(n_);
      for (int t = 0; t < n_; ++t) {
        Ciphertext suml = ctx_.pk().One();
        Ciphertext sumr = ctx_.pk().One();
        for (int p = 0; p < m_; ++p) {
          suml = ctx_.pk().Add(suml, all[p][t]);
          sumr = ctx_.pk().Add(sumr, all[p][n_ + t]);
        }
        alpha_l->push_back(suml);
        alpha_r->push_back(sumr);
      }
    }
    PIVOT_ASSIGN_OR_RETURN(*alpha_l, BroadcastFrom(aggregator, *alpha_l));
    PIVOT_ASSIGN_OR_RETURN(*alpha_r, BroadcastFrom(aggregator, *alpha_r));
    return Status::Ok();
  }

  // ----- Node processing ----------------------------------------------------

  // One step of the DFS construction: decides leaf vs. split for `node`,
  // appends the resulting tree node, and (for a split) returns the child
  // states for the work stack in Train().
  Result<ProcessedNode> ProcessNode(NodeState node) {
    // Gammas + node aggregates.
    PIVOT_ASSIGN_OR_RETURN(std::vector<std::vector<Ciphertext>> gammas,
                           ComputeGammas(node));
    std::vector<Ciphertext> agg_cts;
    agg_cts.push_back(SumCiphertexts(node.alpha));
    for (const auto& gamma : gammas) agg_cts.push_back(SumCiphertexts(gamma));
    PIVOT_ASSIGN_OR_RETURN(std::vector<u128> agg,
                           ctx_.CiphertextsToShares(agg_cts, 0));
    if (regression_) UnshiftRegressionStats(agg[0], agg[1]);

    // Public prune conditions.
    std::vector<SplitRef> refs;
    std::vector<Block> blocks;
    EnumerateSplits(node, &refs, &blocks);
    bool prune = node.depth >= tree_params().max_depth || refs.empty();

    // Secure prune condition: |D| < min_samples_split (with DP noise when
    // enabled).
    if (!prune) {
      u128 cnt = MpcEngine::MulPub(agg[0], static_cast<u128>(1) << kFracBits);
      if (dp()) {
        PIVOT_ASSIGN_OR_RETURN(
            u128 noise, SampleLaplaceShared(eng(), ctx_.prep(), 0.0,
                                            1.0 / dp_eps()));
        cnt = FpAdd(cnt, noise);
      }
      const i128 threshold =
          static_cast<i128>(tree_params().min_samples_split) << kFracBits;
      PIVOT_ASSIGN_OR_RETURN(
          u128 below, eng().LessThanZero(eng().AddConst(cnt, -threshold), 48));
      PIVOT_ASSIGN_OR_RETURN(u128 opened, eng().Open(below));
      prune = FpToSigned(opened) == 1;
    }
    if (prune) {
      ProcessedNode out;
      PIVOT_ASSIGN_OR_RETURN(out.id, MakeLeaf(agg, node));
      return out;
    }

    // Local computation + conversion of all split statistics.
    PIVOT_ASSIGN_OR_RETURN(std::vector<std::vector<u128>> stats,
                           ComputeSplitStatShares(node, blocks, gammas));

    // Secure gain computation.
    PIVOT_ASSIGN_OR_RETURN(SecureGainResult gains,
                           ComputeSecureGains(eng(), stats, agg, regression_));

    // Best split: secure argmax (or the exponential mechanism under DP).
    u128 best_index;
    bool no_improvement = false;
    if (dp()) {
      PIVOT_ASSIGN_OR_RETURN(
          best_index,
          ExponentialMechanismIndex(eng(), ctx_.prep(), gains.scores,
                                    dp_eps(), /*sensitivity=*/2.0));
    } else {
      PIVOT_ASSIGN_OR_RETURN(MpcEngine::ArgmaxShares best,
                             eng().Argmax(gains.scores, 48));
      best_index = best.index;
      // full gain = score - node_term must exceed min_gain.
      const i128 min_gain = FixedFromDouble(tree_params().min_gain);
      u128 full = FpSub(best.max, gains.node_term);
      PIVOT_ASSIGN_OR_RETURN(
          u128 below,
          eng().LessThanZero(eng().AddConst(full, -min_gain), 48));
      PIVOT_ASSIGN_OR_RETURN(u128 opened, eng().Open(below));
      no_improvement = FpToSigned(opened) == 1;
    }
    if (no_improvement) {
      ProcessedNode out;
      PIVOT_ASSIGN_OR_RETURN(out.id, MakeLeaf(agg, node));
      return out;
    }

    // Identify the winner. Basic opens sigma* outright; enhanced reveals
    // only as much as the hiding level allows (block, client, or nothing)
    // and keeps s* shared within the revealed span.
    int block_id = -1;
    int split_local = -1;          // basic only
    std::vector<Block> span;       // enhanced: the lambda selection span
    u128 span_split_share = 0;     // enhanced: sigma* - span start
    PivotNode internal;
    if (opts_.protocol == Protocol::kBasic) {
      PIVOT_ASSIGN_OR_RETURN(u128 opened, eng().Open(best_index));
      const int sigma = static_cast<int>(FpToSigned(opened));
      if (sigma < 0 || sigma >= static_cast<int>(refs.size())) {
        return Status::ProtocolError("best split index out of range");
      }
      for (size_t b = 0; b < blocks.size(); ++b) {
        if (sigma >= blocks[b].start &&
            sigma < blocks[b].start + blocks[b].count) {
          block_id = static_cast<int>(b);
          split_local = sigma - blocks[b].start;
          break;
        }
      }
      if (block_id < 0) return Status::ProtocolError("no winning block");
      internal.owner = blocks[block_id].client;
      internal.feature_local = blocks[block_id].feature;
    } else if (opts_.hiding == HidingLevel::kClientAndFeature) {
      // Nothing revealed: the selector spans every available block.
      span = blocks;
      span_split_share = best_index;
    } else {
      // Reveal a prefix structure: membership bits over per-block or
      // per-client boundaries in the flat order.
      struct Boundary {
        int first_block, last_block, end;  // end = flat end index
      };
      std::vector<Boundary> bounds;
      if (opts_.hiding == HidingLevel::kThreshold) {
        for (size_t b = 0; b < blocks.size(); ++b) {
          bounds.push_back({static_cast<int>(b), static_cast<int>(b),
                            blocks[b].start + blocks[b].count});
        }
      } else {  // kFeature: blocks are contiguous per client
        for (size_t b = 0; b < blocks.size(); ++b) {
          if (!bounds.empty() &&
              blocks[bounds.back().first_block].client == blocks[b].client) {
            bounds.back().last_block = static_cast<int>(b);
            bounds.back().end = blocks[b].start + blocks[b].count;
          } else {
            bounds.push_back({static_cast<int>(b), static_cast<int>(b),
                              blocks[b].start + blocks[b].count});
          }
        }
      }
      std::vector<u128> diffs;
      diffs.reserve(bounds.size());
      for (const Boundary& b : bounds) {
        diffs.push_back(eng().AddConst(best_index, -static_cast<i128>(b.end)));
      }
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> bits,
                             eng().LessThanZeroVec(diffs, 40));
      PIVOT_ASSIGN_OR_RETURN(std::vector<u128> opened, eng().OpenVec(bits));
      int win = -1;
      for (size_t b = 0; b < bounds.size(); ++b) {
        if (FpToSigned(opened[b]) == 1) {
          win = static_cast<int>(b);
          break;
        }
      }
      if (win < 0) return Status::ProtocolError("no winning span");
      for (int b = bounds[win].first_block; b <= bounds[win].last_block; ++b) {
        span.push_back(blocks[b]);
      }
      span_split_share =
          eng().AddConst(best_index, -static_cast<i128>(span.front().start));
      internal.owner = span.front().client;
      if (opts_.hiding == HidingLevel::kThreshold) {
        internal.feature_local = span.front().feature;
      }
    }

    std::vector<Ciphertext> alpha_l, alpha_r;
    NodeState left, right;
    if (opts_.protocol == Protocol::kBasic) {
      PIVOT_RETURN_IF_ERROR(BasicModelUpdate(node, blocks[block_id],
                                             split_local, &internal, &alpha_l,
                                             &alpha_r, &left, &right));
    } else {
      PIVOT_RETURN_IF_ERROR(EnhancedModelUpdate(node, span, span_split_share,
                                                &internal, &alpha_l,
                                                &alpha_r));
    }

    const int id = tree_.AddNode(internal);
    left.alpha = std::move(alpha_l);
    right.alpha = std::move(alpha_r);
    left.available = node.available;
    if (opts_.protocol == Protocol::kBasic ||
        opts_.hiding == HidingLevel::kThreshold) {
      // Algorithm 1 removes the used feature; with stronger hiding the
      // winning feature is secret, so the feature set cannot shrink
      // (part of the efficiency/interpretability cost of Section 5.2).
      left.available[internal.owner][internal.feature_local] = false;
    }
    right.available = left.available;
    left.depth = right.depth = node.depth + 1;
    // Free the parent's mask before the children are enqueued.
    node.alpha.clear();
    node.gamma.clear();

    ProcessedNode out;
    out.id = id;
    out.internal = true;
    out.left = std::move(left);
    out.right = std::move(right);
    return out;
  }

  // ----- Checkpoint / resume ------------------------------------------------
  // Format documented in pivot/checkpoint.h. The snapshot captures the
  // party-local training state exactly at a node boundary; restoring it
  // (on all parties, at the same index) makes the continued run
  // bit-identical to an uninterrupted one.

  static void WriteNodeState(const NodeState& st, ByteWriter& w) {
    w.WriteBytes(EncodeCiphertextVector(st.alpha));
    w.WriteBytes(EncodeCiphertextVector(st.gamma));
    w.WriteU64(st.available.size());
    for (const auto& bits : st.available) {
      w.WriteU64(bits.size());
      for (bool b : bits) w.WriteU8(b ? 1 : 0);
    }
    w.WriteI64(st.depth);
  }

  static Result<NodeState> ReadNodeState(ByteReader& r) {
    NodeState st;
    PIVOT_ASSIGN_OR_RETURN(Bytes alpha, r.ReadBytes());
    PIVOT_ASSIGN_OR_RETURN(st.alpha, DecodeCiphertextVector(alpha));
    PIVOT_ASSIGN_OR_RETURN(Bytes gamma, r.ReadBytes());
    PIVOT_ASSIGN_OR_RETURN(st.gamma, DecodeCiphertextVector(gamma));
    PIVOT_ASSIGN_OR_RETURN(uint64_t clients, r.ReadU64());
    st.available.resize(clients);
    for (uint64_t i = 0; i < clients; ++i) {
      PIVOT_ASSIGN_OR_RETURN(uint64_t count, r.ReadU64());
      st.available[i].resize(count);
      for (uint64_t j = 0; j < count; ++j) {
        PIVOT_ASSIGN_OR_RETURN(uint8_t b, r.ReadU8());
        st.available[i][j] = b != 0;
      }
    }
    PIVOT_ASSIGN_OR_RETURN(int64_t depth, r.ReadI64());
    st.depth = static_cast<int>(depth);
    return st;
  }

  // Snapshots the full training state after a completed node. Local-only
  // (no communication), so it cannot desynchronize the parties.
  void MaybeCheckpoint(uint64_t completed,
                       const std::vector<PendingNode>& stack) {
    CheckpointStore* store = ctx_.checkpoint();
    if (store == nullptr) return;
    const auto t0 = std::chrono::steady_clock::now();
    ByteWriter w;
    w.WriteU32(kCheckpointMagic);
    w.WriteU32(kCheckpointVersion);
    w.WriteU64(epoch_);
    w.WriteU64(completed);
    w.WriteBytes(SerializePivotTree(tree_));
    w.WriteU64(stack.size());
    for (const PendingNode& p : stack) WriteNodeState(p.state, w);
    const PartyContext::RandomnessState rs = ctx_.SaveRandomnessState();
    EncodeRngState(rs.rng, w);
    EncodeRngState(rs.engine.rng, w);
    w.WriteU64(rs.engine.rounds);
    EncodeRngState(rs.prep.rng, w);
    w.WriteU64(rs.prep.triples_used);
    w.WriteU64(rs.prep.masks_used);
    w.WriteU64(rs.enc_pool_next);
    store->Save(epoch_, completed, w.Take());
    const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    OpCounters::Global().AddCheckpointWrite(static_cast<uint64_t>(micros));
  }

  Status RestoreFromSnapshot(const Bytes& snapshot,
                             std::vector<PendingNode>* stack,
                             uint64_t* completed) {
    ByteReader r(snapshot);
    PIVOT_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
    PIVOT_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
    if (magic != kCheckpointMagic || version != kCheckpointVersion) {
      return Status::ProtocolError("checkpoint magic/version mismatch");
    }
    PIVOT_ASSIGN_OR_RETURN(uint64_t epoch, r.ReadU64());
    if (epoch != epoch_) {
      return Status::ProtocolError("checkpoint epoch mismatch");
    }
    PIVOT_ASSIGN_OR_RETURN(*completed, r.ReadU64());
    PIVOT_ASSIGN_OR_RETURN(Bytes tree_blob, r.ReadBytes());
    PIVOT_ASSIGN_OR_RETURN(tree_, DeserializePivotTreeInProgress(tree_blob));
    // One pending node per open child slot, in the order Train's DFS
    // leaves them: ascending parent id, a right slot below its left one.
    for (int id = 0; id < static_cast<int>(tree_.nodes.size()); ++id) {
      const PivotNode& nd = tree_.nodes[id];
      if (nd.is_leaf) continue;
      if (nd.right < 0) stack->push_back(PendingNode{{}, id, false});
      if (nd.left < 0) stack->push_back(PendingNode{{}, id, true});
    }
    PIVOT_ASSIGN_OR_RETURN(uint64_t pending, r.ReadU64());
    if (pending != stack->size()) {
      return Status::ProtocolError(
          "checkpoint stack does not match the tree's open child slots");
    }
    for (PendingNode& p : *stack) {
      PIVOT_ASSIGN_OR_RETURN(p.state, ReadNodeState(r));
    }
    PartyContext::RandomnessState rs;
    PIVOT_ASSIGN_OR_RETURN(rs.rng, DecodeRngState(r));
    PIVOT_ASSIGN_OR_RETURN(rs.engine.rng, DecodeRngState(r));
    PIVOT_ASSIGN_OR_RETURN(rs.engine.rounds, r.ReadU64());
    PIVOT_ASSIGN_OR_RETURN(rs.prep.rng, DecodeRngState(r));
    PIVOT_ASSIGN_OR_RETURN(rs.prep.triples_used, r.ReadU64());
    PIVOT_ASSIGN_OR_RETURN(rs.prep.masks_used, r.ReadU64());
    PIVOT_ASSIGN_OR_RETURN(rs.enc_pool_next, r.ReadU64());
    if (!r.AtEnd()) {
      return Status::ProtocolError("trailing bytes in checkpoint snapshot");
    }
    ctx_.RestoreRandomnessState(rs);
    return Status::Ok();
  }

  // Resume negotiation: every party announces the newest snapshot index
  // of the current epoch (kNone when it has none); everyone rewinds to
  // the minimum. A single party without a snapshot forces a fresh start
  // — it could not follow the others.
  Result<bool> TryResume(std::vector<PendingNode>* stack,
                         uint64_t* completed) {
    CheckpointStore* store = ctx_.checkpoint();
    if (store == nullptr) return false;
    const uint64_t mine = store->LatestIndex(epoch_);
    ByteWriter w;
    w.WriteU64(mine);
    PIVOT_RETURN_IF_ERROR(ctx_.endpoint().Broadcast(w.data()));
    uint64_t min_index = mine;
    bool any_missing = mine == CheckpointStore::kNone;
    for (int p = 0; p < m_; ++p) {
      if (p == me_) continue;
      PIVOT_ASSIGN_OR_RETURN(Bytes msg, ctx_.endpoint().Recv(p));
      if (msg.size() != 8) {
        return Status::ProtocolError("malformed resume negotiation header");
      }
      ByteReader r(msg);
      PIVOT_ASSIGN_OR_RETURN(uint64_t idx, r.ReadU64());
      any_missing = any_missing || idx == CheckpointStore::kNone;
      min_index = std::min(min_index, idx);
    }
    if (any_missing) return false;
    PIVOT_ASSIGN_OR_RETURN(Bytes snapshot, store->Load(min_index));
    const auto t0 = std::chrono::steady_clock::now();
    PIVOT_RETURN_IF_ERROR(RestoreFromSnapshot(snapshot, stack, completed));
    const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
                            std::chrono::steady_clock::now() - t0)
                            .count();
    OpCounters::Global().AddCheckpointRestore(static_cast<uint64_t>(micros));
    return true;
  }

  PartyContext& ctx_;
  const TrainTreeOptions& opts_;
  int m_;
  int me_;
  int n_ = 0;
  bool regression_ = false;
  int c_ = 2;
  std::vector<std::vector<int>> split_counts_;
  PivotTree tree_;
  uint64_t epoch_ = 0;
};

// Minimum Paillier key size for the given protocol/options. Plaintext
// headroom: carried values stay below m^2·b·p^2 (enhanced) or
// n·(2^f·y_max + m·p) (basic); see DESIGN.md §3.
int MinimumKeyBits(const TrainTreeOptions& options) {
  if (options.protocol == Protocol::kEnhanced) return 384;
  if (options.encrypted_labels.has_value()) return 320;
  return 192;
}

}  // namespace

Result<PivotTree> TrainPivotTree(PartyContext& ctx,
                                 const TrainTreeOptions& options) {
  if (ctx.pk().key_bits() < MinimumKeyBits(options)) {
    return Status::FailedPrecondition(
        "Paillier key too small for this protocol (need >= " +
        std::to_string(MinimumKeyBits(options)) + " bits)");
  }
  TreeTrainer trainer(ctx, options);
  return trainer.Train();
}

}  // namespace pivot
