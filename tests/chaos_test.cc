// Chaos harness, two tiers.
//
// Tier 1 (ChaosTest): sweeps seeded *fatal-only* fault schedules
// (net/fault.h, FaultMix::kFatalOnly) across the MPC engine,
// basic/enhanced training, prediction and serving, asserting the
// security-with-abort contract — every schedule terminates within a short
// deadline with a clean error Status naming a party, never a hang or a
// crash. The protocols are semi-honest: a corrupted ciphertext may decrypt
// to garbage without an error, so sweeps over ciphertext traffic assert
// only a loose error fraction.
//
// Tier 2 (ChaosRecoveryTest): sweeps *transient-only* and crash-recovery
// schedules, asserting the stronger survives-and-matches contract — the
// run completes despite the faults AND every party's trained tree
// (including ciphertext vectors and secret shares) bit-matches the
// fault-free run with the same seed.
//
// Seed counts are environment-tunable so CI can shrink the sweep under
// TSan (PIVOT_CHAOS_MPC_SEEDS, PIVOT_CHAOS_PROTO_SEEDS,
// PIVOT_CHAOS_RECOVERY_SEEDS) and relax the per-run deadline for
// sanitizer slowdown (PIVOT_CHAOS_DEADLINE_MS). A failing seed reproduces
// deterministically: re-run the test and look for the seed printed with
// the failure.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <functional>
#include <mutex>

#include "common/op_counters.h"
#include "common/sha256.h"
#include "data/synthetic.h"
#include "mpc/engine.h"
#include "net/fault.h"
#include "net/network.h"
#include "pivot/ensemble.h"
#include "pivot/prediction.h"
#include "pivot/runner.h"
#include "pivot/serialize.h"
#include "pivot/trainer.h"
#include "serve/serving_session.h"

namespace pivot {
namespace {

// Short receive timeout so dropped/delayed messages surface quickly;
// injected delays and stalls sleep kFatalMs > timeout so they reliably
// register as peer timeouts instead of hiding inside the jitter budget.
constexpr int kRecvTimeoutMs = 250;
constexpr int kFatalMs = 2 * kRecvTimeoutMs;
constexpr int kParties = 3;

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return fallback;
  return std::atoi(v);
}

int DeadlineMs() { return EnvInt("PIVOT_CHAOS_DEADLINE_MS", 5'000); }

double ElapsedMs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Every non-OK chaos result must name a party: either the root-cause
// prefix RunParties adds or the abort origin recorded by the network.
void ExpectNamesParty(const Status& st, uint64_t seed) {
  EXPECT_NE(st.message().find("party"), std::string::npos)
      << "seed " << seed << ": " << st.ToString();
}

Dataset TinyClassification() {
  ClassificationSpec spec;
  spec.num_samples = 16;
  spec.num_features = 6;
  spec.num_classes = 2;
  spec.class_separation = 2.5;
  spec.seed = 17;
  return MakeClassification(spec);
}

PivotParams ChaosParams(int key_bits) {
  PivotParams params;
  params.tree.task = TreeTask::kClassification;
  params.tree.num_classes = 2;
  params.tree.max_depth = 2;
  params.tree.max_splits = 4;
  params.tree.min_samples_split = 5;
  params.key_bits = key_bits;
  return params;
}

// Runs `seeds` seeded schedules of `body` through RunFederation on the
// tiny dataset, asserting each terminates within the deadline and names a
// party on error. Returns the number of runs that surfaced an error.
int SweepFederation(int seeds, uint64_t salt, int key_bits, uint64_t max_op,
                    uint64_t max_msg,
                    const std::function<Status(PartyContext&)>& body) {
  const Dataset data = TinyClassification();
  FederationConfig cfg;
  cfg.num_parties = kParties;
  cfg.params = ChaosParams(key_bits);
  cfg.net.recv_timeout_ms = kRecvTimeoutMs;
  int errored = 0;
  for (int s = 0; s < seeds; ++s) {
    const uint64_t seed = salt + static_cast<uint64_t>(s);
    cfg.fault_plan = FaultPlan::FromSeed(seed, kParties, kFatalMs, max_op,
                                         max_msg, FaultMix::kFatalOnly);
    const auto start = std::chrono::steady_clock::now();
    const Status st = RunFederation(data, cfg, body);
    EXPECT_LT(ElapsedMs(start), DeadlineMs())
        << "seed " << seed << " overran the deadline; plan: "
        << cfg.fault_plan.ToString();
    if (!st.ok()) {
      ++errored;
      ExpectNamesParty(st, seed);
    }
  }
  return errored;
}

// ---------------------------------------------------------------------------
// MPC engine sweep: cheap (no Paillier), dense traffic, and self-checking
// — every party opens every value and verifies it, so even a silent bit
// flip in a share surfaces as an error.
// ---------------------------------------------------------------------------

TEST(ChaosTest, MpcEngineSweep) {
  const int seeds = EnvInt("PIVOT_CHAOS_MPC_SEEDS", 120);
  int errored = 0;
  for (int s = 0; s < seeds; ++s) {
    const uint64_t seed = 0xA0000000ULL + static_cast<uint64_t>(s);
    InMemoryNetwork net(kParties, kRecvTimeoutMs);
    net.set_fault_plan(FaultPlan::FromSeed(seed, kParties, kFatalMs,
                                           /*max_op=*/40, /*max_msg=*/12,
                                           FaultMix::kFatalOnly));
    const auto start = std::chrono::steady_clock::now();
    Status st = RunParties(net, [&](int id, Endpoint& ep) -> Status {
      Preprocessing prep(id, kParties, /*seed=*/0xC0FFEE);
      MpcEngine eng(&ep, &prep, /*personal_seed=*/seed ^ id);
      for (int r = 0; r < 32; ++r) {
        PIVOT_ASSIGN_OR_RETURN(u128 share, eng.Input(r % kParties, r));
        PIVOT_ASSIGN_OR_RETURN(u128 opened, eng.Open(share));
        if (opened != FpFromSigned(r)) {
          return Status::ProtocolError(
              "opened value mismatch (corrupted share?)");
        }
      }
      return Status::Ok();
    });
    EXPECT_LT(ElapsedMs(start), DeadlineMs()) << "seed " << seed;
    // This workload performs far more than max_op network operations per
    // party and max_msg messages per channel, so the anchor fault (or an
    // earlier compound fault) always fires.
    EXPECT_NE(net.fired_fault_mask(), 0u) << "seed " << seed;
    if (!st.ok()) {
      ++errored;
      ExpectNamesParty(st, seed);
    }
  }
  // Dense traffic + value self-checks: (nearly) every schedule must
  // surface an error, not silently succeed.
  EXPECT_GE(errored, seeds * 9 / 10);
}

// ---------------------------------------------------------------------------
// Protocol sweeps over the full Pivot stack.
// ---------------------------------------------------------------------------

TEST(ChaosTest, BasicTrainingSweep) {
  const int seeds = EnvInt("PIVOT_CHAOS_PROTO_SEEDS", 25);
  const int errored = SweepFederation(
      seeds, /*salt=*/0xB0000000ULL, /*key_bits=*/256, /*max_op=*/40,
      /*max_msg=*/12, [](PartyContext& ctx) -> Status {
        TrainTreeOptions opts;
        opts.protocol = Protocol::kBasic;
        PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));
        (void)tree;
        return Status::Ok();
      });
  EXPECT_GE(errored, seeds / 2);
}

TEST(ChaosTest, EnhancedTrainingSweep) {
  const int seeds = EnvInt("PIVOT_CHAOS_PROTO_SEEDS", 25);
  const int errored = SweepFederation(
      seeds, /*salt=*/0xC0000000ULL, /*key_bits=*/384, /*max_op=*/40,
      /*max_msg=*/12, [](PartyContext& ctx) -> Status {
        TrainTreeOptions opts;
        opts.protocol = Protocol::kEnhanced;
        PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));
        (void)tree;
        return Status::Ok();
      });
  EXPECT_GE(errored, seeds / 2);
}

// Hand-crafted public basic-protocol tree (party 0 splits on its first
// feature) so prediction/serving sweeps skip training.
PivotTree TinyPublicTree() {
  PivotTree tree;
  tree.protocol = Protocol::kBasic;
  tree.task = TreeTask::kClassification;
  tree.num_classes = 2;
  PivotNode root;
  root.owner = 0;
  root.feature_local = 0;
  root.threshold = 0.0;
  const int root_id = tree.AddNode(root);
  PivotNode leaf;
  leaf.is_leaf = true;
  leaf.leaf_value = 0.0;
  tree.nodes[root_id].left = tree.AddNode(leaf);
  leaf.leaf_value = 1.0;
  tree.nodes[root_id].right = tree.AddNode(leaf);
  return tree;
}

TEST(ChaosTest, BasicPredictionSweep) {
  const int seeds = EnvInt("PIVOT_CHAOS_PROTO_SEEDS", 25);
  const PivotTree tree = TinyPublicTree();
  const Dataset data = TinyClassification();
  std::vector<std::vector<std::vector<double>>> slices;
  for (int p = 0; p < kParties; ++p) {
    slices.push_back(SliceRowsForParty(data, p, kParties));
  }
  // Basic prediction exchanges only a handful of messages per party, so
  // fault indices stay small to keep them reachable.
  const int errored = SweepFederation(
      seeds, /*salt=*/0xD0000000ULL, /*key_bits=*/256, /*max_op=*/6,
      /*max_msg=*/3, [&](PartyContext& ctx) -> Status {
        PIVOT_ASSIGN_OR_RETURN(double pred,
                               PredictPivot(ctx, tree, slices[ctx.id()][0]));
        (void)pred;
        return Status::Ok();
      });
  // Corruption of a ciphertext can legitimately decrypt to garbage
  // without an error in the semi-honest model, so only a loose error
  // fraction is asserted here.
  EXPECT_GE(errored, seeds / 4);
}

// Serving tier: the batched serve loop (header broadcast + ciphertext-
// matrix hops + batched joint decryption) under fatal-only schedules must
// abort with a party-naming error within the deadline — a fault mid-batch
// must not leave the coordinator or a follower blocked on a queue or a
// socket.
TEST(ChaosTest, ServingSweep) {
  const int seeds = EnvInt("PIVOT_CHAOS_PROTO_SEEDS", 25);
  const PivotTree tree = TinyPublicTree();
  const Dataset data = TinyClassification();
  std::vector<std::vector<std::vector<double>>> slices;
  for (int p = 0; p < kParties; ++p) {
    slices.push_back(SliceRowsForParty(data, p, kParties));
  }
  const int errored = SweepFederation(
      seeds, /*salt=*/0x5E000000ULL, /*key_bits=*/256, /*max_op=*/12,
      /*max_msg=*/5, [&](PartyContext& ctx) -> Status {
        serve::ServeOptions opts;
        opts.batch_size = 4;
        opts.max_wait_ms = 0;
        // Keep the follower bound under the sweep deadline: a fault that
        // desyncs the batch announcement must fail fast, not serve out
        // the default two-minute budget.
        opts.follower_timeout_ms = kRecvTimeoutMs;
        serve::ServingSession session(ctx, tree, opts);
        serve::RequestQueue queue;
        for (const auto& row : slices[ctx.id()]) queue.Push(row);
        queue.Close();
        std::vector<double> preds;
        PIVOT_RETURN_IF_ERROR(session.Serve(queue, &preds).status());
        return Status::Ok();
      });
  // As with prediction: corrupted ciphertexts can decrypt to garbage
  // without an error in the semi-honest model, so only a loose error
  // fraction is asserted.
  EXPECT_GE(errored, seeds / 4);
}

// ---------------------------------------------------------------------------
// Tier 2: survives-and-matches. Transient schedules must be masked by the
// reliable channel layer (and, for crashes, by checkpoint/resume), and
// the recovered run must be *bit-identical* to the fault-free run.
// ---------------------------------------------------------------------------

// Trains a model on one party and returns its serialized form.
using TrainModel = std::function<Result<Bytes>(PartyContext&)>;

Result<Bytes> TrainBasicTree(PartyContext& ctx) {
  TrainTreeOptions opts;
  opts.protocol = Protocol::kBasic;
  PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));
  return SerializePivotTree(tree);
}

// Trains one model per party (a basic-protocol tree unless `train` says
// otherwise) and captures each party's model digest into
// `prints[party]`. The model codecs write every field, so runs that agree
// on these digests agree on every bit of trained state.
Status TrainAndFingerprint(const Dataset& data, const FederationConfig& cfg,
                           std::vector<Bytes>* prints,
                           NetworkStats* stats = nullptr,
                           const TrainModel& train = TrainBasicTree) {
  prints->assign(kParties, {});
  std::mutex mu;
  return RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
    PIVOT_ASSIGN_OR_RETURN(Bytes model, train(ctx));
    const auto digest = Sha256::Hash(model);
    std::lock_guard<std::mutex> lock(mu);
    (*prints)[ctx.id()] = Bytes(digest.begin(), digest.end());
    return Status::Ok();
  }, stats);
}

FederationConfig RecoveryConfig() {
  FederationConfig cfg;
  cfg.num_parties = kParties;
  cfg.params = ChaosParams(256);
  cfg.net.recv_timeout_ms = kRecvTimeoutMs;
  // Fast backoff so masked drops recover well inside the recv timeout.
  cfg.net.backoff_base_ms = 2;
  cfg.net.backoff_max_ms = 50;
  return cfg;
}

TEST(ChaosRecoveryTest, TransientSweepCompletesAndBitMatches) {
  const int seeds = EnvInt("PIVOT_CHAOS_RECOVERY_SEEDS", 6);
  const Dataset data = TinyClassification();
  std::vector<Bytes> baseline;
  ASSERT_TRUE(
      TrainAndFingerprint(data, RecoveryConfig(), &baseline).ok());
  for (int s = 0; s < seeds; ++s) {
    const uint64_t seed = 0xF0000000ULL + static_cast<uint64_t>(s);
    FederationConfig cfg = RecoveryConfig();
    cfg.fault_plan =
        FaultPlan::FromSeed(seed, kParties, kFatalMs, /*max_op=*/40,
                            /*max_msg=*/12, FaultMix::kTransientOnly);
    std::vector<Bytes> prints;
    const auto start = std::chrono::steady_clock::now();
    const Status st = TrainAndFingerprint(data, cfg, &prints);
    EXPECT_LT(ElapsedMs(start), DeadlineMs()) << "seed " << seed;
    ASSERT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString()
                         << "\nplan: " << cfg.fault_plan.ToString();
    for (int p = 0; p < kParties; ++p) {
      EXPECT_EQ(prints[p], baseline[p])
          << "party " << p << " diverged under seed " << seed
          << "\nplan: " << cfg.fault_plan.ToString();
    }
  }
}

// Transient drops/corrupts/delays during serving must be masked by the
// reliable channel layer: every serve completes and the predictions
// bit-match the fault-free run.
TEST(ChaosRecoveryTest, ServingTransientSweepCompletesAndMatches) {
  const int seeds = EnvInt("PIVOT_CHAOS_RECOVERY_SEEDS", 6);
  const PivotTree tree = TinyPublicTree();
  const Dataset data = TinyClassification();
  auto serve_all = [&](const FederationConfig& cfg,
                       std::vector<double>* out) -> Status {
    std::mutex mu;
    return RunFederation(data, cfg, [&](PartyContext& ctx) -> Status {
      serve::ServeOptions opts;
      opts.batch_size = 4;
      opts.max_wait_ms = 0;
      serve::ServingSession session(ctx, tree, opts);
      serve::RequestQueue queue;
      for (const auto& row : SliceRowsForParty(data, ctx.id(), kParties)) {
        queue.Push(row);
      }
      queue.Close();
      std::vector<double> preds;
      PIVOT_RETURN_IF_ERROR(session.Serve(queue, &preds).status());
      if (ctx.id() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        *out = std::move(preds);
      }
      return Status::Ok();
    });
  };
  std::vector<double> baseline;
  ASSERT_TRUE(serve_all(RecoveryConfig(), &baseline).ok());
  ASSERT_EQ(baseline.size(), data.num_samples());
  for (int s = 0; s < seeds; ++s) {
    const uint64_t seed = 0x6E000000ULL + static_cast<uint64_t>(s);
    FederationConfig cfg = RecoveryConfig();
    cfg.fault_plan =
        FaultPlan::FromSeed(seed, kParties, kFatalMs, /*max_op=*/12,
                            /*max_msg=*/5, FaultMix::kTransientOnly);
    std::vector<double> preds;
    const auto start = std::chrono::steady_clock::now();
    const Status st = serve_all(cfg, &preds);
    EXPECT_LT(ElapsedMs(start), DeadlineMs()) << "seed " << seed;
    ASSERT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString()
                         << "\nplan: " << cfg.fault_plan.ToString();
    EXPECT_EQ(preds, baseline) << "predictions diverged under seed " << seed
                               << "\nplan: " << cfg.fault_plan.ToString();
  }
}

// A crash-recovery schedule whose crash lands in the second half of a
// party's network ops in the fault-free run, past the root's snapshot, so
// the restarted parties resume from a checkpoint, not from scratch.
FaultPlan CrashAfterRootPlan(uint64_t seed, const NetworkStats& fault_free) {
  const uint64_t half =
      (fault_free.messages_sent + fault_free.messages_received) /
      (2 * kParties);
  const FaultPlan drawn =
      FaultPlan::FromSeed(seed, kParties, kFatalMs, /*max_op=*/half,
                          /*max_msg=*/12, FaultMix::kCrashRecovery);
  FaultPlan plan;
  for (FaultAction a : drawn.actions()) {
    if (a.kind == FaultKind::kCrash) a.nth += half;
    plan.Add(a);
  }
  return plan;
}

TEST(ChaosRecoveryTest, CrashRecoveryResumesAndBitMatches) {
  const int seeds = EnvInt("PIVOT_CHAOS_RECOVERY_SEEDS", 6);
  const Dataset data = TinyClassification();
  std::vector<Bytes> baseline;
  NetworkStats fault_free;
  ASSERT_TRUE(
      TrainAndFingerprint(data, RecoveryConfig(), &baseline, &fault_free).ok());
  const uint64_t restores = OpCounters::Global().checkpoint_restores();
  for (int s = 0; s < seeds; ++s) {
    const uint64_t seed = 0x1F000000ULL + static_cast<uint64_t>(s);
    FederationConfig cfg = RecoveryConfig();
    cfg.fault_plan = CrashAfterRootPlan(seed, fault_free);
    cfg.max_restarts = 2;
    std::vector<Bytes> prints;
    const auto start = std::chrono::steady_clock::now();
    const Status st = TrainAndFingerprint(data, cfg, &prints);
    // Restarts redo work, so allow a couple of deadlines.
    EXPECT_LT(ElapsedMs(start), 3.0 * DeadlineMs()) << "seed " << seed;
    ASSERT_TRUE(st.ok()) << "seed " << seed << ": " << st.ToString()
                         << "\nplan: " << cfg.fault_plan.ToString();
    for (int p = 0; p < kParties; ++p) {
      EXPECT_EQ(prints[p], baseline[p])
          << "party " << p << " diverged under seed " << seed
          << "\nplan: " << cfg.fault_plan.ToString();
    }
  }
  EXPECT_GT(OpCounters::Global().checkpoint_restores(), restores)
      << "no crash in the sweep resumed from a checkpoint";
}

// The parallel crypto kernels promise thread-count invariance (DESIGN.md,
// "Parallelism model"): trained state must be bit-identical whether the
// batched Paillier ops run sequentially or fanned out on the shared pool.
TEST(ChaosRecoveryTest, CryptoThreadCountDoesNotChangeFingerprints) {
  const Dataset data = TinyClassification();
  FederationConfig sequential = RecoveryConfig();
  sequential.params.crypto_threads = 1;
  std::vector<Bytes> baseline;
  ASSERT_TRUE(TrainAndFingerprint(data, sequential, &baseline).ok());
  FederationConfig fanned = RecoveryConfig();
  fanned.params.crypto_threads = 4;
  // Fanning out 4 crypto workers per party oversubscribes small/instrumented
  // hosts (TSan runs this test too); a longer recv timeout only slows
  // failure detection, it cannot change the trained bits.
  fanned.net.recv_timeout_ms = 8 * kRecvTimeoutMs;
  std::vector<Bytes> prints;
  ASSERT_TRUE(TrainAndFingerprint(data, fanned, &prints).ok());
  for (int p = 0; p < kParties; ++p) {
    EXPECT_EQ(prints[p], baseline[p])
        << "party " << p << " diverged between crypto_threads 1 and 4";
  }
}

// Thread-count invariance must also hold across a crash/resume boundary:
// the checkpoint carries the randomness-pool cursor, so a parallel run
// that restarts mid-tree still lands on the sequential fault-free
// fingerprints.
TEST(ChaosRecoveryTest, CrashRecoveryBitMatchesWithParallelCrypto) {
  const Dataset data = TinyClassification();
  std::vector<Bytes> baseline;
  NetworkStats fault_free;
  ASSERT_TRUE(
      TrainAndFingerprint(data, RecoveryConfig(), &baseline, &fault_free).ok());
  FederationConfig cfg = RecoveryConfig();
  cfg.params.crypto_threads = 4;
  // See CryptoThreadCountDoesNotChangeFingerprints: absorb sanitizer
  // slowdown under 4-way fan-out. Transient delays are 1-20 ms, so the
  // longer timeout still masks them and still detects the crash.
  cfg.net.recv_timeout_ms = 8 * kRecvTimeoutMs;
  cfg.fault_plan = CrashAfterRootPlan(0x2F000000ULL, fault_free);
  cfg.max_restarts = 2;
  std::vector<Bytes> prints;
  const uint64_t restores = OpCounters::Global().checkpoint_restores();
  const Status st = TrainAndFingerprint(data, cfg, &prints);
  ASSERT_TRUE(st.ok()) << st.ToString()
                       << "\nplan: " << cfg.fault_plan.ToString();
  EXPECT_GT(OpCounters::Global().checkpoint_restores(), restores)
      << "the crash did not resume from a checkpoint";
  for (int p = 0; p < kParties; ++p) {
    EXPECT_EQ(prints[p], baseline[p])
        << "party " << p << " diverged under parallel crypto + restart";
  }
}

// A GBDT regression tree carries the encrypted residual vector [Y ∘ alpha]
// in every pending node, so its snapshots are the only ones whose gamma
// vector is non-empty. A one-round TrainPivotGbdt crashed past the root's
// snapshot must restore that vector and still bit-match the fault-free
// ensemble.
TEST(ChaosRecoveryTest, GbdtRegressionCrashRecoveryBitMatches) {
  RegressionSpec spec;
  spec.num_samples = 16;
  spec.num_features = 6;
  spec.seed = 17;
  const Dataset data = MakeRegression(spec);
  FederationConfig base = RecoveryConfig();
  base.params.tree.task = TreeTask::kRegression;
  base.params.key_bits = 320;  // GBDT's minimum (trainer.cc)
  const TrainModel gbdt = [](PartyContext& ctx) -> Result<Bytes> {
    EnsembleOptions opts;
    opts.num_trees = 1;
    PIVOT_ASSIGN_OR_RETURN(PivotEnsemble model, TrainPivotGbdt(ctx, opts));
    return SerializePivotEnsemble(model);
  };
  std::vector<Bytes> baseline;
  NetworkStats fault_free;
  ASSERT_TRUE(
      TrainAndFingerprint(data, base, &baseline, &fault_free, gbdt).ok());
  FederationConfig cfg = base;
  cfg.fault_plan = CrashAfterRootPlan(0x3F000000ULL, fault_free);
  cfg.max_restarts = 2;
  std::vector<Bytes> prints;
  const uint64_t restores = OpCounters::Global().checkpoint_restores();
  const Status st = TrainAndFingerprint(data, cfg, &prints, nullptr, gbdt);
  ASSERT_TRUE(st.ok()) << st.ToString()
                       << "\nplan: " << cfg.fault_plan.ToString();
  EXPECT_GT(OpCounters::Global().checkpoint_restores(), restores)
      << "the crash did not resume from a checkpoint";
  for (int p = 0; p < kParties; ++p) {
    EXPECT_EQ(prints[p], baseline[p])
        << "party " << p << " diverged after a GBDT resume";
  }
}

// A fault that survives retransmission (fatal corrupt) must exhaust the
// retry budget and abort within the tier-1 latency bound — recovery
// machinery must not turn a persistent fault into a slow failure.
TEST(ChaosRecoveryTest, BudgetExhaustionAbortsWithinDeadline) {
  const Dataset data = TinyClassification();
  FederationConfig cfg = RecoveryConfig();
  cfg.net.retry_budget = 4;
  FaultAction corrupt;
  corrupt.kind = FaultKind::kCorrupt;
  corrupt.party = 1;
  corrupt.peer = -1;
  corrupt.nth = 2;
  corrupt.bit = 13;
  corrupt.fatal = true;
  cfg.fault_plan.Add(corrupt);
  std::vector<Bytes> prints;
  const auto start = std::chrono::steady_clock::now();
  const Status st = TrainAndFingerprint(data, cfg, &prints);
  EXPECT_LT(ElapsedMs(start), DeadlineMs());
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("retry budget exhausted"), std::string::npos)
      << st.ToString();
  ExpectNamesParty(st, /*seed=*/0);
}

// With the fault layer compiled in but no plan installed, everything
// still works — the hot path is one null check.
TEST(ChaosTest, FaultFreeBaselineSucceeds) {
  const Dataset data = TinyClassification();
  FederationConfig cfg;
  cfg.num_parties = kParties;
  cfg.params = ChaosParams(256);
  NetworkStats stats;
  Status st = RunFederation(
      data, cfg,
      [](PartyContext& ctx) -> Status {
        TrainTreeOptions opts;
        opts.protocol = Protocol::kBasic;
        PIVOT_ASSIGN_OR_RETURN(PivotTree tree, TrainPivotTree(ctx, opts));
        return tree.nodes.empty() ? Status::Internal("empty tree")
                                  : Status::Ok();
      },
      &stats);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_GT(stats.bytes_sent, 0u);
  EXPECT_EQ(stats.bytes_sent, stats.bytes_received);
  EXPECT_GT(stats.rounds, 0u);
}

}  // namespace
}  // namespace pivot
