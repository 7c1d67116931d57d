#ifndef PIVOT_PIVOT_CHECKPOINT_H_
#define PIVOT_PIVOT_CHECKPOINT_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/status.h"

namespace pivot {

// Checkpoint/resume support for federated tree training.
//
// The trainer (pivot/trainer.cc) snapshots its full per-party state —
// the tree built so far, the pending-node work stack with its encrypted
// mask vectors, and the exact positions of every randomness stream —
// after each completed node. When a party crashes mid-training, the
// runner (pivot/runner.h, RunnerConfig::max_restarts) restarts the
// federation; on entry each party broadcasts its latest checkpoint
// index, all parties rewind to the *minimum* (parties can be a node or
// two apart at the moment of a crash), restore, and continue from the
// next node boundary. Because the restored randomness streams are
// exact, the resumed run is bit-identical to an uninterrupted one.
//
// Epochs: ensemble training calls Train once per tree on the same
// context. Each Train call opens a new epoch; snapshots belong to the
// epoch that wrote them. After a restart the earlier trees re-run
// deterministically from scratch (their epoch is below the store's, so
// they neither resume from nor overwrite the newest snapshots) until
// the crashed tree's Train call reaches the store's epoch and resumes.
//
// Snapshot wire format (ByteWriter, little-endian), version 4:
//   u32  magic 'PVCK' (0x5056434B)    u32  version
//   u64  epoch    u64  completed-node count (the checkpoint index)
//   tree: the tree so far as a length-prefixed PVT2 blob (the model-file
//     codec of pivot/serialize.h); pending child slots are -1
//   stack (bottom to top): u64 count, then per pending node its
//     NodeState (the alpha ciphertext vector; the gamma vector, GBDT's
//     encrypted residuals [Y ∘ alpha] and empty otherwise; per-client
//     availability bitsets; depth), one per open child slot of the tree
//     in ascending parent id, a right slot below its left one
//   randomness: RngState of the context rng, the MPC engine rng + round
//     counter, the preprocessing rng + triples/masks counters, and the
//     u64 offline encryption-randomness pool cursor (the next (r, r^n)
//     pair index; see crypto/paillier_batch.h)
//
// Snapshots live in a per-party CheckpointStore owned by the runner: the
// in-process runner keeps one per party thread exactly when
// max_restarts > 0, and a party process keeps its own (mirrored to disk
// with a persist path). The store outlives attempts, so a restarted
// party reattaches to its own snapshots.

class CheckpointStore {
 public:
  // LatestIndex value when no usable snapshot exists.
  static constexpr uint64_t kNone = ~uint64_t{0};

  // `history` bounds retained snapshots. It must cover the maximum
  // divergence between parties at crash time plus one; parties move in
  // lockstep at node granularity, so a small window suffices.
  explicit CheckpointStore(int history = 4) : history_(history) {}

  // Opens epoch `epoch` for subsequent saves. Moving the store forward
  // (epoch above the current one) discards older snapshots; re-entering
  // an earlier epoch (a deterministic re-run after a restart) keeps the
  // newest snapshots intact and makes Save/LatestIndex no-ops for the
  // re-run until it catches up.
  void BeginEpoch(uint64_t epoch);

  // Stores the snapshot for `index` within `epoch`, evicting the oldest
  // beyond the history window. Ignored when `epoch` is not the store's
  // current epoch. Overwrites an existing snapshot with the same index
  // (a restarted party re-executes nodes deterministically, so the
  // rewritten snapshot is identical).
  void Save(uint64_t epoch, uint64_t index, Bytes snapshot);

  // Newest retained index of `epoch`, or kNone when the store's current
  // epoch differs or nothing was saved.
  uint64_t LatestIndex(uint64_t epoch) const;
  Result<Bytes> Load(uint64_t index) const;
  void Clear();

  // Mirrors the store to `path` after every mutation, making checkpoints
  // survive a process SIGKILL: a relaunched party process calls
  // LoadFromFile and rejoins the federation at the negotiated min-index.
  // Writes are atomic (temp file + rename), so a crash mid-write leaves
  // the previous file intact. File format 'PVCS': u32 magic, u32 version,
  // u64 epoch, u64 snapshot count, then per snapshot u64 index + length-
  // prefixed bytes.
  void SetPersistPath(std::string path);
  // Restores epoch and snapshots from `path`. A missing file is OK (fresh
  // start, first launch); a malformed one is an error — a truncated or
  // corrupt checkpoint file must not be silently treated as "no
  // progress", because resuming from scratch would desynchronize the
  // party from peers that kept their state.
  [[nodiscard]] Status LoadFromFile(const std::string& path);

 private:
  void PersistLocked();

  // Guarded: the owning party thread writes, but restarted threads and
  // the harness may read across restart boundaries.
  mutable std::mutex mu_;
  int history_;
  uint64_t epoch_ = 0;
  std::string persist_path_;  // empty = in-memory only
  std::deque<std::pair<uint64_t, Bytes>> snapshots_;  // ascending index
};

// RngState codec shared by the trainer's snapshot writer/reader.
void EncodeRngState(const RngState& state, ByteWriter& w);
Result<RngState> DecodeRngState(ByteReader& r);

}  // namespace pivot

#endif  // PIVOT_PIVOT_CHECKPOINT_H_
