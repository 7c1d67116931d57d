#include "pivot/checkpoint.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <string>

#include "common/rng.h"

namespace pivot {
namespace {

Bytes Blob(uint8_t tag) { return Bytes(4, tag); }

TEST(CheckpointStoreTest, EmptyStoreReportsNone) {
  CheckpointStore store;
  EXPECT_EQ(store.LatestIndex(/*epoch=*/0), CheckpointStore::kNone);
  EXPECT_FALSE(store.Load(0).ok());
}

TEST(CheckpointStoreTest, SaveAndLoadRoundTrip) {
  CheckpointStore store;
  store.BeginEpoch(1);
  store.Save(1, 3, Blob(3));
  store.Save(1, 4, Blob(4));
  EXPECT_EQ(store.LatestIndex(1), 4u);
  EXPECT_EQ(store.Load(3).value(), Blob(3));
  EXPECT_EQ(store.Load(4).value(), Blob(4));
}

TEST(CheckpointStoreTest, HistoryWindowEvictsOldest) {
  CheckpointStore store(/*history=*/2);
  store.BeginEpoch(1);
  for (uint64_t i = 1; i <= 4; ++i) store.Save(1, i, Blob(i));
  EXPECT_EQ(store.LatestIndex(1), 4u);
  EXPECT_TRUE(store.Load(4).ok());
  EXPECT_TRUE(store.Load(3).ok());
  // Evicted beyond the window; the error names the index and window.
  const Status st = store.Load(1).status();
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("1"), std::string::npos);
}

TEST(CheckpointStoreTest, SaveOverwritesSameIndex) {
  CheckpointStore store;
  store.BeginEpoch(1);
  store.Save(1, 2, Blob(7));
  store.Save(1, 2, Blob(9));
  EXPECT_EQ(store.Load(2).value(), Blob(9));
  EXPECT_EQ(store.LatestIndex(1), 2u);
}

// Epoch gating: a deterministic re-run of an earlier tree (lower epoch)
// must neither read nor clobber the crashed epoch's snapshots, and
// advancing the epoch discards the stale ones.
TEST(CheckpointStoreTest, EpochGatesSavesAndReads) {
  CheckpointStore store;
  store.BeginEpoch(2);
  store.Save(2, 5, Blob(5));

  // Re-entering an older epoch is a no-op.
  store.BeginEpoch(1);
  EXPECT_EQ(store.LatestIndex(1), CheckpointStore::kNone);
  store.Save(1, 9, Blob(9));
  EXPECT_FALSE(store.Load(9).ok());
  EXPECT_EQ(store.LatestIndex(2), 5u);
  EXPECT_EQ(store.Load(5).value(), Blob(5));

  // Moving forward clears the older epoch's snapshots.
  store.BeginEpoch(3);
  EXPECT_EQ(store.LatestIndex(2), CheckpointStore::kNone);
  EXPECT_EQ(store.LatestIndex(3), CheckpointStore::kNone);
  EXPECT_FALSE(store.Load(5).ok());
}

TEST(CheckpointStoreTest, ClearResetsEverything) {
  CheckpointStore store;
  store.BeginEpoch(2);
  store.Save(2, 1, Blob(1));
  store.Clear();
  EXPECT_EQ(store.LatestIndex(2), CheckpointStore::kNone);
  EXPECT_FALSE(store.Load(1).ok());
}

TEST(CheckpointStoreFileTest, PersistAndReloadRoundTrip) {
  const std::string path = "/tmp/pivot_ckpt_file_test_" +
                           std::to_string(::getpid()) + ".ckpt";
  std::remove(path.c_str());
  {
    CheckpointStore store;
    store.SetPersistPath(path);
    store.BeginEpoch(2);
    store.Save(2, 5, Blob(5));
    store.Save(2, 6, Blob(6));
  }  // store gone; only the file survives — like a SIGKILL'd process
  CheckpointStore reloaded;
  ASSERT_TRUE(reloaded.LoadFromFile(path).ok());
  EXPECT_EQ(reloaded.LatestIndex(2), 6u);
  EXPECT_EQ(reloaded.Load(5).value(), Blob(5));
  EXPECT_EQ(reloaded.Load(6).value(), Blob(6));
  // LoadFromFile also adopts the path: further saves keep persisting.
  reloaded.Save(2, 7, Blob(7));
  CheckpointStore again;
  ASSERT_TRUE(again.LoadFromFile(path).ok());
  EXPECT_EQ(again.LatestIndex(2), 7u);
  std::remove(path.c_str());
}

TEST(CheckpointStoreFileTest, MissingFileIsAFreshStart) {
  CheckpointStore store;
  EXPECT_TRUE(
      store.LoadFromFile("/tmp/pivot_ckpt_file_test_never_written").ok());
  EXPECT_EQ(store.LatestIndex(0), CheckpointStore::kNone);
}

TEST(CheckpointStoreFileTest, MalformedFileIsAnError) {
  // A corrupt store must NOT silently become "no progress": resuming
  // from scratch would desynchronize this party from its peers.
  const std::string path = "/tmp/pivot_ckpt_file_test_bad_" +
                           std::to_string(::getpid()) + ".ckpt";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("not a checkpoint store", f);
    std::fclose(f);
  }
  CheckpointStore store;
  const Status st = store.LoadFromFile(path);
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.message().find("magic"), std::string::npos) << st.ToString();
  std::remove(path.c_str());
}

TEST(RngStateCodecTest, RoundTripPreservesStream) {
  Rng rng(0xDEADBEEF);
  (void)rng.NextU64();
  (void)rng.NextGaussian();  // may populate the cached-gaussian slot
  const RngState state = rng.SaveState();

  ByteWriter w;
  EncodeRngState(state, w);
  const Bytes data = w.Take();
  ByteReader r(data);
  const RngState back = DecodeRngState(r).value();
  EXPECT_TRUE(r.AtEnd());

  Rng restored(1);
  restored.RestoreState(back);
  for (int i = 0; i < 16; ++i) {
    EXPECT_EQ(restored.NextU64(), rng.NextU64()) << i;
  }
  EXPECT_EQ(restored.NextGaussian(), rng.NextGaussian());
}

TEST(RngStateCodecTest, TruncatedInputRejected) {
  ByteWriter w;
  EncodeRngState(RngState{}, w);
  Bytes data = w.Take();
  data.resize(data.size() - 1);
  ByteReader r(data);
  EXPECT_FALSE(DecodeRngState(r).ok());
}

}  // namespace
}  // namespace pivot
