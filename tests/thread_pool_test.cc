#include "common/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

namespace pivot {
namespace {

TEST(ThreadPoolTest, StartsLazily) {
  ThreadPool pool;
  EXPECT_EQ(pool.size(), 0);
}

TEST(ThreadPoolTest, ResizeGrowsButNeverShrinks) {
  ThreadPool pool;
  pool.Resize(3);
  EXPECT_EQ(pool.size(), 3);
  pool.Resize(1);
  EXPECT_EQ(pool.size(), 3);
  pool.Resize(5);
  EXPECT_EQ(pool.size(), 5);
  pool.Resize(0);
  pool.Resize(-4);
  EXPECT_EQ(pool.size(), 5);
}

TEST(ThreadPoolTest, WaitGroupRunsEveryTask) {
  ThreadPool pool(4);
  std::atomic<int> sum{0};
  ThreadPool::WaitGroup group(pool);
  for (int i = 1; i <= 100; ++i) {
    group.Submit([&sum, i]() -> Status {
      sum.fetch_add(i, std::memory_order_relaxed);
      return Status::Ok();
    });
  }
  ASSERT_TRUE(group.Wait().ok());
  EXPECT_EQ(sum.load(), 5050);
}

TEST(ThreadPoolTest, WaitGroupReportsLowestSubmissionError) {
  // Two tasks fail; Wait() must report the one submitted first regardless
  // of which worker finishes first, so the surfaced error is deterministic.
  ThreadPool pool(4);
  ThreadPool::WaitGroup group(pool);
  for (int i = 0; i < 20; ++i) {
    group.Submit([i]() -> Status {
      if (i == 17) return Status::InvalidArgument("late failure");
      if (i == 5) {
        // Delay the earlier failure so a naive "first to finish" policy
        // would report task 17 instead.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return Status::Internal("early failure");
      }
      return Status::Ok();
    });
  }
  Status st = group.Wait();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(ThreadPoolTest, WaitGroupIsReusableAfterError) {
  ThreadPool pool(2);
  ThreadPool::WaitGroup group(pool);
  group.Submit([]() -> Status { return Status::Internal("boom"); });
  ASSERT_FALSE(group.Wait().ok());

  std::atomic<int> ran{0};
  for (int i = 0; i < 8; ++i) {
    group.Submit([&ran]() -> Status {
      ran.fetch_add(1, std::memory_order_relaxed);
      return Status::Ok();
    });
  }
  EXPECT_TRUE(group.Wait().ok());
  EXPECT_EQ(ran.load(), 8);
}

TEST(ThreadPoolTest, ExceptionsBecomeInternalStatus) {
  ThreadPool pool(2);
  ThreadPool::WaitGroup group(pool);
  group.Submit([]() -> Status { throw std::runtime_error("kaboom"); });
  Status st = group.Wait();
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(ThreadPoolTest, PostRunsDetachedTasks) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 16; ++i) {
    pool.Post([&ran]() -> Status {
      ran.fetch_add(1, std::memory_order_relaxed);
      return Status::Ok();
    });
  }
  // Post has no join handle by design; poll with a deadline.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (ran.load() < 16 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexOnce) {
  for (int threads : {1, 2, 4, 8}) {
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    Status st = ThreadPool::Global().ParallelFor(
        hits.size(), threads, [&hits](size_t i) -> Status {
          hits[i].fetch_add(1, std::memory_order_relaxed);
          return Status::Ok();
        });
    ASSERT_TRUE(st.ok()) << "threads=" << threads;
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, ParallelForResultIsThreadCountInvariant) {
  // The determinism contract: per-index work depends only on the index, so
  // outputs written into indexed slots are identical for every fan-out.
  auto run = [](int threads) {
    std::vector<uint64_t> out(100, 0);
    Status st = ThreadPool::Global().ParallelFor(
        out.size(), threads, [&out](size_t i) -> Status {
          uint64_t v = 0x9e3779b97f4a7c15ULL * (i + 1);
          v ^= v >> 31;
          out[i] = v;
          return Status::Ok();
        });
    EXPECT_TRUE(st.ok());
    return out;
  };
  const std::vector<uint64_t> base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(3), base);
  EXPECT_EQ(run(8), base);
}

TEST(ThreadPoolTest, ParallelForHandlesEmptyAndSingle) {
  int calls = 0;
  EXPECT_TRUE(ThreadPool::Global()
                  .ParallelFor(0, 4, [&](size_t) -> Status {
                    ++calls;
                    return Status::Ok();
                  })
                  .ok());
  EXPECT_EQ(calls, 0);
  EXPECT_TRUE(ThreadPool::Global()
                  .ParallelFor(1, 4, [&](size_t) -> Status {
                    ++calls;
                    return Status::Ok();
                  })
                  .ok());
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, ParallelForReportsChunkOrderedError) {
  // Large enough to fan out; two chunks fail. The error from the earlier
  // chunk (lower indices) must win independent of scheduling.
  Status st = ThreadPool::Global().ParallelFor(
      64, 8, [](size_t i) -> Status {
        if (i == 60) return Status::InvalidArgument("late chunk");
        if (i == 3) {
          std::this_thread::sleep_for(std::chrono::milliseconds(10));
          return Status::Internal("early chunk");
        }
        return Status::Ok();
      });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
}

TEST(ThreadPoolTest, ParallelForCallerRunsChunkZero) {
  // 4 chunks of 16 over a private pool: the caller runs chunk 0 itself,
  // so the pool grows to 3 workers and runs chunks 1-3; every index runs
  // exactly once.
  ThreadPool pool;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  std::mutex mu;
  std::vector<std::thread::id> runner(hits.size());
  Status st = pool.ParallelFor(hits.size(), 4, [&](size_t i) -> Status {
    hits[i].fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mu);
    runner[i] = std::this_thread::get_id();
    return Status::Ok();
  });
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(pool.size(), 3);
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "i=" << i;
    EXPECT_EQ(runner[i] == caller, i < 16) << "i=" << i;
  }
}

TEST(ThreadPoolTest, ParallelForCallerChunkErrorWins) {
  // Chunk 0 runs on the caller; its error outranks a pool chunk's even
  // when the pool chunk fails first.
  ThreadPool pool;
  Status st = pool.ParallelFor(32, 4, [](size_t i) -> Status {
    if (i == 2) {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      return Status::Internal("caller chunk");
    }
    if (i == 30) return Status::InvalidArgument("pool chunk");
    return Status::Ok();
  });
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInternal);
  EXPECT_EQ(pool.size(), 3);
}

TEST(ThreadPoolTest, WaitGroupTasksRunBeforePostedTasks) {
  // One worker, held busy while a background task and then a WaitGroup
  // task are queued: once released, it takes the WaitGroup task first.
  ThreadPool pool(1);
  ThreadPool::WaitGroup group(pool);
  std::atomic<bool> started{false};
  std::atomic<bool> release{false};
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  group.Submit([&]() -> Status {
    started.store(true);
    while (!release.load() && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return Status::Ok();
  });
  while (!started.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::mutex mu;
  std::vector<char> order;
  std::atomic<bool> posted_ran{false};
  pool.Post([&]() -> Status {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back('b');
    posted_ran.store(true);
    return Status::Ok();
  });
  group.Submit([&]() -> Status {
    std::lock_guard<std::mutex> lock(mu);
    order.push_back('g');
    return Status::Ok();
  });
  release.store(true);
  ASSERT_TRUE(group.Wait().ok());
  while (!posted_ran.load() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::lock_guard<std::mutex> lock(mu);
  EXPECT_EQ(order, (std::vector<char>{'g', 'b'}));
}

TEST(ThreadPoolTest, ValidateCryptoThreadsBounds) {
  // Validation only: no setting here reaches a pool.
  EXPECT_TRUE(ValidateCryptoThreads(0).ok());
  EXPECT_TRUE(ValidateCryptoThreads(1).ok());
  EXPECT_TRUE(ValidateCryptoThreads(kMaxCryptoThreads).ok());
  EXPECT_FALSE(ValidateCryptoThreads(-1).ok());
  EXPECT_FALSE(ValidateCryptoThreads(kMaxCryptoThreads + 1).ok());
  EXPECT_FALSE(ValidateCryptoThreads(1 << 30).ok());
}

}  // namespace
}  // namespace pivot
