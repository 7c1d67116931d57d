#include "common/thread_pool.h"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <exception>
#include <string>

#include "common/check.h"
#include "common/op_counters.h"

namespace pivot {

namespace {

constexpr auto kIdlePoll = std::chrono::milliseconds(100);
// Below this batch size the fan-out overhead dominates; run inline.
constexpr size_t kMinParallelItems = 8;

Status RunTask(const std::function<Status()>& fn) {
  try {
    return fn();
  } catch (const std::exception& e) {
    return Status::Internal(std::string("pool task threw: ") + e.what());
  } catch (...) {
    return Status::Internal("pool task threw a non-std exception");
  }
}

}  // namespace

int AvailableCpus() {
  cpu_set_t mask;
  CPU_ZERO(&mask);
  if (sched_getaffinity(0, sizeof(mask), &mask) == 0) {
    const int cpus = CPU_COUNT(&mask);
    if (cpus > 0) return cpus;
  }
  return std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
}

Status ValidateCryptoThreads(int threads) {
  if (threads < 0 || threads > kMaxCryptoThreads) {
    return Status::InvalidArgument(
        "crypto_threads must be in [0, " + std::to_string(kMaxCryptoThreads) +
        "] (0 = one per available CPU), got " + std::to_string(threads));
  }
  return Status::Ok();
}

ThreadPool& ThreadPool::Global() {
  // Joined by the static destructor at process exit; every protocol run
  // drains its own tasks via WaitGroup before returning.
  static ThreadPool pool;
  return pool;
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Resize(int threads) {
  std::lock_guard<std::mutex> lock(mu_);
  PIVOT_CHECK(!stop_);
  while (static_cast<int>(workers_.size()) < threads) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

int ThreadPool::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(workers_.size());
}

void ThreadPool::SubmitTask(Task task, bool background) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    PIVOT_CHECK(!stop_);
    // Lazily start a worker on first use so purely sequential runs never
    // spawn threads.
    if (workers_.empty()) workers_.emplace_back([this] { WorkerLoop(); });
    (background ? background_ : queue_).push_back(std::move(task));
  }
  OpCounters::Global().AddPoolTask();
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      while (queue_.empty() && background_.empty() && !stop_) {
        cv_.wait_for(lock, kIdlePoll);
      }
      std::deque<Task>& from = queue_.empty() ? background_ : queue_;
      if (from.empty() && stop_) return;
      if (from.empty()) continue;
      task = std::move(from.front());
      from.pop_front();
    }
    const Status st = RunTask(task.fn);
    if (WaitGroup* g = task.group) {
      // Notify while holding the lock: the moment a waiter can observe
      // pending_ == 0 it may destroy the WaitGroup, so the worker must be
      // completely done with `g` before releasing mu_.
      std::lock_guard<std::mutex> lock(g->mu_);
      if (!st.ok() &&
          (g->first_error_.ok() || task.seq < g->error_seq_)) {
        g->first_error_ = st;
        g->error_seq_ = task.seq;
      }
      --g->pending_;
      g->cv_.notify_all();
    }
  }
}

void ThreadPool::Post(std::function<Status()> task) {
  SubmitTask(Task{std::move(task), nullptr, 0}, /*background=*/true);
}

ThreadPool::WaitGroup::WaitGroup(ThreadPool& pool) : pool_(pool) {}

ThreadPool::WaitGroup::~WaitGroup() {
  // A WaitGroup must not die with tasks in flight (they hold a pointer to
  // it); Wait() before destruction. The check keeps a misuse loud.
  std::unique_lock<std::mutex> lock(mu_);
  while (pending_ > 0) {
    cv_.wait_for(lock, kIdlePoll);
  }
}

void ThreadPool::WaitGroup::Submit(std::function<Status()> task) {
  size_t seq;
  {
    std::lock_guard<std::mutex> lock(mu_);
    seq = next_seq_++;
    ++pending_;
  }
  pool_.SubmitTask(Task{std::move(task), this, seq}, /*background=*/false);
}

Status ThreadPool::WaitGroup::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  while (pending_ > 0) {
    cv_.wait_for(lock, kIdlePoll);
  }
  // Reset the error state so the group can be reused for a new round.
  Status out = std::move(first_error_);
  first_error_ = Status::Ok();
  error_seq_ = 0;
  next_seq_ = 0;
  return out;
}

Status ThreadPool::ParallelFor(size_t count, int threads,
                               const std::function<Status(size_t)>& fn) {
  if (count == 0) return Status::Ok();
  const size_t fan_out =
      std::min<size_t>(std::max(threads, 1), count);
  if (fan_out <= 1 || count < kMinParallelItems) {
    for (size_t i = 0; i < count; ++i) {
      PIVOT_RETURN_IF_ERROR(fn(i));
    }
    return Status::Ok();
  }
  const auto run_chunk = [count, fan_out, &fn](size_t c) -> Status {
    const size_t end = count * (c + 1) / fan_out;
    for (size_t i = count * c / fan_out; i < end; ++i) {
      PIVOT_RETURN_IF_ERROR(fn(i));
    }
    return Status::Ok();
  };
  Resize(static_cast<int>(fan_out) - 1);
  WaitGroup wg(*this);
  for (size_t c = 1; c < fan_out; ++c) {
    wg.Submit([&run_chunk, c] { return run_chunk(c); });
  }
  // Chunk 0 runs here instead of leaving the caller idle in Wait; its
  // error outranks every pool chunk's.
  const Status first = RunTask([&run_chunk] { return run_chunk(0); });
  Status rest = wg.Wait();
  return first.ok() ? rest : first;
}

}  // namespace pivot
