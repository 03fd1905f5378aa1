#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <iterator>
#include <latch>
#include <utility>

namespace aic::common {

ThreadPool::ThreadPool(unsigned threads) { grow(threads); }

ThreadPool::~ThreadPool() {
  std::vector<std::thread> threads;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    threads.swap(threads_);
  }
  work_cv_.notify_all();
  for (std::thread& t : threads) t.join();
}

void ThreadPool::run(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.size() == queue_.capacity()) {  // drop the taken tasks first
      queue_.erase(queue_.begin(), std::next(queue_.begin(), head_));
      head_ = 0;
    }
    queue_.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

std::size_t ThreadPool::grow(std::size_t threads) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (threads_.size() < threads)
    threads_.emplace_back([this] { worker_loop(); });
  return threads_.size();
}

unsigned ThreadPool::default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 1 ? hw - 1 : 1;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [this] { return stop_ || head_ < queue_.size(); });
      if (head_ == queue_.size()) return;  // stop_ set and nothing left to run
      task = std::move(queue_[head_]);
      if (++head_ == queue_.size()) {
        queue_.clear();
        head_ = 0;
      }
    }
    task();
  }
}

namespace {

/// Pages per participant and ranges per participant of restore_page_split.
constexpr std::size_t kMinRangePages = 512;
constexpr std::size_t kRangesPerParticipant = 4;

std::atomic<std::size_t> g_threads{0};

ThreadPool& shared_pool() {
  static ThreadPool instance(0);
  return instance;
}

/// One parallel_for call's shared state: the item counter, a latch counted
/// down once per item done, and the holders (the caller and its tasks)
/// that have yet to let go of it. The last holder frees it.
struct Job {
  void (*call)(void*, std::size_t);
  void* fn;  // on the caller's stack: called only for an item claimed
             // before the caller's wait returns
  std::size_t items;
  std::atomic<std::size_t> next{0};
  std::latch done;
  std::atomic<std::size_t> holders;

  void work() {
    for (std::size_t i = next++; i < items; i = next++) {
      call(fn, i);
      done.count_down();
    }
  }
  void release() {
    if (holders.fetch_sub(1) == 1) delete this;
  }
};

}  // namespace

std::size_t pool_threads() { return g_threads.load(std::memory_order_acquire); }

std::size_t restore_participants(std::size_t units, std::size_t min_units) {
  return std::clamp<std::size_t>(units / std::max<std::size_t>(min_units, 1),
                                 1, ThreadPool::default_workers());
}

PageSplit restore_page_split(std::size_t pages) {
  const std::size_t participants = restore_participants(pages, kMinRangePages);
  if (participants <= 1) return {};
  return {participants, participants * kRangesPerParticipant};
}

namespace detail {

void parallel_dispatch(std::size_t items, std::size_t participants,
                       void (*call)(void*, std::size_t), void* fn) {
  participants = std::min(participants, items);
  ThreadPool& pool = shared_pool();
  if (pool_threads() < participants - 1) {
    static std::mutex grow_mutex;  // keeps g_threads in step with grow()
    std::lock_guard<std::mutex> lock(grow_mutex);
    g_threads.store(pool.grow(participants - 1), std::memory_order_release);
  }
  Job* job = new Job{call, fn, items, {}, std::latch(std::ptrdiff_t(items)),
                     participants};
  for (std::size_t t = 1; t < participants; ++t) {
    pool.run([job] {
      job->work();
      job->release();
    });
  }
  job->work();
  job->done.wait();
  job->release();
}

}  // namespace detail
}  // namespace aic::common
