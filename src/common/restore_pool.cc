#include "common/restore_pool.h"

#include <algorithm>
#include <atomic>
#include <latch>

#include "common/thread_pool.h"

namespace aic::common {
namespace {

/// Pages per participant and ranges per participant of restore_page_split.
constexpr std::size_t kMinRangePages = 512;
constexpr std::size_t kRangesPerParticipant = 4;

std::atomic<bool> g_running{false};

ThreadPool& pool() {
  static ThreadPool instance(unsigned(restore_workers() - 1));
  g_running.store(true, std::memory_order_release);
  return instance;
}

/// One restore_for_each call's shared state: the item counter, a latch
/// counted down once per item done, and the holders (the caller and its
/// tasks) that have yet to let go of it. The last holder frees it.
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

std::size_t restore_workers() { return ThreadPool::default_workers(); }

std::size_t restore_participants(std::size_t units, std::size_t min_units) {
  return std::clamp<std::size_t>(units / std::max<std::size_t>(min_units, 1),
                                 1, restore_workers());
}

PageSplit restore_page_split(std::size_t pages) {
  const std::size_t participants = restore_participants(pages, kMinRangePages);
  if (participants <= 1) return {};
  return {participants, participants * kRangesPerParticipant};
}

bool restore_pool_running() {
  return g_running.load(std::memory_order_acquire);
}

namespace detail {

void restore_dispatch(std::size_t items, std::size_t participants,
                      void (*call)(void*, std::size_t), void* fn) {
  participants = std::min({participants, items, restore_workers()});
  if (participants <= 1) {
    for (std::size_t i = 0; i < items; ++i) call(fn, i);
    return;
  }
  Job* job = new Job{call, fn, items, {}, std::latch(std::ptrdiff_t(items)),
                     participants};
  ThreadPool& p = pool();
  for (std::size_t t = 1; t < participants; ++t) {
    p.run([job] {
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
