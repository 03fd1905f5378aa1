// The node's spare cores: one process-wide pool that every parallel step
// shares.
//
// The paper dedicates the cores the application does not use to
// checkpointing work (Section II.C's idle-core study). Here that work runs
// on one pool through one call, parallel_for: the delta compressor's chunk
// claimers (ParallelPageCompressor), the fleet's shard passes
// (FleetScheduler::run) and a restart's steps (MultiLevelStore's recovery,
// RestartEngine's replay by page range, Snapshot::materialize's frame copy).
//
// The pool starts a thread only when a call asks for more participants than
// it has threads, up to the most participants - 1 any call has asked for,
// and never because its threads are busy. Threads live until the process
// exits, so a process that never asks for a second participant starts none.
//
// parallel_for hands items out from one counter: the caller and its pool
// tasks each take the next unclaimed item until none is left, so a thread
// that starts late just takes fewer. A call returns once every item is
// done. It does not wait for a task that has not claimed one: when its
// tasks queue behind another call's, the caller does every item itself and
// returns, and those tasks run later, find no item left and end. So two
// calls at once never wait on each other's work, and an item may itself
// call parallel_for. The call's shared state lives on the heap and is freed
// by whichever of the caller and its tasks lets go of it last; its tasks
// carry one pointer to it, which std::function stores in place, so a call
// allocates that state and nothing else once the queue has grown.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/thread_annotations.h"

namespace aic::common {

/// A FIFO of tasks run by the threads it has started. Tasks must not throw:
/// wrap fallible work and carry errors out via captured state.
class ThreadPool {
 public:
  /// Starts `threads` threads (0 starts none until grow()).
  explicit ThreadPool(unsigned threads);
  /// Runs every task still queued, then joins the threads.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some pool thread.
  void run(std::function<void()> task);

  /// Starts threads until the pool has at least `threads`; returns how
  /// many it has.
  std::size_t grow(std::size_t threads);

  /// Worker count modeling "all cores but the application's":
  /// hardware_concurrency() - 1, clamped to at least 1.
  static unsigned default_workers();

 private:
  void worker_loop();

  std::mutex mutex_;
  std::condition_variable work_cv_;  // signals workers: task ready / stop
  // The tasks from head_ on are queued. A vector keeps its capacity, so
  // once it has grown a task costs no allocation.
  std::vector<std::function<void()>> queue_ AIC_GUARDED_BY(mutex_);
  std::size_t head_ AIC_GUARDED_BY(mutex_) = 0;
  bool stop_ AIC_GUARDED_BY(mutex_) = false;
  std::vector<std::thread> threads_ AIC_GUARDED_BY(mutex_);
};

/// Threads the shared pool has started: 0 until a parallel_for asks for a
/// second participant. A step that must not start the pool
/// (Snapshot::materialize outside a restart) checks this.
std::size_t pool_threads();

namespace detail {
void parallel_dispatch(std::size_t items, std::size_t participants,
                       void (*call)(void*, std::size_t), void* fn);
}  // namespace detail

/// Calls fn(i) once for every i in [0, items): on the calling thread and
/// on up to participants - 1 tasks of the shared pool, which claim items
/// from one counter. Returns once every call has returned. fn must not
/// throw; a caller carries errors out in its own per-item state. With one
/// participant (or one item) every call runs on the calling thread, in
/// order, and the pool is not started.
template <class Fn>
void parallel_for(std::size_t items, std::size_t participants, Fn&& fn) {
  if (participants <= 1 || items <= 1) {
    for (std::size_t i = 0; i < items; ++i) fn(i);
    return;
  }
  using F = std::remove_reference_t<Fn>;
  detail::parallel_dispatch(
      items, participants,
      [](void* f, std::size_t i) { (*static_cast<F*>(f))(i); },
      const_cast<void*>(static_cast<const void*>(&fn)));
}

// ---- a restart's sizing ----

/// Participants for `units` of work when each should get at least
/// `min_units`: min(default_workers(), units / min_units), and at least 1.
std::size_t restore_participants(std::size_t units, std::size_t min_units);

/// How a restart step over an image of `pages` pages (replay by range,
/// materialize) shares its work: the participants and the page ranges they
/// claim.
struct PageSplit {
  std::size_t participants = 1;
  std::size_t ranges = 1;
};

/// One participant per 512 pages, at most default_workers(), and four
/// ranges per participant; one participant is one range, on the calling
/// thread. The floor is set by the tests, not by a workload: once the pool
/// runs, a split pays from about 128 pages (154 -> 109 us on three
/// participants, 4-vCPU host), and 512 keeps every test chain and the
/// simulators' small images on the calling thread, where the allocation
/// and peak-heap tests measure them.
PageSplit restore_page_split(std::size_t pages);

}  // namespace aic::common
