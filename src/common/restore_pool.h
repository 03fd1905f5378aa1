// The one pool that restart work runs on: MultiLevelStore's recovery
// (fetch and parse), RestartEngine's replay by page range and
// Snapshot::materialize's frame copy.
//
// A restart is the paper's other use of the node's spare cores (Section
// II.C): nothing else runs while the image is rebuilt. The pool follows the
// delta compressor's auto setting, ThreadPool::default_workers()
// participants with the calling thread counted, so it holds
// default_workers() - 1 threads. It starts on the first restore_for_each
// that asks for a second participant, lives until the process exits, and
// the write path never calls it, so a process that never restarts never
// starts it.
//
// restore_for_each hands items out from one counter, the way the
// compressor's chunks are claimed: the caller and its pool tasks each take
// the next unclaimed item until none is left, so a thread that starts late
// just takes fewer. A call returns once every item is done. It does not
// wait for a task that has not claimed one: when its tasks queue behind
// another call's, the caller does every item itself and returns, and those
// tasks run later, find no item left and end. So two restores running at
// once never wait on each other's work. The call's shared state lives on
// the heap and is freed by whichever of the caller and its tasks lets go
// of it last; its tasks carry one pointer to it, which std::function
// stores in place, so a call allocates that state and, when the pool's
// queue takes a new block, that block.
#pragma once

#include <cstddef>
#include <type_traits>

namespace aic::common {

/// Participants (the calling thread included) a restart step may use:
/// ThreadPool::default_workers().
std::size_t restore_workers();

/// Participants for `units` of work when each should get at least
/// `min_units`: min(restore_workers(), units / min_units), and at least 1.
std::size_t restore_participants(std::size_t units, std::size_t min_units);

/// How a step over an image of `pages` pages (replay by range,
/// materialize) shares its work: the participants and the page ranges they
/// claim.
struct PageSplit {
  std::size_t participants = 1;
  std::size_t ranges = 1;
};

/// One participant per 512 pages, at most restore_workers(), and four
/// ranges per participant; one participant is one range, on the calling
/// thread. The floor is set by the tests, not by a workload: once the pool
/// runs, a split pays from about 128 pages (154 -> 109 us on three
/// participants, 4-vCPU host), and 512 keeps every test chain and the
/// simulators' small images on the calling thread, where the allocation
/// and peak-heap tests measure them and the pool is never started.
PageSplit restore_page_split(std::size_t pages);

/// True once a restore_for_each has started the pool. A step that must
/// not start it (Snapshot::materialize outside a restart) checks this.
bool restore_pool_running();

namespace detail {
void restore_dispatch(std::size_t items, std::size_t participants,
                      void (*call)(void*, std::size_t), void* fn);
}  // namespace detail

/// Calls fn(i) once for every i in [0, items): on the calling thread and
/// on up to participants - 1 tasks of the restore pool, which claim items
/// from one counter. Returns once every call has returned. fn must not
/// throw; a caller carries errors out in its own per-item state. With one
/// participant (or one item) every call runs on the calling thread, in
/// order, and the pool is not started.
template <class Fn>
void restore_for_each(std::size_t items, std::size_t participants, Fn&& fn) {
  if (participants <= 1 || items <= 1) {
    for (std::size_t i = 0; i < items; ++i) fn(i);
    return;
  }
  using F = std::remove_reference_t<Fn>;
  detail::restore_dispatch(
      items, participants,
      [](void* f, std::size_t i) { (*static_cast<F*>(f))(i); },
      const_cast<void*>(static_cast<const void*>(&fn)));
}

}  // namespace aic::common
