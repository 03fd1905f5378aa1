// The concurrent checkpointing core, for real: a dedicated worker thread
// that delta-compresses and "ships" checkpoints while the application
// thread keeps computing — the mechanism Section II.C's idle-core study
// motivates and Fig. 9's Delta Compressor / Remote Checkpointer boxes
// describe (realized there with taskset; here with std::thread).
//
// Protocol per checkpoint:
//   1. (application thread, blocking — the c1 halt) submit(): snapshots the
//      dirty pages and CPU state, clears dirty tracking, enqueues the job.
//   2. (checkpointing core) the worker delta-compresses the job against the
//      accumulated previous state, appends the file to the chain, and
//      invokes the completion callback with the capture accounting.
//
// The application thread never touches pages the worker is reading: the
// submit step's Snapshot::capture of the dirty pages is the ONE data copy
// charged as the paper's c1 halt; the snapshot is then moved (not
// re-copied) into the job, so nothing else in submit scales with the dirty
// set. Jobs are processed FIFO; one job in flight at a time mirrors the
// paper's protocol ("no L1 until the last L3 has finished" is the caller's
// policy via busy()), but within a job the chain's compressor shards the
// dirty pages across Config::chain.compress_workers threads — the
// dedicated checkpointing cores of Section II.C.
//
// It composes ckpt::CheckpointChain with a MultiLevelStore, so it lives in
// storage, above both. Thread-safety: submit/busy/drain/restore may be
// called from the application thread; the completion callback runs on the
// worker thread.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "ckpt/checkpointer.h"
#include "mem/address_space.h"
#include "mem/snapshot.h"
#include "storage/multilevel_store.h"

namespace aic::storage {

/// Completion notice for one asynchronous checkpoint. A checkpoint has two
/// observable milestones on the checkpointing core: "compressed" (the delta
/// landed in the chain — on_complete) and, when a store is attached,
/// "landed" (the L2/L3 drains committed — on_landed, with the drain
/// durations in `placement`).
struct AsyncResult {
  std::uint64_t sequence = 0;
  double app_time = 0.0;
  ckpt::CaptureStats stats;
  /// Wall-clock nanoseconds the worker spent compressing (real, host-
  /// dependent; the simulation layer uses deterministic work units).
  std::uint64_t compress_ns = 0;
  /// False in on_complete notifications (compressed only), true in
  /// on_landed notifications (drains committed at L2/L3).
  bool landed = false;
  /// Virtual-time placement durations; meaningful only when landed.
  PlacementTimes placement;
};

class AsyncCheckpointer {
 public:
  using Completion = std::function<void(const AsyncResult&)>;

  struct Config {
    ckpt::CheckpointChain::Config chain;
    /// Invoked on the worker thread after each checkpoint is compressed
    /// into the chain (the paper's "delta compressor done" milestone).
    Completion on_complete;
    /// Optional multi-level store: after compressing, the worker drains
    /// the new checkpoint file to L2/L3 through the store's transfer
    /// engine (virtual time, run to commit). Only the worker thread may
    /// touch the store while the AsyncCheckpointer is alive.
    MultiLevelStore* store = nullptr;
    /// Invoked on the worker thread after the drains commit (landed=true).
    Completion on_landed;
  };

  explicit AsyncCheckpointer(Config config);
  ~AsyncCheckpointer();

  AsyncCheckpointer(const AsyncCheckpointer&) = delete;
  AsyncCheckpointer& operator=(const AsyncCheckpointer&) = delete;

  /// The blocking L1 step: copies the dirty pages (or every live page for
  /// the first/full checkpoints) plus freed-page bookkeeping, re-arms
  /// dirty tracking, and enqueues the compression job. Returns the job's
  /// sequence number.
  std::uint64_t submit(mem::AddressSpace& space, ByteSpan cpu_state,
                       double app_time);

  /// True while any job is queued or compressing (the checkpointing core
  /// is occupied).
  bool busy() const;

  /// Blocks until all submitted jobs have landed in the chain.
  void drain();

  /// Restores the latest landed state (drains first so the result reflects
  /// every submitted checkpoint).
  ckpt::RestartEngine::Restored restore();

  /// Checkpoints landed so far.
  std::uint64_t completed() const;

 private:
  struct Job {
    std::uint64_t sequence;
    double app_time;
    Bytes cpu_state;
    mem::Snapshot pages;              // dirty (or full) page images
    std::vector<mem::PageId> live;    // live set at submit time
    /// Wall seconds the blocking capture took (the c1 halt), measured in
    /// submit(); feeds the checkpoint's causal chain. 0 without a hub.
    double capture_s = 0.0;
  };

  void worker_loop();
  /// Runs one job; on CheckError dumps a flight-recorder postmortem
  /// through the hub (when one is attached) and rethrows.
  void process(Job job);
  void process_job(Job& job, obs::Hub* hub);

  Config config_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  bool in_flight_ = false;
  bool stop_ = false;
  std::uint64_t next_sequence_ = 0;
  std::uint64_t completed_ = 0;

  // Chain state, owned by the worker after construction (the application
  // thread only reaches it via drain()+restore()).
  ckpt::CheckpointChain chain_;

  // Observability handles (config_.chain.obs; null when disabled). The
  // capture histogram is touched from the application thread, the compress
  // one from the worker — both are lock-free atomics.
  obs::Histogram* m_capture_s_ = nullptr;
  obs::Histogram* m_compress_s_ = nullptr;

  std::thread worker_;
};

}  // namespace aic::storage
