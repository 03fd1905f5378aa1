// Sharded multi-threaded page-delta compression pipeline.
//
// The paper's decider can only pick short work spans when the delta latency
// dl is small (Section III: dl enters c2/c3 directly), and on a multicore
// node the serial PageAlignedCompressor leaves every core but one idle in
// that exact hot path. ParallelPageCompressor partitions the dirty-page
// list into contiguous shards, encodes each shard on its own thread into a
// reusable per-shard scratch buffer, merges the per-thread CodecStats, and
// stitches the shard streams back in page-id order.
//
// Determinism invariant: the merged payload is byte-identical to
// PageAlignedCompressor::compress on the same input, for any worker count
// (the shards reuse PageAlignedCompressor::encode_page, and contiguous
// shards concatenated in order reproduce the serial record stream). Stats
// totals are likewise identical — per-page contributions are summed, and
// uint64 addition is associative. Tests assert both.
//
// Buffer reuse: the per-shard scratch buffers and the thread pool live for
// the compressor's lifetime, so steady-state checkpoints allocate only
// codec-internal scratch, not per-page payload buffers. Consequently
// compress() is NOT const and a single instance must not be used from two
// threads at once (the checkpointing core owns its compressor).
#pragma once

#include <memory>
#include <vector>

#include "common/thread_pool.h"
#include "delta/page_delta.h"

namespace aic::obs {
class Counter;
class Histogram;
struct Hub;
}  // namespace aic::obs

namespace aic::delta {

class ParallelPageCompressor {
 public:
  struct Config {
    /// Encode with the one-pass correcting coder (cdelta records +
    /// whole-page move detection) instead of the greedy per-page coder.
    /// The byte-identity invariant holds in both modes: the MoveIndex is
    /// built once from `prev` before sharding, so every shard sees the
    /// same move candidates as a serial encode would.
    bool correcting = false;
    /// Encoding threads (including the calling thread); 0 = auto
    /// (ThreadPool::default_workers(), i.e. hardware_concurrency() - 1 —
    /// the paper's "all cores but the application's" checkpointing cores).
    /// 1 encodes inline with no pool at all.
    unsigned workers = 0;
    /// Dirty sets smaller than workers * this encode inline: shard dispatch
    /// overhead would dominate a handful of 4 KiB pages.
    std::size_t min_shard_pages = 8;
    /// Optional observability hub: per-shard wall-clock spans and
    /// bytes-in/out counters. nullptr = disabled.
    obs::Hub* obs = nullptr;
  };

  ParallelPageCompressor() : ParallelPageCompressor(Config{}) {}
  explicit ParallelPageCompressor(Config config);

  /// Same contract as PageAlignedCompressor::compress; output is
  /// byte-identical to it. Not thread-safe per instance (reuses the shard
  /// scratch buffers).
  DeltaResult compress(const std::vector<DirtyPage>& dirty,
                       const mem::Snapshot& prev);

  /// Decoding is cheap and stays serial.
  mem::Snapshot decompress(ByteSpan payload, const mem::Snapshot& prev) const {
    return serial_.decompress(payload, prev);
  }

  /// The underlying serial compressor (shared per-page encoder + decoder);
  /// what RestartEngine replays with.
  const PageAlignedCompressor& serial() const { return serial_; }

  unsigned workers() const { return workers_; }
  bool correcting() const { return serial_.correcting(); }

 private:
  /// Folds one compress() outcome into the metrics (no-op when obs is
  /// off); `shards` is how many shard spans the call emitted.
  void record_compress(const DeltaResult& result, std::size_t shards);

  Config config_;
  unsigned workers_;  // resolved (config 0 -> default_workers())
  // Metric handles resolved at construction; null when obs is off.
  obs::Counter* m_bytes_in_ = nullptr;
  obs::Counter* m_bytes_out_ = nullptr;
  obs::Counter* m_pages_delta_ = nullptr;
  obs::Counter* m_pages_raw_ = nullptr;
  obs::Counter* m_pages_same_ = nullptr;
  obs::Counter* m_shards_ = nullptr;
  obs::Histogram* m_shard_pages_ = nullptr;
  PageAlignedCompressor serial_;
  /// Created on the first compress() that actually shards, then reused for
  /// every later checkpoint; small simulations never pay the thread spawn.
  std::unique_ptr<common::ThreadPool> pool_;
  std::vector<Bytes> shard_buffers_;  // scratch, capacity kept across calls
};

}  // namespace aic::delta
