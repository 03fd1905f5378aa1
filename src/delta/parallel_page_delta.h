// Multi-threaded page-delta compression pipeline.
//
// The paper's decider can only pick short work spans when the delta latency
// dl is small (Section III: dl enters c2/c3 directly), and on a multicore
// node the serial PageAlignedCompressor leaves every core but one idle in
// that exact hot path. ParallelPageCompressor cuts the dirty-page list
// into chunks of kChunkPages pages; its participants, the calling thread
// and tasks of the shared pool (common::parallel_for, common/thread_pool.h),
// claim chunks from one atomic counter until none is left, encode each into
// its own scratch buffer, and the buffers are stitched back in chunk order.
// A participant that starts late or is descheduled just takes fewer
// chunks, instead of holding up a fixed share of the pages.
//
// Determinism invariant: the merged payload is byte-identical to
// PageAlignedCompressor::compress on the same input, for any worker count
// and any claiming order (chunks reuse PageAlignedCompressor::encode_page
// over fixed page ranges, and the chunks concatenated in chunk order are
// the serial record stream). Stats totals are likewise identical —
// per-page contributions are summed, and uint64 addition is associative
// and commutative. A failing page rethrows the error of the lowest failing
// page, as a serial run would. Tests assert all three.
//
// Buffer reuse: the chunk buffers live for the compressor's lifetime, so
// steady-state checkpoints allocate only the result payload and the shared
// call's state, not per-page or per-chunk buffers. The calling thread
// sizes every chunk buffer before dispatch, with room for its pages'
// largest records, so a pool thread never grows one. Consequently
// compress() is NOT const and a single instance must not be used from two
// threads at once (the checkpointing core owns its compressor).
#pragma once

#include <exception>
#include <vector>

#include "common/units.h"
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
    /// Encoding participants (including the calling thread); 0 = auto
    /// (ThreadPool::default_workers(), i.e. hardware_concurrency() - 1 —
    /// the paper's "all cores but the application's" checkpointing cores).
    /// 1 encodes inline and never starts the shared pool.
    unsigned workers = 0;
    /// A set of n dirty pages runs on min(workers, n / this, ceil(n / 4))
    /// participants, ceil(n / 4) being its chunk count, and inline when that
    /// is 1 or less: dispatch overhead would dominate a handful of 4 KiB
    /// pages.
    std::size_t min_shard_pages = 8;
    /// Optional observability hub: one wall-clock shard span per
    /// participant (its pages and bytes out) and bytes-in/out
    /// counters. nullptr = disabled.
    obs::Hub* obs = nullptr;
  };

  ParallelPageCompressor() : ParallelPageCompressor(Config{}) {}
  explicit ParallelPageCompressor(Config config);

  /// Same contract as PageAlignedCompressor::compress; output is
  /// byte-identical to it. Not thread-safe per instance (reuses the chunk
  /// buffers).
  DeltaResult compress(const std::vector<DirtyPage>& dirty,
                       const mem::Snapshot& prev);

  /// The underlying serial compressor (shared per-page encoder + decoder);
  /// what RestartEngine replays with.
  const PageAlignedCompressor& serial() const { return serial_; }

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
  /// Pages per claimed chunk: few enough that the last chunks even out
  /// the threads' finish times, enough that a claim costs nothing next to
  /// encoding them.
  static constexpr std::size_t kChunkPages = 4;
  /// Upper bound on one page's bytes in a chunk buffer, a failed delta
  /// included before it is truncated. Under page_config() every COPY
  /// (at most 5 bytes) covers at least a 32-byte block, so a delta of a
  /// page stays within the page plus 7 bytes of header and op overhead;
  /// the record adds at most 13 (id, kind and length slot).
  static constexpr std::size_t kRecordBound = kPageSize + 32;

  /// One chunk's records and accounting, reused across calls.
  struct Chunk {
    Bytes records;  // capacity kept across calls
    DeltaResult acc;
    std::exception_ptr error;
  };

  std::vector<Chunk> chunks_;
};

}  // namespace aic::delta
