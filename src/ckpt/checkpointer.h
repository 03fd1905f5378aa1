// Checkpoint capture over a mem::AddressSpace — full checkpoints and
// delta-compressed incremental ones — plus the restart replay engine.
//
// CheckpointChain is the stateful façade the controllers use. It tracks
// the accumulated previous-checkpoint state (needed both to delta-compress
// hot pages and to compute the freed-page list), forces a periodic full
// checkpoint to bound the restart chain, and reports per-checkpoint size /
// work accounting (the `ds` and `dl`-work inputs to the AIC predictor).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "ckpt/checkpoint_file.h"
#include "ckpt/rewind_window.h"
#include "delta/page_delta.h"
#include "delta/parallel_page_delta.h"
#include "mem/address_space.h"
#include "mem/snapshot.h"

namespace aic::ckpt {

/// Accounting for one captured checkpoint.
struct CaptureStats {
  CheckpointKind kind = CheckpointKind::kFull;
  std::uint64_t pages_written = 0;
  std::uint64_t freed_pages = 0;
  /// Uncompressed checkpoint content (pages + cpu state), i.e. what an
  /// incremental checkpoint without delta compression would write.
  std::uint64_t uncompressed_bytes = 0;
  /// Serialized file size (after delta compression if applied) == `ds`
  /// plus headers.
  std::uint64_t file_bytes = 0;
  /// Deterministic compression effort (delta/CodecStats::work_units); the
  /// simulation layer converts this to delta latency `dl`.
  std::uint64_t delta_work_units = 0;
  std::uint64_t pages_delta = 0;
  std::uint64_t pages_raw = 0;
  /// Dirty pages bit-identical to their previous version, skipped by the
  /// compressor's memcmp fast path (zero payload bytes).
  std::uint64_t pages_same = 0;
  /// Pages encoded against a different previous page (whole-page moves;
  /// correcting mode only).
  std::uint64_t pages_moved = 0;
};

/// Replays a restart chain: one full checkpoint followed by its incremental
/// successors, in sequence order.
class RestartEngine {
 public:
  struct Restored {
    mem::Snapshot memory;
    Bytes cpu_state;
    double app_time = 0.0;
    std::uint64_t sequence = 0;
  };

  /// How delta files are folded into the accumulated image.
  enum class Mode {
    /// Burns/Long/Stockmeyer reconstruction: each delta payload is applied
    /// directly onto the page frames of the accumulated image (the buffer
    /// holding the previous state IS the buffer being rebuilt), so peak
    /// memory is one image plus transient scratch — roughly half the
    /// out-of-place peak. The default; output is byte-exact against
    /// kOutOfPlace (tested).
    kInPlace,
    /// Decode each delta into a second snapshot, then overlay — the
    /// pre-v3 behavior, kept as the differential-testing reference.
    kOutOfPlace,
  };

  /// `chain` must start with a kFull file; later files must have strictly
  /// increasing sequence numbers. Delta files are decoded against the
  /// accumulated state, mirroring capture. A chain whose full record holds
  /// enough pages is replayed by page range on the shared pool
  /// (common::parallel_for); the result, and every error message, is the
  /// serial replay's.
  static Restored restore(std::span<const CheckpointFile> chain,
                          const delta::PageAlignedCompressor& compressor,
                          Mode mode = Mode::kInPlace);

  /// Folds the pages of one record that lie in `range` into the replay
  /// state `state`. A full resets it to the record's pages. A raw
  /// incremental drops its freed pages, then writes its pages. A delta
  /// applies its payload first and then drops its freed pages, because a
  /// moved page's source may be freed in the same checkpoint. A move in
  /// `range` must have its source there too. Throws CheckError on a
  /// payload that does not decode against `state`.
  static void replay(const CheckpointFile& file,
                     const delta::PageAlignedCompressor& compressor, Mode mode,
                     mem::Snapshot& state, delta::PageRange range = {});
};

namespace detail {

/// restore() with the page-id space cut into `ranges` ranges, cut from the
/// full record's ids and replayed by up to `participants` threads (the
/// caller included). One range is the serial replay. So is any chain the
/// serial replay would reject, and any chain with a move whose source lies
/// in another range: those restore through it, so that their result and
/// messages are the serial path's.
RestartEngine::Restored restore_ranges(
    std::span<const CheckpointFile> chain,
    const delta::PageAlignedCompressor& compressor, RestartEngine::Mode mode,
    std::size_t ranges, std::size_t participants);

}  // namespace detail

/// Stateful chain manager: owns the accumulated previous-checkpoint state,
/// decides full-vs-incremental, and keeps the replay chain.
class CheckpointChain {
 public:
  struct Config {
    /// Take a fresh full checkpoint after this many incrementals (bounds
    /// restart cost); 0 means "only the first checkpoint is full". See
    /// is_full() for the exact schedule.
    std::uint32_t full_period = 0;
    /// Use the one-pass correcting coder (cdelta records, checkpoint format
    /// v3, whole-page move detection) for incrementals instead of the
    /// greedy per-page coder.
    bool correcting = false;
    /// Delta-compression worker threads (the paper's dedicated
    /// checkpointing cores). 0 = auto (hardware_concurrency() - 1);
    /// 1 = serial. Output is byte-identical at any setting.
    unsigned compress_workers = 0;
    /// Optional observability hub, shared with the compression pipeline:
    /// per-checkpoint counters plus per-shard spans. nullptr = disabled.
    obs::Hub* obs = nullptr;
    /// Bounded-regret retention: keep at most this many live checkpoints,
    /// pruning per the RewindWindow discard schedule (worst-case rewind
    /// gap within the competitive bound). 0 disables retention — the chain
    /// keeps every file, the pre-existing behavior. When a pruned file's
    /// successor is not a full checkpoint it is re-anchored (rewritten as
    /// a full) first, so every surviving checkpoint stays restorable.
    /// Unsupported in combination with truncate_before_last_full().
    std::size_t rewind_budget = 0;
  };

  /// Accounting for one retention prune (see Config::rewind_budget).
  struct PruneEvent {
    std::uint64_t victim_sequence = 0;
    /// Serialized size of the discarded file.
    std::uint64_t victim_bytes = 0;
    /// Set when the victim's successor was rewritten as a full checkpoint
    /// to keep the chain restorable across the gap.
    std::optional<std::uint64_t> reanchored_sequence;
    /// Successor growth from re-anchoring (bytes after minus before);
    /// 0 when no re-anchor happened.
    std::int64_t reanchor_growth = 0;
  };

  CheckpointChain() : CheckpointChain(Config{}) {}
  explicit CheckpointChain(Config config);

  /// Captures the next checkpoint of `space`. The caller must protect_all()
  /// afterwards to start the next interval's dirty tracking (the chain does
  /// not do it, so callers control the exact protocol timing).
  CaptureStats capture(const mem::AddressSpace& space, ByteSpan cpu_state,
                       double app_time);

  /// The periodic-full schedule: true for sequence 0 and, when
  /// full_period > 0, every multiple of full_period + 1. A pure function of
  /// the sequence number — re-anchored fulls and rollbacks do not move it —
  /// so a submitter can decide what to snapshot before the capture runs.
  static bool is_full(const Config& config, std::uint64_t sequence);

  /// True if the next capture will be a full checkpoint. Lets asynchronous
  /// callers know whether to snapshot every live page or only the dirty
  /// set.
  bool next_capture_is_full() const {
    return is_full(config_, next_sequence_);
  }

  /// Capture from pre-copied page images instead of the live space — the
  /// entry point for the concurrent checkpointing core, which must work
  /// from a stable copy while the application keeps mutating. `pages`
  /// holds the dirty pages' images (every live page when
  /// next_capture_is_full()); `live_now` is the sorted live-page set at
  /// snapshot time (freed pages are derived from it), as
  /// AddressSpace::live_pages() returns it.
  CaptureStats capture_pages(const mem::Snapshot& pages,
                             const std::vector<PageId>& live_now,
                             ByteSpan cpu_state, double app_time);

  /// Restores the latest state from the retained chain (in place by
  /// default; see RestartEngine::Mode).
  RestartEngine::Restored restore(
      RestartEngine::Mode mode = RestartEngine::Mode::kInPlace) const;

  /// Restores the state as of the retained checkpoint with this sequence
  /// number (replaying from the latest full at or before it). With a
  /// rewind window active, every sequence in rewind().live_sequences() is
  /// a valid target.
  RestartEngine::Restored restore_at(
      std::uint64_t sequence,
      RestartEngine::Mode mode = RestartEngine::Mode::kInPlace) const;

  /// Accumulated state as of the last checkpoint (what the next delta is
  /// compressed against).
  const mem::Snapshot& last_state() const { return accumulated_; }

  std::uint64_t checkpoints_taken() const { return next_sequence_; }
  const std::vector<CheckpointFile>& files() const { return files_; }

  /// Drops files preceding the most recent full checkpoint (they are no
  /// longer needed for restart). Returns bytes reclaimed.
  std::uint64_t truncate_before_last_full();

  /// Failure rollback: discards checkpoints with sequence > `sequence`
  /// (taken after the restore point, now invalid) and rewinds the
  /// accumulated state so the next delta compresses against the restore
  /// point. The remaining chain must still contain a full checkpoint at or
  /// before `sequence`.
  void rollback_to(std::uint64_t sequence);

  /// Total serialized bytes of the files needed to restore the latest
  /// state (last full + successors) — what a recovery must read.
  std::uint64_t restart_chain_bytes() const;

  /// The retention window (inactive when Config::rewind_budget == 0).
  const RewindWindow& rewind() const { return rewind_; }
  /// The most recent retention prune, if any capture has evicted yet.
  const std::optional<PruneEvent>& last_prune() const { return last_prune_; }

 private:
  /// The one capture body behind capture() and capture_pages(): `pages`
  /// are the images to write in ascending id order (every live page when
  /// next_capture_is_full(), the dirty set otherwise), `live_now` the
  /// sorted live-page set at capture time.
  CaptureStats capture_views(const std::vector<delta::DirtyPage>& pages,
                             const std::vector<PageId>& live_now,
                             ByteSpan cpu_state, double app_time);
  /// Bumps the ckpt.* counters for one captured checkpoint (no-op when
  /// obs is off).
  void record_capture(const CaptureStats& stats);
  /// Admits the just-captured file into the rewind window and prunes the
  /// eviction it returns, if any. Called at the end of every capture.
  void admit_to_rewind();
  /// Discards the retained file with this sequence, re-anchoring its
  /// successor as a full checkpoint first when needed.
  void prune_sequence(std::uint64_t victim_sequence);
  /// Index of the newest full checkpoint in files_[0, end), where a
  /// replay of files_[end - 1] starts; nullopt when there is none.
  std::optional<std::size_t> latest_full(std::size_t end) const;

  Config config_;
  delta::ParallelPageCompressor compressor_;
  std::vector<CheckpointFile> files_;
  mem::Snapshot accumulated_;
  std::vector<PageId> last_live_;
  std::uint64_t next_sequence_ = 0;
  RewindWindow rewind_;
  std::optional<PruneEvent> last_prune_;
};

}  // namespace aic::ckpt
