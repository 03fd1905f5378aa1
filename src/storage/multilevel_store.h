// Multi-level checkpoint placement over the storage substrate — the glue
// between the checkpoint chain and the L1/L2/L3 targets of Section III.A:
//
//   L1: the node-local disk   (lost on a level-2+ failure)
//   L2: a RAID-5 partner group (lost on a level-3 failure)
//   L3: the remote file system (survives everything in-model)
//
// The L1 write is synchronous and blocking (the paper's c1 halt). The L2
// and L3 placements are *drains* through the xfer transfer engine: each
// put becomes a chunked transfer over that level's simulated channel,
// published whole once its last chunk acks, interruptible by failures
// mid-flight, and resumable from the last acked chunk. put_checkpoint()
// runs the drains to completion in virtual time (the original synchronous
// contract); put_checkpoint_async() only queues them, so a caller driving
// the clock (failure simulator, AsyncCheckpointer) can interleave failures
// with a drain at any chunk boundary.
//
// recover() answers "what is the newest restorable chain after a level-k
// failure", actually reading the surviving copies — including the RAID-5
// reconstruction path when a partner node is down. A drain in progress is
// never visible to it: a torn drain can cost at most one checkpoint of
// recency, never a corrupt restore.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/checkpoint_file.h"
#include "common/rng.h"
#include "storage/storage.h"
#include "storage/target_sink.h"
#include "xfer/scheduler.h"

namespace aic::storage {

struct MultiLevelConfig {
  double local_bps = 100.0e6;
  double raid_bps = 400.0e6;    // per-node share of the group bandwidth
  double remote_bps = 2.0e6;    // B3
  /// Chunking and retry/backoff policy of the L2/L3 drains. The L2/L3
  /// channels charge no per-message latency.
  xfer::TransferScheduler::Config xfer;
};

/// Durations of one checkpoint's placement at each level.
struct PlacementTimes {
  double local = 0.0;   // blocking (the c1 component)
  double raid = 0.0;    // concurrent (part of c2)
  double remote = 0.0;  // concurrent (part of c3)
};

/// Handle to one checkpoint's queued drains (put_checkpoint_async).
struct DrainTicket {
  std::uint64_t index = 0;
  double local_seconds = 0.0;
  /// Unset when the level was unavailable at submit time.
  std::optional<xfer::TransferId> raid;
  std::optional<xfer::TransferId> remote;
};

class MultiLevelStore {
 public:
  explicit MultiLevelStore(MultiLevelConfig config = MultiLevelConfig{});

  /// Blocking local write plus L2/L3 drains run to completion in virtual
  /// time; returns per-level durations. Throws xfer::TransferError if a
  /// drain exhausts its retry budget (injected channel faults).
  PlacementTimes put_checkpoint(const ckpt::CheckpointFile& file);

  /// Blocking local write; L2/L3 drains only queued. Drive them with
  /// xfer().run_until()/run_until_idle().
  DrainTicket put_checkpoint_async(const ckpt::CheckpointFile& file);

  /// Simulates a level-k failure's storage damage:
  ///   k = 1: nothing lost (transient fault),
  ///   k = 2: the local disk is gone (node replaced),
  ///   k = 3: local disk gone and one RAID member lost *and* rebuilt from
  ///          parity if possible — if a second member would be needed, the
  ///          group's copies are unavailable until re-seeded.
  /// For k >= 2 every in-flight L2/L3 drain is interrupted at its current
  /// chunk (the checkpointing core died with the node); the partials stay
  /// resumable via resume_drains().
  void apply_failure(int level, Rng& rng);

  /// Re-queues drains interrupted by apply_failure (L2 only while the
  /// group is available); each resumes from its last acked chunk. Returns
  /// the number of drains resumed.
  std::size_t resume_drains();

  /// Drains not yet committed or aborted (pending, in-flight, or
  /// interrupted) — the "checkpointing core still busy" signal.
  std::size_t unfinished_drains() const;

  /// Fetches the newest complete restart chain readable after the damage
  /// so far, preferring the cheapest surviving level; nullopt if nothing
  /// restorable survives (no full checkpoint anywhere). Also reports the
  /// read time and the level used. Only committed objects are visible —
  /// never a drain in progress.
  struct Recovery {
    std::vector<ckpt::CheckpointFile> chain;
    double read_seconds = 0.0;
    int level_used = 0;  // 1 = local, 2 = raid, 3 = remote
  };
  std::optional<Recovery> recover() const;

  /// Rolls the store back to the first `count` checkpoints: newer
  /// committed objects are erased everywhere and their live drains
  /// discarded. Pairs with CheckpointChain::rollback_to after a recovery.
  void truncate_to(std::uint64_t count);

  /// Rewind-window reclamation: erases one mid-chain checkpoint at every
  /// level (discarding its drains) and, when the prune re-anchored the
  /// successor as a full checkpoint, rewrites the successor's stored
  /// object with `reanchored` — committed copies are replaced in place and
  /// unfinished drains are discarded and resubmitted with the new bytes,
  /// so no level can ever commit the stale delta over a hole. The newest
  /// checkpoint can never be reclaimed. Nothing is read back: erasing
  /// costs no reassembly at any level. Pairs with
  /// CheckpointChain::PruneEvent.
  void reclaim_checkpoint(std::uint64_t index,
                          const ckpt::CheckpointFile* reanchored = nullptr);

  /// Replaces a group that lost more members than RAID-5 tolerates with
  /// fresh (empty) nodes; call reseed_from_remote() afterwards.
  void repair_raid_group();

  /// Re-seeds lower levels from the remote copies (what a replacement node
  /// does after recovery); returns the bytes copied down. Checkpoints
  /// whose remote drain has not committed yet are skipped.
  std::uint64_t reseed_from_remote();

  const LocalDisk& local() const { return local_; }
  const Raid5Group& raid() const { return raid_; }
  const RemoteStore& remote() const { return remote_; }

  /// The drain engine: inject channel faults, step virtual time, read
  /// per-transfer records and aggregate xfer::Stats.
  xfer::TransferScheduler& xfer() { return xfer_; }
  const xfer::TransferScheduler& xfer() const { return xfer_; }

  std::uint64_t checkpoints_stored() const { return next_index_; }

 private:
  static std::string key_for(std::uint64_t index) {
    return "ckpt-" + std::to_string(index);
  }
  /// Newest index such that keys [start-of-chain .. index] are all present
  /// on `target`, where start-of-chain is the newest full checkpoint.
  std::optional<Recovery> recover_from(const StorageTarget& target,
                                       int level) const;
  /// True while `index`'s remote drain has not committed (still live,
  /// interrupted, or aborted) — i.e. the remote copy is legitimately
  /// absent.
  bool remote_drain_unfinished(std::uint64_t index) const;

  MultiLevelConfig config_;
  LocalDisk local_;
  Raid5Group raid_;
  RemoteStore remote_;
  TargetSink raid_sink_;
  TargetSink remote_sink_;
  xfer::TransferScheduler xfer_;
  std::uint64_t next_index_ = 0;
  /// index -> is this a full checkpoint (chain boundaries).
  std::map<std::uint64_t, bool> is_full_;
  /// index -> that checkpoint's drain handles.
  std::map<std::uint64_t, DrainTicket> drains_;
};

}  // namespace aic::storage
