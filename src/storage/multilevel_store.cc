#include "storage/multilevel_store.h"

#include <algorithm>
#include <exception>
#include <memory>

#include "common/check.h"
#include "common/crc32c.h"
#include "common/thread_pool.h"

namespace aic::storage {
namespace {

/// Members of the L2 RAID-5 partner group.
constexpr std::size_t kRaidNodes = 4;

/// A recovery reads a record larger than this in segments of this many
/// bytes, four of the group's 192 KiB stripes, so no segment splits a
/// stripe.
constexpr std::uint64_t kSegmentBytes = 768 * 1024;
/// A recovery uses the shared pool from this many bytes per participant
/// on, so that the small chains of the tests and the simulators recover
/// on the calling thread and never start the pool.
constexpr std::uint64_t kMinBytesPerParticipant = 1024 * 1024;

}  // namespace

MultiLevelStore::MultiLevelStore(MultiLevelConfig config)
    : config_(config),
      local_(config.local_bps),
      raid_(kRaidNodes, config.raid_bps),
      remote_(config.remote_bps),
      raid_sink_(raid_),
      remote_sink_(remote_),
      xfer_(config.xfer) {
  xfer_.add_level(2, {config.raid_bps}, &raid_sink_);
  xfer_.add_level(3, {config.remote_bps}, &remote_sink_);
}

DrainTicket MultiLevelStore::put_checkpoint_async(
    const ckpt::CheckpointFile& file) {
  Bytes wire = file.serialize();
  const std::string key = key_for(next_index_);
  DrainTicket ticket;
  ticket.index = next_index_;
  ticket.local_seconds = local_.available() ? local_.put(key, wire) : 0.0;
  if (raid_.available()) ticket.raid = xfer_.submit(2, key, wire);
  ticket.remote = xfer_.submit(3, key, std::move(wire));
  is_full_[next_index_] = file.kind == ckpt::CheckpointKind::kFull;
  drains_[next_index_] = ticket;
  ++next_index_;
  return ticket;
}

PlacementTimes MultiLevelStore::put_checkpoint(
    const ckpt::CheckpointFile& file) {
  const DrainTicket ticket = put_checkpoint_async(file);
  xfer_.run_until_idle();
  PlacementTimes times;
  times.local = ticket.local_seconds;
  if (ticket.raid.has_value()) {
    xfer_.rethrow_if_aborted(*ticket.raid);
    const xfer::TransferRecord& r = xfer_.record(*ticket.raid);
    times.raid = r.commit_time - r.submit_time;
  }
  xfer_.rethrow_if_aborted(*ticket.remote);
  const xfer::TransferRecord& r3 = xfer_.record(*ticket.remote);
  times.remote = r3.commit_time - r3.submit_time;
  return times;
}

void MultiLevelStore::apply_failure(int level, Rng& rng) {
  AIC_CHECK(level >= 1 && level <= 3);
  if (level >= 2) {
    // The node (and its checkpointing core) is gone: every in-flight drain
    // dies at its current chunk and becomes a resumable partial.
    xfer_.interrupt_level(2);
    xfer_.interrupt_level(3);
    // The node's disk is gone; a spare comes up with an empty disk.
    local_.fail();
    local_.replace();
  }
  if (level == 2) {
    // The dead node may have been a member of a partner group: one RAID
    // member drops out and is rebuilt from parity — data stays readable
    // throughout (the reconstruction path is exercised by recover()).
    // With a member already down the group has no parity slack to give.
    if (raid_.failed_nodes() == 0) {
      const std::size_t victim = rng.uniform_u64(raid_.node_count());
      raid_.fail_node(victim);
      raid_.rebuild_node(victim);
    }
  }
  if (level == 3) {
    // Catastrophic: two group members lost — beyond RAID-5's tolerance,
    // only the remote copies survive until reseed_from_remote().
    const std::size_t a = rng.uniform_u64(raid_.node_count());
    const std::size_t b = (a + 1) % raid_.node_count();
    if (!raid_.is_node_failed(a)) raid_.fail_node(a);
    if (!raid_.is_node_failed(b)) raid_.fail_node(b);
  }
}

std::size_t MultiLevelStore::resume_drains() {
  std::size_t resumed = xfer_.resume_level(3);
  // Resuming an L2 drain needs a group that can accept the commit.
  if (raid_.available()) resumed += xfer_.resume_level(2);
  return resumed;
}

std::size_t MultiLevelStore::unfinished_drains() const {
  return xfer_.runnable_count() + xfer_.interrupted_count();
}

void MultiLevelStore::forget(std::uint64_t index) {
  const std::string key = key_for(index);
  local_.erase(key);
  raid_.erase(key);
  remote_.erase(key);
  if (auto it = drains_.find(index); it != drains_.end()) {
    for (const auto& id : {it->second.raid, it->second.remote}) {
      if (id.has_value() && xfer_.known(*id)) xfer_.discard(*id);
    }
    drains_.erase(it);
  }
  is_full_.erase(index);
}

void MultiLevelStore::truncate_to(std::uint64_t count) {
  AIC_CHECK_MSG(count <= next_index_,
                "truncate_to(" << count << ") beyond " << next_index_);
  for (std::uint64_t i = count; i < next_index_; ++i) forget(i);
  next_index_ = count;
}

void MultiLevelStore::reclaim_checkpoint(
    std::uint64_t index, const ckpt::CheckpointFile* reanchored) {
  AIC_CHECK_MSG(index + 1 < next_index_,
                "reclaim_checkpoint(" << index << ") would drop the newest "
                                      << "checkpoint (have " << next_index_
                                      << ")");
  forget(index);

  if (reanchored != nullptr) {
    const std::uint64_t succ = index + 1;
    const std::string skey = key_for(succ);
    const Bytes wire = reanchored->serialize();
    auto dit = drains_.find(succ);
    // Per level: a committed copy is replaced in place; a still-running
    // (or interrupted/aborted) drain is carrying the stale delta bytes and
    // must be discarded and resubmitted so it can never commit over the
    // hole the reclaim just opened.
    auto settle = [&](int level, std::optional<xfer::TransferId>& id,
                      const StorageTarget& target) {
      const bool committed =
          id.has_value() && xfer_.known(*id) &&
          xfer_.record(*id).state == xfer::TransferState::kCommitted;
      if (committed) {
        if (target.available()) {
          if (level == 2) raid_.put(skey, wire);
          else remote_.put(skey, wire);
        }
        return;
      }
      if (id.has_value() && xfer_.known(*id)) xfer_.discard(*id);
      if (level == 3 || target.available())
        id = xfer_.submit(level, skey, wire);
    };
    if (local_.available() && local_.object_size(skey).has_value())
      local_.put(skey, wire);
    if (dit != drains_.end()) {
      settle(2, dit->second.raid, raid_);
      settle(3, dit->second.remote, remote_);
    }
    is_full_[succ] = true;
  }
}

void MultiLevelStore::repair_raid_group() {
  // Replacement members join empty; re-striping happens via
  // reseed_from_remote().
  raid_ = Raid5Group(kRaidNodes, config_.raid_bps);
}

namespace {

/// One record of a recovery window: fetched into `wire`, then parsed in
/// place into `file`, or the error its read or parse threw. `size` is unset
/// for a record the target does not hold.
struct Fetched {
  std::string key;
  std::optional<std::uint64_t> size;
  std::shared_ptr<std::uint8_t[]> wire;
  std::uint32_t crc = 0;  // a segmented record's register from zero
  ckpt::CheckpointFile file;
  std::exception_ptr error;
};

/// One item of a window's read: a whole record, read and parsed, or the
/// `len` bytes of a large record that start at `at`, read and checksummed
/// into `crc`, or the error either threw.
struct FetchStep {
  std::size_t record;
  bool whole;
  std::uint64_t at = 0;
  std::uint64_t len = 0;
  std::uint32_t crc = 0;
  std::exception_ptr error = nullptr;
};

/// Fetches and parses a window's records, on the shared pool when the
/// window is large. Every record is parsed in place in its wire buffer,
/// which its payload then keeps alive: no payload byte is copied. A record
/// of at most one segment is one item: read, then parsed while its bytes
/// are still in cache. A larger one is read by segment, so a RAID group
/// reassembles it by stripe range, and each segment's item checksums it
/// (crc32c_update from zero) straight after reading it, while its bytes
/// are in cache; the calling thread then combines the segments' registers
/// and parses the record, which reads only its header. The wire buffers
/// are allocated on the calling thread: glibc keeps a freed block in the
/// arena of the thread that allocated it.
void fetch_window(const StorageTarget& target, std::vector<Fetched>& window) {
  std::uint64_t bytes = 0;
  std::vector<FetchStep> steps;
  for (std::size_t r = 0; r < window.size(); ++r) {
    Fetched& f = window[r];
    f.size = target.object_size(f.key);
    if (!f.size.has_value()) continue;
    bytes += *f.size;
    f.wire = std::make_shared_for_overwrite<std::uint8_t[]>(*f.size);
    if (*f.size <= kSegmentBytes) {
      steps.push_back({r, true, 0, *f.size});
      continue;
    }
    for (std::uint64_t at = 0; at < *f.size; at += kSegmentBytes)
      steps.push_back({r, false, at, std::min(kSegmentBytes, *f.size - at)});
  }
  const std::size_t participants =
      common::restore_participants(bytes, kMinBytesPerParticipant);
  common::parallel_for(steps.size(), participants, [&](std::size_t i) {
    FetchStep& step = steps[i];
    Fetched& f = window[step.record];
    const std::span<std::uint8_t> range(f.wire.get() + step.at, step.len);
    try {
      target.read_range(f.key, step.at, range);
      if (step.whole) {
        f.file = ckpt::CheckpointFile::parse(SharedBytes(f.wire, range));
      } else {
        step.crc = crc32c_update(0, range);
      }
    } catch (...) {
      step.error = std::current_exception();
    }
  });
  // A record's first error in step order is the one a whole read and
  // parse would have thrown.
  for (const FetchStep& step : steps) {
    Fetched& f = window[step.record];
    if (step.error && !f.error) f.error = step.error;
    if (!step.whole) f.crc = crc32c_combine(f.crc, step.crc, step.len);
  }
  for (Fetched& f : window) {
    if (!f.size.has_value() || *f.size <= kSegmentBytes || f.error) continue;
    try {
      f.file = ckpt::CheckpointFile::parse(
          SharedBytes(f.wire, {f.wire.get(), *f.size}), f.crc);
    } catch (...) {
      f.error = std::current_exception();
    }
  }
}

}  // namespace

std::optional<MultiLevelStore::Recovery> MultiLevelStore::recover_from(
    const StorageTarget& target, int level) const {
  if (!target.available()) return std::nullopt;
  // Walk from the newest checkpoint backwards to its chain-starting full,
  // requiring every file on the way to be readable from this target. A
  // hole at index i ends the chain of every newest above i; no full lies
  // between i and the newest (the walk would have stopped there), so the
  // walk goes on at i - 1, reading nothing twice. It reads a window at a
  // time: the records from `top` - 1 down to the newest full below `top`.
  std::vector<ckpt::CheckpointFile> chain;  // newest first
  double read_seconds = 0.0;
  for (std::uint64_t top = next_index_; top > 0;) {
    std::uint64_t low = top - 1;
    while (low > 0) {
      auto it = is_full_.find(low);
      if (it != is_full_.end() && it->second) break;
      --low;
    }
    std::vector<Fetched> window(top - low);
    for (std::size_t r = 0; r < window.size(); ++r)
      window[r].key = key_for(top - 1 - r);
    fetch_window(target, window);
    for (std::size_t r = 0; r < window.size(); ++r) {
      Fetched& f = window[r];
      if (!f.size.has_value()) {  // hole: the walk goes on below it
        chain.clear();
        read_seconds = 0.0;
        continue;
      }
      if (f.error) std::rethrow_exception(f.error);
      read_seconds += target.read_seconds(f.key);
      chain.push_back(std::move(f.file));
      if (is_full_.at(top - 1 - r)) {
        std::reverse(chain.begin(), chain.end());
        return Recovery{std::move(chain), read_seconds, level};
      }
    }
    top = low;
  }
  return std::nullopt;
}

std::optional<MultiLevelStore::Recovery> MultiLevelStore::recover() const {
  if (auto r = recover_from(local_, 1)) return r;
  if (auto r = recover_from(raid_, 2)) return r;
  return recover_from(remote_, 3);
}

bool MultiLevelStore::remote_drain_unfinished(std::uint64_t index) const {
  auto it = drains_.find(index);
  if (it == drains_.end() || !it->second.remote.has_value()) return false;
  const xfer::TransferId id = *it->second.remote;
  if (!xfer_.known(id)) return false;
  return xfer_.record(id).state != xfer::TransferState::kCommitted;
}

std::uint64_t MultiLevelStore::reseed_from_remote() {
  std::uint64_t copied = 0;
  for (std::uint64_t i = 0; i < next_index_; ++i) {
    const std::string key = key_for(i);
    auto bytes = remote_.get(key);
    if (!bytes.has_value()) {
      // Legitimately absent only while its drain is still in progress (or
      // died mid-flight); anything else means the remote store lost data.
      AIC_CHECK_MSG(remote_drain_unfinished(i), "remote store lost " << key);
      continue;
    }
    if (local_.available() && !local_.object_size(key).has_value()) {
      copied += bytes->size();
      local_.put(key, *bytes);
    }
    if (raid_.available() && !raid_.object_size(key).has_value()) {
      copied += bytes->size();
      // A fully healthy group is required to re-stripe.
      if (raid_.failed_nodes() == 0) raid_.put(key, *bytes);
    }
  }
  return copied;
}

}  // namespace aic::storage
