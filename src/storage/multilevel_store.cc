#include "storage/multilevel_store.h"

#include <algorithm>

#include "common/check.h"

namespace aic::storage {
namespace {

/// Members of the L2 RAID-5 partner group.
constexpr std::size_t kRaidNodes = 4;

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

void MultiLevelStore::truncate_to(std::uint64_t count) {
  AIC_CHECK_MSG(count <= next_index_,
                "truncate_to(" << count << ") beyond " << next_index_);
  for (std::uint64_t i = count; i < next_index_; ++i) {
    const std::string key = key_for(i);
    local_.erase(key);
    raid_.erase(key);
    remote_.erase(key);
    auto it = drains_.find(i);
    if (it != drains_.end()) {
      if (it->second.raid.has_value() && xfer_.known(*it->second.raid)) {
        xfer_.discard(*it->second.raid);
      }
      if (it->second.remote.has_value() && xfer_.known(*it->second.remote)) {
        xfer_.discard(*it->second.remote);
      }
      drains_.erase(it);
    }
    is_full_.erase(i);
  }
  next_index_ = count;
}

void MultiLevelStore::reclaim_checkpoint(
    std::uint64_t index, const ckpt::CheckpointFile* reanchored) {
  AIC_CHECK_MSG(index + 1 < next_index_,
                "reclaim_checkpoint(" << index << ") would drop the newest "
                                      << "checkpoint (have " << next_index_
                                      << ")");
  const std::string key = key_for(index);
  local_.erase(key);
  raid_.erase(key);
  remote_.erase(key);
  auto it = drains_.find(index);
  if (it != drains_.end()) {
    if (it->second.raid.has_value() && xfer_.known(*it->second.raid))
      xfer_.discard(*it->second.raid);
    if (it->second.remote.has_value() && xfer_.known(*it->second.remote))
      xfer_.discard(*it->second.remote);
    drains_.erase(it);
  }
  is_full_.erase(index);

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
    if (local_.available() && local_.get(skey).has_value())
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
  for (std::uint64_t i = 0; i < next_index_; ++i) raid_.erase(key_for(i));
}

std::optional<MultiLevelStore::Recovery> MultiLevelStore::recover_from(
    const StorageTarget& target, int level) const {
  if (!target.available() || next_index_ == 0) return std::nullopt;
  // Walk from the newest checkpoint backwards to its chain-starting full,
  // requiring every file on the way to be readable from this target.
  for (std::uint64_t newest = next_index_; newest-- > 0;) {
    std::vector<ckpt::CheckpointFile> chain;
    double read_seconds = 0.0;
    bool complete = false;
    for (std::uint64_t i = newest + 1; i-- > 0;) {
      auto bytes = target.get(key_for(i));
      if (!bytes.has_value()) break;  // hole: try an older newest
      read_seconds += target.read_seconds(key_for(i));
      chain.push_back(ckpt::CheckpointFile::parse(*bytes));
      if (is_full_.at(i)) {
        complete = true;
        break;
      }
    }
    if (!complete) continue;
    std::reverse(chain.begin(), chain.end());
    return Recovery{std::move(chain), read_seconds, level};
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
    if (local_.available() && !local_.get(key).has_value()) {
      copied += bytes->size();
      local_.put(key, *bytes);
    }
    if (raid_.available() && !raid_.get(key).has_value()) {
      copied += bytes->size();
      // A fully healthy group is required to re-stripe.
      if (raid_.failed_nodes() == 0) raid_.put(key, *bytes);
    }
  }
  return copied;
}

}  // namespace aic::storage
