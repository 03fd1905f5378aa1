// Tests for storage::MultiLevelStore — checkpoint placement across the
// three levels and recovery after each failure class, including the RAID-5
// reconstruction path and reseeding after catastrophic loss.
#include <gtest/gtest.h>

#include "ckpt/checkpointer.h"
#include "common/rng.h"
#include "heap_guard.h"
#include "mem/snapshot.h"
#include "storage/multilevel_store.h"

namespace aic::storage {
namespace {

/// Builds a chain of checkpoint files from a mutating space and stores
/// each one; returns the final state for verification.
struct StoredJob {
  std::vector<ckpt::CheckpointFile> files;
  mem::Snapshot final_state;
};

StoredJob store_job(MultiLevelStore& store, int increments, Rng& rng) {
  mem::AddressSpace space;
  space.allocate_range(0, 32);
  for (mem::PageId id = 0; id < 32; ++id) {
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  ckpt::CheckpointChain chain;
  StoredJob job;
  chain.capture(space, {}, 0.0);
  store.put_checkpoint(chain.files().back());
  space.protect_all();
  for (int i = 1; i <= increments; ++i) {
    Bytes edit(64);
    for (auto& x : edit) x = std::uint8_t(rng());
    space.write(rng.uniform_u64(32), rng.uniform_u64(kPageSize - 64), edit);
    chain.capture(space, {}, double(i));
    store.put_checkpoint(chain.files().back());
    space.protect_all();
  }
  job.files = chain.files();
  job.final_state = mem::Snapshot::capture(space);
  return job;
}

mem::Snapshot restore_from(const MultiLevelStore::Recovery& rec) {
  delta::PageAlignedCompressor pa;
  return ckpt::RestartEngine::restore(rec.chain, pa).memory;
}

TEST(MultiLevelStore, PlacementReachesAllLevelsWithSaneTimes) {
  MultiLevelStore store;
  Rng rng(1);
  store_job(store, 3, rng);
  EXPECT_EQ(store.checkpoints_stored(), 4u);
  EXPECT_GT(store.local().stored_bytes(), 0u);
  EXPECT_GT(store.raid().stored_bytes(), 0u);
  EXPECT_GT(store.remote().stored_bytes(), 0u);
  // Remote is the slow path.
  ckpt::CheckpointFile probe;
  probe.payload = Bytes(1000000, 7);
  const auto times = store.put_checkpoint(probe);
  EXPECT_GT(times.remote, times.local);
  EXPECT_GT(times.remote, times.raid);
}

TEST(MultiLevelStore, RecoverPrefersLocal) {
  MultiLevelStore store;
  Rng rng(2);
  auto job = store_job(store, 4, rng);
  auto rec = store.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->level_used, 1);
  EXPECT_TRUE(job.final_state.equals_space(
      restore_from(*rec).materialize()));
}

TEST(MultiLevelStore, Level2FailureFallsBackToRaidWithRebuild) {
  MultiLevelStore store;
  Rng rng(3);
  auto job = store_job(store, 4, rng);
  store.apply_failure(2, rng);
  EXPECT_EQ(store.local().stored_bytes(), 0u);  // replacement disk is empty
  auto rec = store.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->level_used, 2);
  EXPECT_TRUE(job.final_state.equals_space(
      restore_from(*rec).materialize()));
}

TEST(MultiLevelStore, Level3FailureOnlyRemoteSurvives) {
  MultiLevelStore store;
  Rng rng(4);
  auto job = store_job(store, 4, rng);
  store.apply_failure(3, rng);
  EXPECT_FALSE(store.raid().available());
  auto rec = store.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->level_used, 3);
  EXPECT_TRUE(job.final_state.equals_space(
      restore_from(*rec).materialize()));
}

TEST(MultiLevelStore, ReseedRestoresLowerLevelsAfterCatastrophe) {
  MultiLevelStore store;
  Rng rng(5);
  auto job = store_job(store, 3, rng);
  store.apply_failure(3, rng);
  store.repair_raid_group();
  const auto copied = store.reseed_from_remote();
  EXPECT_GT(copied, 0u);
  auto rec = store.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->level_used, 1) << "local should be reseeded and preferred";
  EXPECT_TRUE(job.final_state.equals_space(
      restore_from(*rec).materialize()));
}

TEST(MultiLevelStore, EmptyStoreHasNothingToRecover) {
  MultiLevelStore store;
  EXPECT_FALSE(store.recover().has_value());
}

TEST(MultiLevelStore, PartialLocalChainFallsBackDeeper) {
  // Write three checkpoints; wipe the local disk mid-way by a level-2
  // failure, then take MORE checkpoints (local now has only the tail,
  // which lacks its full ancestor) — recovery must come from a deeper
  // level that holds the complete chain.
  MultiLevelStore store;
  Rng rng(6);
  mem::AddressSpace space;
  space.allocate_range(0, 16);
  ckpt::CheckpointChain chain;
  chain.capture(space, {}, 0.0);
  store.put_checkpoint(chain.files().back());
  space.protect_all();

  Bytes edit = {1, 2, 3};
  space.write(5, 0, edit);
  chain.capture(space, {}, 1.0);
  store.put_checkpoint(chain.files().back());
  space.protect_all();

  store.apply_failure(2, rng);  // local gone; raid survived (rebuilt)

  space.write(9, 0, edit);
  chain.capture(space, {}, 2.0);
  store.put_checkpoint(chain.files().back());
  space.protect_all();

  auto rec = store.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->level_used, 2)
      << "local holds only an incremental without its full ancestor";
  EXPECT_TRUE(mem::Snapshot::capture(space).equals_space(
      restore_from(*rec).materialize()));
}

TEST(MultiLevelStore, RecoveryWalksPastAnInterruptedDrainOnce) {
  // Checkpoint 6's drains die with its node and are never resumed, while
  // 7-20 commit. After a level-3 failure only the remote copies survive,
  // with a hole at 6 under fourteen later records: the walk must go on
  // below the hole and return 0-5.
  MultiLevelStore store;
  Rng rng(0x60);
  mem::AddressSpace space;
  space.allocate_range(0, 16);
  for (mem::PageId id = 0; id < 16; ++id) {
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  ckpt::CheckpointChain chain;
  mem::Snapshot at_five;
  for (int i = 0; i <= 20; ++i) {
    if (i > 0) {
      Bytes edit(64);
      for (auto& x : edit) x = std::uint8_t(rng());
      space.write(rng.uniform_u64(16), rng.uniform_u64(kPageSize - 64), edit);
    }
    chain.capture(space, {}, double(i));
    space.protect_all();
    if (i == 6) {
      store.put_checkpoint_async(chain.files().back());
      store.apply_failure(2, rng);
    } else {
      store.put_checkpoint(chain.files().back());
    }
    if (i == 5) at_five = mem::Snapshot::capture(space);
  }
  store.apply_failure(3, rng);

  const auto rec = store.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->level_used, 3);
  ASSERT_EQ(rec->chain.size(), 6u);
  for (std::size_t i = 0; i < rec->chain.size(); ++i)
    EXPECT_EQ(rec->chain[i].sequence, i);
  const mem::AddressSpace restored = restore_from(*rec).materialize();
  EXPECT_TRUE(at_five.equals_space(restored));
}

// ---------- drain byte path: allocations and what stays live ----------

/// A full checkpoint whose serialized record is `chunks` drain chunks
/// long, the last one partly filled.
ckpt::CheckpointFile record_of_chunks(std::size_t chunks) {
  ckpt::CheckpointFile f;
  f.payload = Bytes(chunks * MultiLevelConfig{}.xfer.chunk_bytes - 1000, 0x5A);
  return f;
}

struct DrainCost {
  std::uint64_t allocations = 0;
  std::int64_t live_bytes = 0;  // heap left behind
  std::uint64_t chunks = 0;     // L2 + L3 chunks sent
};

/// One checkpoint's put and drains, metered on the process heap. The heap
/// counters are process-wide, so the work stays on this thread.
DrainCost put_and_drain(MultiLevelStore& store,
                        const ckpt::CheckpointFile& file) {
  const std::uint64_t chunks0 = store.xfer().stats().chunks_sent;
  const testing::HeapStats before = testing::heap_stats();
  store.put_checkpoint_async(file);
  store.xfer().run_until_idle();
  const testing::HeapStats after = testing::heap_stats();
  return {after.allocations - before.allocations,
          std::int64_t(after.live_bytes) - std::int64_t(before.live_bytes),
          store.xfer().stats().chunks_sent - chunks0};
}

std::uint64_t stored_copies(const MultiLevelStore& store) {
  return store.local().stored_bytes() + store.raid().stored_bytes() +
         store.remote().stored_bytes();
}

TEST(MultiLevelStore, DrainAllocatesPerObjectNotPerChunk) {
  MultiLevelStore store;
  const ckpt::CheckpointFile small = record_of_chunks(2);
  const ckpt::CheckpointFile large = record_of_chunks(32);
  put_and_drain(store, small);  // warm-up: first-use state on each path
  put_and_drain(store, large);
  const DrainCost s = put_and_drain(store, small);
  const DrainCost l = put_and_drain(store, large);
  EXPECT_EQ(s.chunks, 2u * 2u);
  EXPECT_EQ(l.chunks, 2u * 32u);
  EXPECT_EQ(s.allocations, l.allocations)
      << "a 32-chunk drain must allocate no more than a 2-chunk one";
}

TEST(MultiLevelStore, DrainLeavesOnlyTheStoredCopies) {
  MultiLevelStore store;
  const ckpt::CheckpointFile file = record_of_chunks(32);
  put_and_drain(store, file);
  const std::uint64_t stored0 = stored_copies(store);
  const DrainCost cost = put_and_drain(store, file);
  const std::int64_t stored = std::int64_t(stored_copies(store) - stored0);
  // L1 + RAID shares + L3, and no payload or spare capacity besides: the
  // slack covers allocator rounding and the per-object bookkeeping.
  constexpr std::int64_t kSlack = 64 * 1024;
  EXPECT_LE(cost.live_bytes, stored + kSlack)
      << "the drains left " << cost.live_bytes << " B live for " << stored
      << " B stored";
}

// ---------- recovery byte path: each record's bytes held once ----------

TEST(MultiLevelStore, RecoveryHoldsEachRecordOnceAndCopiesShareIt) {
  // A 300-page full (1.2 MB, read in two segments) and eight small
  // incrementals: 1.23 MB stored, under two 1 MiB participants, so the
  // recovery runs on this thread and the heap counters see all of it. A
  // record's payload views the buffer the record was read into, so the
  // peak is the stored bytes plus bookkeeping; a parse that copied the
  // payload out would add the full record's 1.2 MB.
  constexpr std::size_t kPages = 300;
  MultiLevelStore store;
  Rng rng(0x9A5);
  mem::AddressSpace space;
  space.allocate_range(0, kPages);
  for (mem::PageId id = 0; id < kPages; ++id) {
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  ckpt::CheckpointChain chain;
  std::uint64_t stored = 0;
  for (int i = 0; i <= 8; ++i) {
    for (int e = 0; i > 0 && e < 10; ++e) {
      Bytes edit(16);
      for (auto& x : edit) x = std::uint8_t(rng());
      space.write(rng.uniform_u64(kPages), rng.uniform_u64(kPageSize - 16),
                  edit);
    }
    chain.capture(space, {}, double(i));
    space.protect_all();
    store.put_checkpoint(chain.files().back());
    stored += chain.files().back().serialized_size();
  }
  ASSERT_LT(stored, std::uint64_t(2) << 20) << "the recovery would split";
  Rng failure(4);
  for (const int level : {1, 2}) {
    if (level == 2) store.apply_failure(2, failure);
    const std::uint64_t live0 = testing::heap_stats().live_bytes;
    testing::reset_heap_peak();
    const auto rec = store.recover();
    const std::uint64_t peak = testing::heap_stats().peak_bytes - live0;
    ASSERT_TRUE(rec.has_value());
    ASSERT_EQ(rec->level_used, level);
    ASSERT_EQ(rec->chain.size(), chain.files().size());
    constexpr std::uint64_t kSlack = 16 * 1024;
    EXPECT_LE(peak, stored + kSlack)
        << "level " << level << ": peak " << peak << " B for " << stored
        << " B stored";

    // A copy shares the payload: copying the full record allocates no
    // block of its size.
    const ckpt::CheckpointFile& full = rec->chain.front();
    const testing::HeapStats before = testing::heap_stats();
    const ckpt::CheckpointFile copy = full;
    const testing::HeapStats after = testing::heap_stats();
    EXPECT_LT(after.live_bytes - before.live_bytes, full.payload.size() / 64)
        << "level " << level;
    EXPECT_EQ(copy.payload.data(), full.payload.data());
    EXPECT_EQ(copy.serialize(), chain.files().front().serialize());
  }
}

// ---------- rewind-window reclamation ----------

/// Applies one chain prune to the store: the victim's objects are erased
/// at every level and, when the prune re-anchored the successor, the
/// stored successor is rewritten with the new full file.
void apply_prune(MultiLevelStore& store, const ckpt::CheckpointChain& chain) {
  const auto& ev = chain.last_prune();
  ASSERT_TRUE(ev.has_value());
  const ckpt::CheckpointFile* reanchored = nullptr;
  if (ev->reanchored_sequence.has_value()) {
    for (const ckpt::CheckpointFile& f : chain.files()) {
      if (f.sequence == *ev->reanchored_sequence) {
        reanchored = &f;
        break;
      }
    }
    ASSERT_NE(reanchored, nullptr);
  }
  store.reclaim_checkpoint(ev->victim_sequence, reanchored);
}

TEST(RewindStore, ReclaimBoundsStorageAndKeepsRecoveryRestorable) {
  MultiLevelStore store;
  Rng rng(0x2EC1);
  mem::AddressSpace space;
  space.allocate_range(0, 16);
  ckpt::CheckpointChain::Config cfg;
  cfg.full_period = 0;  // every prune of a delta successor must re-anchor
  cfg.rewind_budget = 4;
  ckpt::CheckpointChain chain(cfg);
  for (int i = 0; i < 15; ++i) {
    chain.capture(space, {}, double(i + 1));
    store.put_checkpoint(chain.files().back());
    if (i >= int(cfg.rewind_budget)) apply_prune(store, chain);
    space.protect_all();
    Bytes edit(64);
    for (auto& x : edit) x = std::uint8_t(rng());
    space.write(rng.uniform_u64(16), rng.uniform_u64(kPageSize - 64), edit);

    // Storage is bounded: each level holds exactly the window's live set.
    std::size_t local_objects = 0;
    for (std::uint64_t s : chain.rewind().live_sequences()) {
      local_objects += store.local().get("ckpt-" + std::to_string(s))
                           .has_value();
    }
    ASSERT_EQ(local_objects, chain.rewind().size());

    auto rec = store.recover();
    ASSERT_TRUE(rec.has_value());
    ASSERT_EQ(rec->chain.front().kind, ckpt::CheckpointKind::kFull);
    ASSERT_TRUE(chain.last_state().equals_space(
        restore_from(*rec).materialize()));
  }
  EXPECT_GT(chain.rewind().discards(), 0u);
}

TEST(RewindStore, ReclaimResubmitsUnfinishedSuccessorDrains) {
  MultiLevelStore store;
  mem::AddressSpace space;
  space.allocate_range(0, 16);
  ckpt::CheckpointChain::Config cfg;
  cfg.full_period = 0;
  cfg.rewind_budget = 4;
  ckpt::CheckpointChain chain(cfg);
  // Queue drains without draining them: when the window first overflows,
  // the successor's L2/L3 transfers still carry the stale delta bytes.
  for (int i = 0; i < 5; ++i) {
    chain.capture(space, {}, double(i + 1));
    store.put_checkpoint_async(chain.files().back());
    space.protect_all();
    space.write(i % 16, 0, Bytes(32, std::uint8_t(i + 1)));
  }
  apply_prune(store, chain);
  store.xfer().run_until_idle();

  // Whatever the drains committed must match the re-anchored chain: the
  // successor's remote object is a parseable FULL checkpoint, and recovery
  // (after losing the local level) restores the newest state.
  const auto& ev = chain.last_prune();
  ASSERT_TRUE(ev->reanchored_sequence.has_value());
  auto remote_bytes =
      store.remote().get("ckpt-" + std::to_string(*ev->reanchored_sequence));
  ASSERT_TRUE(remote_bytes.has_value());
  EXPECT_EQ(ckpt::CheckpointFile::parse(*remote_bytes).kind,
            ckpt::CheckpointKind::kFull);
  EXPECT_FALSE(
      store.remote().get("ckpt-" + std::to_string(ev->victim_sequence))
          .has_value());

  Rng rng(7);
  store.apply_failure(2, rng);
  auto rec = store.recover();
  ASSERT_TRUE(rec.has_value());
  ASSERT_GE(rec->level_used, 2);
  EXPECT_TRUE(chain.last_state().equals_space(
      restore_from(*rec).materialize()));
}

TEST(RewindStore, ReclaimingTheNewestCheckpointIsRejected) {
  MultiLevelStore store;
  mem::AddressSpace space;
  space.allocate(0);
  ckpt::CheckpointChain chain;
  chain.capture(space, {}, 1.0);
  store.put_checkpoint(chain.files().back());
  EXPECT_THROW((void)store.reclaim_checkpoint(0), CheckError);
}

}  // namespace
}  // namespace aic::storage
