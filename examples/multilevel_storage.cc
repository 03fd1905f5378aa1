// Multi-level storage walkthrough: place checkpoints on local disk, a
// RAID-5 partner group, and remote storage; kill things level by level and
// watch recovery come from the cheapest surviving copy — including a RAID
// parity reconstruction and a full reseed after a catastrophic loss.
//
// Act two kills a node *mid-drain*: an L3 transfer is interrupted between
// two chunks, nothing of it is visible to recover(), and the resumed drain
// finishes from the last acked chunk, byte-identical.
//
//   build/examples/example_multilevel_storage
#include <cstdio>

#include "aic/aic.h"

using namespace aic;

namespace {

// A node dies while its checkpoint is still draining to remote storage.
// Demonstrates the transfer-engine guarantees: an object is published
// whole when its last chunk acks and never before, an interrupt keeps the
// acked-byte watermark, and the resumed drain produces the identical
// object.
bool mid_transfer_failure_walkthrough() {
  storage::MultiLevelConfig cfg;
  cfg.remote_bps = 64.0 * 1024;        // slow L3 uplink: the drain lingers
  cfg.xfer.chunk_bytes = 64 * 1024;    // 1 chunk/s on the wire
  storage::MultiLevelStore store(cfg);
  Rng rng(7);

  mem::AddressSpace space;
  space.allocate_range(0, 128);
  for (mem::PageId id = 0; id < 128; ++id) {
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  ckpt::CheckpointChain chain;
  chain.capture(space, {}, 0.0);
  store.put_checkpoint(chain.files().back());  // full: committed everywhere
  space.protect_all();

  // Dirty enough incompressible pages that the incremental spans several
  // chunks — the interrupt must land between two of them.
  for (mem::PageId id = 0; id < 80; ++id) {
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  chain.capture(space, {}, 1.0);
  const Bytes expected = chain.files().back().serialize();

  // Queue the incremental's drains and stop the clock mid-way through the
  // remote transfer: some chunks acked, the rest still to come.
  const auto ticket = store.put_checkpoint_async(chain.files().back());
  store.xfer().run_until(store.xfer().now() +
                         0.5 * double(expected.size()) / cfg.remote_bps);
  const auto& rec = store.xfer().record(*ticket.remote);
  std::printf("mid-drain:      remote acked %llu/%llu bytes; "
              "%zu drain(s) unfinished; visible remote copy: %s\n",
              (unsigned long long)rec.acked_bytes,
              (unsigned long long)rec.total_bytes,
              store.unfinished_drains(),
              store.remote().get("ckpt-1") ? "YES (torn!)" : "none");

  // The node dies. The local disk is lost and the in-flight drain is
  // interrupted at its current chunk — but recover() sees only committed
  // objects, so the restart chain is intact (here from the RAID group,
  // whose faster drain already committed).
  store.apply_failure(2, rng);
  auto rec2 = store.recover();
  std::printf("node death:     drain %s at %llu bytes; recover from L%d "
              "still yields %zu checkpoint(s)\n",
              xfer::to_string(rec.state),
              (unsigned long long)rec.acked_bytes, rec2->level_used,
              rec2->chain.size());

  // The replacement node resumes the partial from the last acked chunk.
  const std::size_t resumed = store.resume_drains();
  store.xfer().run_until_idle();
  const auto remote_copy = store.remote().get("ckpt-1");
  const bool identical = remote_copy && *remote_copy == expected;
  std::printf("resumed:        %zu drain(s) picked up; remote copy %s "
              "(%llu bytes, %llu interrupt(s) total)\n",
              resumed, identical ? "byte-identical" : "CORRUPT",
              (unsigned long long)(remote_copy ? remote_copy->size() : 0),
              (unsigned long long)store.xfer().stats().transfers_interrupted);
  return rec2.has_value() && rec2->chain.size() == 2 && resumed > 0 &&
         identical && store.unfinished_drains() == 0;
}

}  // namespace

int main() {
  storage::MultiLevelStore store;
  Rng rng(2026);

  // A small job writing checkpoints through the store.
  mem::AddressSpace space;
  space.allocate_range(0, 256);
  for (mem::PageId id = 0; id < 256; ++id) {
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  ckpt::CheckpointChain chain;
  chain.capture(space, {}, 0.0);
  auto t0 = store.put_checkpoint(chain.files().back());
  std::printf("full checkpoint placed: local %.3fs, raid %.3fs, remote %.3fs\n",
              t0.local, t0.raid, t0.remote);
  space.protect_all();

  for (int i = 1; i <= 4; ++i) {
    Bytes edit(128);
    for (auto& x : edit) x = std::uint8_t(rng());
    space.write(rng.uniform_u64(256), rng.uniform_u64(kPageSize - 128), edit);
    chain.capture(space, {}, double(i));
    store.put_checkpoint(chain.files().back());
    space.protect_all();
  }
  const mem::Snapshot truth = mem::Snapshot::capture(space);
  delta::PageAlignedCompressor pa;
  auto verify = [&](const storage::MultiLevelStore::Recovery& rec) {
    auto restored = ckpt::RestartEngine::restore(rec.chain, pa);
    return truth.equals_space(restored.memory.materialize());
  };

  auto r1 = store.recover();
  std::printf("healthy:        recover from L%d in %.4fs — %s\n",
              r1->level_used, r1->read_seconds,
              verify(*r1) ? "byte-exact" : "CORRUPT");

  store.apply_failure(2, rng);
  auto r2 = store.recover();
  std::printf("level-2 fail:   recover from L%d in %.4fs — %s "
              "(local disk lost; RAID member rebuilt from parity)\n",
              r2->level_used, r2->read_seconds,
              verify(*r2) ? "byte-exact" : "CORRUPT");

  store.apply_failure(3, rng);
  auto r3 = store.recover();
  std::printf("level-3 fail:   recover from L%d in %.4fs — %s "
              "(two RAID members down: only the remote copy survives)\n",
              r3->level_used, r3->read_seconds,
              verify(*r3) ? "byte-exact" : "CORRUPT");

  store.repair_raid_group();
  const auto copied = store.reseed_from_remote();
  auto r4 = store.recover();
  std::printf("after reseed:   %.1f KiB copied down; recover from L%d — %s\n",
              double(copied) / 1024.0, r4->level_used,
              verify(*r4) ? "byte-exact" : "CORRUPT");

  std::printf("\n-- act two: failure mid-drain, partial drain resumed --\n");
  const bool xfer_ok = mid_transfer_failure_walkthrough();

  return (verify(*r1) && verify(*r2) && verify(*r3) && verify(*r4) &&
          xfer_ok)
             ? 0
             : 1;
}
