// Tests for the sharded delta-compression pipeline: the common/ThreadPool
// primitive and its shared call (common::parallel_for), the
// ParallelPageCompressor's determinism invariant (byte-identical payload
// and identical stats vs the serial compressor at every worker count),
// chunk claiming (failing pages, warm buffers), the unchanged-page fast
// path and its record kind across chain restore, and buffer reuse across
// checkpoints.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "storage/async_checkpointer.h"
#include "ckpt/checkpointer.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "delta/page_delta.h"
#include "delta/parallel_page_delta.h"
#include "heap_guard.h"
#include "mem/address_space.h"
#include "mem/snapshot.h"

namespace aic::delta {
namespace {

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (auto& x : b) x = std::uint8_t(rng());
  return b;
}

// ---- ThreadPool and the shared call ----

TEST(ThreadPool, RunsEveryTask) {
  // Every item of a parallel_for runs exactly once, whichever participant
  // claims it.
  std::vector<std::atomic<int>> runs(100);
  common::parallel_for(runs.size(), 4, [&runs](std::size_t i) { ++runs[i]; });
  for (std::size_t i = 0; i < runs.size(); ++i)
    EXPECT_EQ(runs[i].load(), 1) << "item " << i;
}

TEST(ThreadPool, ReusableAcrossBatches) {
  // The first batch grows the shared pool to two threads if it has fewer;
  // later batches of the same size run on the threads it already has.
  std::mutex mutex;
  std::set<std::thread::id> ids;
  std::atomic<int> count{0};
  std::size_t threads = 0;
  for (int batch = 0; batch < 10; ++batch) {
    common::parallel_for(8, 3, [&](std::size_t) {
      ++count;
      const std::lock_guard<std::mutex> lock(mutex);
      ids.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(count.load(), (batch + 1) * 8);
    if (batch == 0) threads = common::pool_threads();
    EXPECT_GE(common::pool_threads(), 2u);
    EXPECT_EQ(common::pool_threads(), threads) << "batch " << batch;
  }
  EXPECT_LE(ids.size(), threads + 1);  // the pool's threads and the caller
}

TEST(ThreadPool, AnItemMayCallParallelFor) {
  // Every outer item runs an inner call on the same pool, whose threads
  // are busy with outer items: each inner caller does what no free thread
  // claims, so every call returns and every item runs exactly once.
  constexpr std::size_t kOuter = 8, kInner = 64;
  std::vector<std::atomic<int>> outer(kOuter), inner(kOuter * kInner);
  common::parallel_for(kOuter, 4, [&](std::size_t o) {
    ++outer[o];
    common::parallel_for(kInner, 4,
                         [&, o](std::size_t i) { ++inner[o * kInner + i]; });
  });
  for (std::size_t o = 0; o < kOuter; ++o) EXPECT_EQ(outer[o].load(), 1);
  for (std::size_t i = 0; i < inner.size(); ++i)
    EXPECT_EQ(inner[i].load(), 1) << "inner item " << i;
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  {
    common::ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) pool.run([&count] { ++count; });
    // Nothing waits for the tasks: destruction must still run them all.
  }
  EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, DefaultWorkersAtLeastOne) {
  EXPECT_GE(common::ThreadPool::default_workers(), 1u);
}

// ---- parallel-vs-serial equivalence ----

/// Builds a previous snapshot plus a messy dirty set: partial edits, full
/// rewrites, identical rewrites (fast-path candidates), and new pages.
struct Evolution {
  mem::AddressSpace space;
  mem::Snapshot prev;
  std::vector<DirtyPage> dirty;

  explicit Evolution(Rng& rng, std::size_t pages = 48) {
    space.allocate_range(0, pages);
    for (mem::PageId id = 0; id < pages; ++id) {
      space.mutate(id, [&](std::span<std::uint8_t> b) {
        for (auto& x : b) x = std::uint8_t(rng());
      });
    }
    prev = mem::Snapshot::capture(space);
    space.protect_all();
    for (int e = 0; e < 60; ++e) {
      mem::PageId id = rng.uniform_u64(pages + 8);
      if (!space.contains(id)) {
        space.allocate(id);  // new page: raw record
        continue;
      }
      switch (rng.uniform_u64(4)) {
        case 0: {  // identical rewrite: dirty but unchanged (fast path)
          Bytes same(space.page_bytes(id).begin(),
                     space.page_bytes(id).end());
          space.write(id, 0, same);
          break;
        }
        case 1:  // full rewrite: delta likely expands to raw
          space.mutate(id, [&](std::span<std::uint8_t> b) {
            for (auto& x : b) x = std::uint8_t(rng());
          });
          break;
        default: {  // partial edit: delta record
          std::size_t len = 1 + rng.uniform_u64(1024);
          std::size_t off = rng.uniform_u64(kPageSize - len);
          space.write(id, off, random_bytes(rng, len));
          break;
        }
      }
    }
    for (auto id : space.dirty_pages())
      dirty.push_back({id, space.page_bytes(id)});
  }
};

TEST(ParallelPageCompressor, ByteIdenticalToSerialAtEveryWorkerCount) {
  Rng rng(21);
  PageAlignedCompressor serial;
  for (int trial = 0; trial < 3; ++trial) {
    Evolution ev(rng);
    DeltaResult want = serial.compress(ev.dirty, ev.prev);
    for (unsigned workers = 1; workers <= 8; ++workers) {
      ParallelPageCompressor pc({.workers = workers, .min_shard_pages = 1});
      DeltaResult got = pc.compress(ev.dirty, ev.prev);
      ASSERT_EQ(got.payload, want.payload)
          << "workers=" << workers << " trial=" << trial;
      EXPECT_EQ(got.stats.input_bytes, want.stats.input_bytes);
      EXPECT_EQ(got.stats.source_bytes, want.stats.source_bytes);
      EXPECT_EQ(got.stats.output_bytes, want.stats.output_bytes);
      EXPECT_EQ(got.stats.work_units, want.stats.work_units);
      EXPECT_EQ(got.stats.copy_ops, want.stats.copy_ops);
      EXPECT_EQ(got.stats.add_ops, want.stats.add_ops);
      EXPECT_EQ(got.pages_total, want.pages_total);
      EXPECT_EQ(got.pages_delta, want.pages_delta);
      EXPECT_EQ(got.pages_raw, want.pages_raw);
      EXPECT_EQ(got.pages_same, want.pages_same);
    }
  }
}

TEST(ParallelPageCompressor, RoundTripsThroughSerialDecompress) {
  Rng rng(22);
  Evolution ev(rng);
  ParallelPageCompressor pc({.workers = 4, .min_shard_pages = 1});
  DeltaResult res = pc.compress(ev.dirty, ev.prev);
  mem::Snapshot restored = pc.serial().decompress(res.payload, ev.prev);
  ASSERT_EQ(restored.page_count(), ev.dirty.size());
  for (const DirtyPage& d : ev.dirty) {
    ASSERT_TRUE(restored.contains(d.id));
    EXPECT_EQ(0, std::memcmp(restored.page_bytes(d.id).data(),
                             d.bytes.data(), kPageSize));
  }
}

TEST(ParallelPageCompressor, CorrectingModeByteIdenticalAndMovesDetected) {
  // Correcting mode adds a shared input to every shard — the MoveIndex
  // over prev — so byte-identity needs it built once before sharding.
  // Exercise it with a workload rich in whole-page moves (cdelta records
  // referencing other pages) straddling shard boundaries.
  Rng rng(23);
  PageAlignedCompressor serial({}, /*correcting=*/true);
  for (int trial = 0; trial < 3; ++trial) {
    const std::size_t pages = 48;
    mem::AddressSpace space;
    space.allocate_range(0, pages);
    for (mem::PageId id = 0; id < pages; ++id) {
      space.mutate(id, [&](std::span<std::uint8_t> b) {
        for (auto& x : b) x = std::uint8_t(rng());
      });
    }
    const mem::Snapshot prev = mem::Snapshot::capture(space);
    space.protect_all();
    // A band of whole-page moves: page id takes page (id - 5)'s old image.
    for (mem::PageId id = 8; id < 24; ++id) {
      Bytes moved(prev.page_bytes(id - 5).begin(),
                  prev.page_bytes(id - 5).end());
      space.write(id, 0, moved);
    }
    // Plus ordinary churn: partial edits and fresh pages.
    for (int e = 0; e < 20; ++e) {
      const mem::PageId id = rng.uniform_u64(pages + 6);
      if (!space.contains(id)) {
        space.allocate(id);
        continue;
      }
      const std::size_t len = 1 + rng.uniform_u64(512);
      space.write(id, rng.uniform_u64(kPageSize - len),
                  random_bytes(rng, len));
    }
    std::vector<DirtyPage> dirty;
    for (auto id : space.dirty_pages())
      dirty.push_back({id, space.page_bytes(id)});

    DeltaResult want = serial.compress(dirty, prev);
    EXPECT_GT(want.pages_moved, 0u) << "trial=" << trial;
    for (unsigned workers = 1; workers <= 8; ++workers) {
      ParallelPageCompressor pc(
          {.correcting = true, .workers = workers, .min_shard_pages = 1});
      ASSERT_TRUE(pc.correcting());
      DeltaResult got = pc.compress(dirty, prev);
      ASSERT_EQ(got.payload, want.payload)
          << "workers=" << workers << " trial=" << trial;
      EXPECT_EQ(got.pages_moved, want.pages_moved);
      EXPECT_EQ(got.pages_delta, want.pages_delta);
      EXPECT_EQ(got.pages_raw, want.pages_raw);
      EXPECT_EQ(got.pages_same, want.pages_same);
      EXPECT_EQ(got.stats.output_bytes, want.stats.output_bytes);
    }
    // The stitched payload must also replay.
    mem::Snapshot restored = serial.decompress(want.payload, prev);
    for (const DirtyPage& d : dirty) {
      ASSERT_TRUE(restored.contains(d.id));
      EXPECT_EQ(0, std::memcmp(restored.page_bytes(d.id).data(),
                               d.bytes.data(), kPageSize));
    }
  }
}

TEST(ParallelPageCompressor, BufferPoolReusedAcrossCheckpoints) {
  // One long-lived compressor over several evolving checkpoints must keep
  // matching the serial output (shard scratch buffers are cleared, not
  // stale, between calls).
  Rng rng(23);
  PageAlignedCompressor serial;
  ParallelPageCompressor pc({.workers = 3, .min_shard_pages = 1});
  for (int ckpt = 0; ckpt < 5; ++ckpt) {
    Evolution ev(rng, 16 + 8 * std::size_t(ckpt));
    DeltaResult want = serial.compress(ev.dirty, ev.prev);
    DeltaResult got = pc.compress(ev.dirty, ev.prev);
    ASSERT_EQ(got.payload, want.payload) << "checkpoint " << ckpt;
  }
}

TEST(ParallelPageCompressor, SmallDirtySetEncodesInline) {
  // Below workers * min_shard_pages the pipeline must not shard (and must
  // still be byte-identical — trivially, it IS the serial path).
  Rng rng(24);
  Evolution ev(rng, 4);
  ParallelPageCompressor pc({.workers = 8, .min_shard_pages = 64});
  PageAlignedCompressor serial;
  EXPECT_EQ(pc.compress(ev.dirty, ev.prev).payload,
            serial.compress(ev.dirty, ev.prev).payload);
}

TEST(ParallelPageCompressor, EmptyDirtySet) {
  ParallelPageCompressor pc({.workers = 4, .min_shard_pages = 1});
  mem::Snapshot prev;
  DeltaResult res = pc.compress({}, prev);
  EXPECT_EQ(res.pages_total, 0u);
  mem::Snapshot restored = pc.serial().decompress(res.payload, prev);
  EXPECT_EQ(restored.page_count(), 0u);
}

// ---- chunk claiming ----

/// Exactly `n` dirty pages over a previous checkpoint, cycling through
/// unchanged, lightly edited, dense-random (raw fall-back) and new pages,
/// so every chunk of four holds each kind once.
struct SizedDirtySet {
  mem::Snapshot prev;
  std::vector<Bytes> images;
  std::vector<DirtyPage> dirty;

  SizedDirtySet(Rng& rng, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      const Bytes old = random_bytes(rng, kPageSize);
      Bytes now = old;
      if (i % 4 == 1) {
        const std::size_t len = 1 + rng.uniform_u64(512);
        const std::size_t off = rng.uniform_u64(kPageSize - len);
        for (std::size_t k = 0; k < len; ++k)
          now[off + k] = std::uint8_t(rng());
      } else if (i % 4 == 2) {
        now = random_bytes(rng, kPageSize);
      }
      if (i % 4 != 3) prev.put_page(i, old);
      images.push_back(std::move(now));
    }
    for (std::size_t i = 0; i < n; ++i) dirty.push_back({i, images[i]});
  }
};

void expect_identical(const DeltaResult& got, const DeltaResult& want) {
  ASSERT_EQ(got.payload, want.payload);
  EXPECT_EQ(got.stats.input_bytes, want.stats.input_bytes);
  EXPECT_EQ(got.stats.source_bytes, want.stats.source_bytes);
  EXPECT_EQ(got.stats.output_bytes, want.stats.output_bytes);
  EXPECT_EQ(got.stats.work_units, want.stats.work_units);
  EXPECT_EQ(got.stats.copy_ops, want.stats.copy_ops);
  EXPECT_EQ(got.stats.add_ops, want.stats.add_ops);
  EXPECT_EQ(got.pages_total, want.pages_total);
  EXPECT_EQ(got.pages_delta, want.pages_delta);
  EXPECT_EQ(got.pages_raw, want.pages_raw);
  EXPECT_EQ(got.pages_same, want.pages_same);
}

TEST(ParallelPageCompressor, ChunkClaimingByteIdenticalAtEveryWorkerCount) {
  // One page, fewer pages than a chunk, a chunk and a page, and sets that
  // end in a partial chunk.
  Rng rng(40);
  const PageAlignedCompressor serial;
  for (const std::size_t n : {1, 3, 5, 33, 97}) {
    const SizedDirtySet set(rng, n);
    const DeltaResult want = serial.compress(set.dirty, set.prev);
    for (unsigned workers = 1; workers <= 8; ++workers) {
      ParallelPageCompressor pc({.workers = workers, .min_shard_pages = 1});
      for (int call = 0; call < 2; ++call) {  // cold, then warm buffers
        SCOPED_TRACE(::testing::Message() << "pages=" << n << " workers="
                                          << workers << " call=" << call);
        expect_identical(pc.compress(set.dirty, set.prev), want);
      }
    }
  }
}

TEST(ParallelPageCompressor, BadPageThrowsAndNextCompressIsSerial) {
  // A page whose span is not 4 KiB fails encode_page's check. Put it in
  // the first chunk, the last chunk, or both: compress() throws
  // CheckError, and the next call on the same instance starts from clean
  // buffers.
  Rng rng(41);
  const PageAlignedCompressor serial;
  const SizedDirtySet set(rng, 33);  // chunks 0..8, the last of one page
  const DeltaResult want = serial.compress(set.dirty, set.prev);
  const Bytes short_page(kPageSize - 1, 0);
  const std::vector<std::vector<std::size_t>> bad_sets = {{1}, {32}, {1, 32}};
  for (const std::vector<std::size_t>& bad : bad_sets) {
    for (const unsigned workers : {2u, 4u}) {
      SCOPED_TRACE(::testing::Message() << "first bad=" << bad.front()
                                        << " workers=" << workers);
      std::vector<DirtyPage> dirty = set.dirty;
      for (const std::size_t i : bad) dirty[i].bytes = short_page;
      ParallelPageCompressor pc({.workers = workers, .min_shard_pages = 1});
      EXPECT_THROW((void)pc.compress(dirty, set.prev), CheckError);
      expect_identical(pc.compress(set.dirty, set.prev), want);
    }
  }
}

TEST(ParallelPageCompressor, WarmCompressAllocatesNoChunkBuffer) {
  // Chunk buffers are sized once and kept: a warm call allocates the
  // result payload, the shared call's state, and three vectors for each
  // pool thread that encodes its first page now, against one allocation
  // per chunk (25 here) if buffers were not kept.
  Rng rng(42);
  const SizedDirtySet set(rng, 97);
  const unsigned workers = 4;
  ParallelPageCompressor pc({.workers = workers, .min_shard_pages = 1});
  for (int warm = 0; warm < 3; ++warm) (void)pc.compress(set.dirty, set.prev);
  const std::uint64_t before = aic::testing::heap_stats().allocations;
  const DeltaResult res = pc.compress(set.dirty, set.prev);
  const std::uint64_t allocations =
      aic::testing::heap_stats().allocations - before;
  EXPECT_LE(allocations, 2 + 3 * (workers - 1));
  EXPECT_EQ(res.pages_total, 97u);
}

// ---- unchanged-page fast path ----

TEST(UnchangedFastPath, IdenticalPageEmitsZeroCostRecord) {
  Rng rng(25);
  mem::AddressSpace space;
  space.allocate_range(0, 2);
  for (mem::PageId id = 0; id < 2; ++id) {
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  mem::Snapshot prev = mem::Snapshot::capture(space);
  space.protect_all();
  // Rewrite page 0 with its own bytes: dirty, but bit-identical.
  Bytes same(space.page_bytes(0).begin(), space.page_bytes(0).end());
  space.write(0, 0, same);

  PageAlignedCompressor pa;
  std::vector<DirtyPage> dirty{{0, space.page_bytes(0)}};
  DeltaResult res = pa.compress(dirty, prev);
  EXPECT_EQ(res.pages_same, 1u);
  EXPECT_EQ(res.pages_delta, 0u);
  EXPECT_EQ(res.pages_raw, 0u);
  // Record is count + id + kind: a handful of bytes, no codec output.
  EXPECT_LE(res.payload.size(), 12u);
  // Charged as one page of compare work, far below a codec pass.
  EXPECT_EQ(res.stats.work_units, kPageSize);

  mem::Snapshot restored = pa.decompress(res.payload, prev);
  ASSERT_TRUE(restored.contains(0));
  EXPECT_EQ(0, std::memcmp(restored.page_bytes(0).data(),
                           space.page_bytes(0).data(), kPageSize));
}

TEST(UnchangedFastPath, MissingPrevPageRejectedOnDecode) {
  Rng rng(26);
  mem::AddressSpace space;
  space.allocate(5);
  space.mutate(5, [&](std::span<std::uint8_t> b) {
    for (auto& x : b) x = std::uint8_t(rng());
  });
  mem::Snapshot prev = mem::Snapshot::capture(space);
  PageAlignedCompressor pa;
  std::vector<DirtyPage> dirty{{5, space.page_bytes(5)}};
  DeltaResult res = pa.compress(dirty, prev);
  ASSERT_EQ(res.pages_same, 1u);
  mem::Snapshot empty;
  EXPECT_THROW((void)pa.decompress(res.payload, empty), CheckError);
}

TEST(UnchangedFastPath, RoundTripsAcrossChainRestore) {
  // Full checkpoint, then an incremental whose dirty set mixes unchanged
  // pages (fast-path records) with real edits; the chain restore must
  // reproduce the exact submit-time state through the new record kind.
  Rng rng(27);
  mem::AddressSpace space;
  space.allocate_range(0, 12);
  for (mem::PageId id = 0; id < 12; ++id) {
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  ckpt::CheckpointChain chain;
  chain.capture(space, {}, 0.0);
  space.protect_all();

  // Pages 0..3 rewritten identical; pages 4,5 genuinely edited.
  for (mem::PageId id = 0; id < 4; ++id) {
    Bytes same(space.page_bytes(id).begin(), space.page_bytes(id).end());
    space.write(id, 0, same);
  }
  space.write(4, 77, random_bytes(rng, 64));
  space.write(5, 900, random_bytes(rng, 256));

  ckpt::CaptureStats st = chain.capture(space, {}, 1.0);
  EXPECT_EQ(st.pages_same, 4u);
  EXPECT_GE(st.pages_delta, 2u);

  auto restored = chain.restore();
  EXPECT_TRUE(mem::Snapshot::capture(space).equals_space(
      restored.memory.materialize()));
}

TEST(UnchangedFastPath, RoundTripsThroughAsyncCheckpointer) {
  Rng rng(28);
  mem::AddressSpace space;
  space.allocate_range(0, 16);
  for (mem::PageId id = 0; id < 16; ++id) {
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  storage::AsyncCheckpointer::Config cfg;
  cfg.chain.compress_workers = 4;
  storage::AsyncCheckpointer async(std::move(cfg));
  async.submit(space, {}, 0.0);

  // Interval 1: one identical rewrite + one real edit.
  Bytes same(space.page_bytes(9).begin(), space.page_bytes(9).end());
  space.write(9, 0, same);
  space.write(2, 500, random_bytes(rng, 128));
  const mem::Snapshot at_submit = mem::Snapshot::capture(space);
  async.submit(space, {}, 1.0);

  auto restored = async.restore();
  EXPECT_TRUE(at_submit.equals_space(restored.memory.materialize()));
}

// ---- chain-level determinism across worker counts ----

TEST(CheckpointChain, ParallelWorkersProduceIdenticalFiles) {
  const auto run = [](unsigned workers) {
    Rng rng(29);  // same seed: same mutation script per run
    mem::AddressSpace space;
    space.allocate_range(0, 40);
    for (mem::PageId id = 0; id < 40; ++id) {
      space.mutate(id, [&](std::span<std::uint8_t> b) {
        for (auto& x : b) x = std::uint8_t(rng());
      });
    }
    ckpt::CheckpointChain::Config cfg;
    cfg.full_period = 3;
    cfg.compress_workers = workers;
    ckpt::CheckpointChain chain(cfg);
    for (int i = 0; i < 8; ++i) {
      chain.capture(space, {}, double(i));
      space.protect_all();
      for (int e = 0; e < 12; ++e) {
        mem::PageId id = rng.uniform_u64(40);
        space.write(id, rng.uniform_u64(kPageSize - 64),
                    random_bytes(rng, 64));
      }
    }
    return chain;
  };

  ckpt::CheckpointChain serial = run(1);
  ckpt::CheckpointChain parallel = run(4);
  ASSERT_EQ(serial.files().size(), parallel.files().size());
  for (std::size_t i = 0; i < serial.files().size(); ++i) {
    EXPECT_EQ(serial.files()[i].payload, parallel.files()[i].payload)
        << "file " << i;
    EXPECT_EQ(serial.files()[i].kind, parallel.files()[i].kind);
  }
}

}  // namespace
}  // namespace aic::delta
