// Unit tests for mem/: the simulated address space (write-protection dirty
// tracking, the BLCR/mprotect stand-in) and snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "heap_guard.h"
#include "mem/address_space.h"
#include "mem/snapshot.h"

namespace aic::mem {
namespace {

Bytes make_bytes(std::size_t n, std::uint8_t seed) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) b[i] = std::uint8_t(seed + i);
  return b;
}

TEST(AddressSpace, AllocateStartsZeroedAndDirty) {
  AddressSpace s;
  s.allocate(5);
  EXPECT_TRUE(s.contains(5));
  EXPECT_EQ(s.page_count(), 1u);
  EXPECT_TRUE(s.is_dirty(5));
  for (auto b : s.page_bytes(5)) ASSERT_EQ(b, 0);
}

TEST(AddressSpace, DoubleAllocateThrows) {
  AddressSpace s;
  s.allocate(1);
  EXPECT_THROW(s.allocate(1), CheckError);
  EXPECT_THROW(s.allocate(1, make_bytes(kPageSize, 9)), CheckError);
}

TEST(AddressSpace, AllocateWithBytesHoldsThemAndStartsDirty) {
  AddressSpace s;
  s.protect_all();
  const Bytes image = make_bytes(kPageSize, 3);
  s.allocate(5, image);
  EXPECT_TRUE(std::equal(image.begin(), image.end(),
                         s.page_bytes(5).begin()));
  EXPECT_TRUE(s.is_dirty(5));
  EXPECT_EQ(s.fault_count(), 0u);
  EXPECT_THROW(s.allocate(6, make_bytes(kPageSize - 1, 3)), CheckError);
  EXPECT_FALSE(s.contains(6));
}

TEST(AddressSpace, FreeRemovesPage) {
  AddressSpace s;
  s.allocate(1);
  s.free_page(1);
  EXPECT_FALSE(s.contains(1));
  EXPECT_THROW(s.free_page(1), CheckError);
  EXPECT_THROW((void)s.page_bytes(1), CheckError);
}

TEST(AddressSpace, WriteReadRoundTrip) {
  AddressSpace s;
  s.allocate(3);
  Bytes data = make_bytes(100, 7);
  s.write(3, 50, data);
  auto view = s.page_bytes(3);
  EXPECT_EQ(0, std::memcmp(view.data() + 50, data.data(), data.size()));
  EXPECT_EQ(view[49], 0);
  EXPECT_EQ(view[150], 0);
}

TEST(AddressSpace, WritePastPageEndThrows) {
  AddressSpace s;
  s.allocate(0);
  Bytes data(10);
  EXPECT_THROW(s.write(0, kPageSize - 5, data), CheckError);
}

TEST(AddressSpace, WriteAtAWrappingOffsetThrowsBeforeTouchingThePage) {
  // offset + size wraps to 0 here, so a summed bounds check would pass and
  // the write would land one byte before the frame.
  AddressSpace s;
  s.allocate(0);
  s.protect_all();
  const Bytes one(1, 0xAB);
  EXPECT_THROW(s.write(0, SIZE_MAX, one), CheckError);
  EXPECT_THROW(s.write(0, kPageSize + 1, {}), CheckError);
  EXPECT_FALSE(s.is_dirty(0));
  EXPECT_EQ(s.dirty_page_count(), 0u);
  EXPECT_EQ(s.fault_count(), 0u);
  for (auto b : s.page_bytes(0)) ASSERT_EQ(b, 0);
}

TEST(AddressSpace, ProtectAllClearsDirtyAndArmsFaults) {
  AddressSpace s;
  s.allocate_range(0, 4);
  s.protect_all();
  EXPECT_EQ(s.dirty_page_count(), 0u);

  std::vector<PageId> faults;
  s.set_fault_observer([&](PageId id) { faults.push_back(id); });

  Bytes data = make_bytes(8, 1);
  s.write(2, 0, data);
  s.write(2, 16, data);  // second write: no new fault
  s.write(0, 0, data);

  EXPECT_EQ(s.dirty_pages(), (std::vector<PageId>{0, 2}));
  EXPECT_EQ(faults, (std::vector<PageId>{2, 0}));
  EXPECT_EQ(s.fault_count(), 2u);
}

TEST(AddressSpace, AllocationAfterProtectIsDirtyButNotAFault) {
  AddressSpace s;
  s.allocate(0);
  s.protect_all();
  int faults = 0;
  s.set_fault_observer([&](PageId) { ++faults; });
  s.allocate(9);
  EXPECT_TRUE(s.is_dirty(9));
  // A fresh page was never protected, so no fault fires; it is simply dirty.
  EXPECT_EQ(faults, 0);
}

TEST(AddressSpace, MutateMarksDirty) {
  AddressSpace s;
  s.allocate(4);
  s.protect_all();
  s.mutate(4, [](std::span<std::uint8_t> bytes) { bytes[0] = 0xFF; });
  EXPECT_TRUE(s.is_dirty(4));
  EXPECT_EQ(s.page_bytes(4)[0], 0xFF);
}

TEST(AddressSpace, LivePagesSorted) {
  AddressSpace s;
  for (PageId id : {9, 2, 5, 1}) s.allocate(id);
  EXPECT_EQ(s.live_pages(), (std::vector<PageId>{1, 2, 5, 9}));
  EXPECT_EQ(s.footprint_bytes(), 4 * kPageSize);
}

TEST(AddressSpace, EpochProtectionAcrossCycles) {
  // Each protect_all() re-arms every live page: per cycle, only the first
  // write to a page faults, in write order, and a page born mid-cycle is
  // dirty without faulting until the next cycle arms it.
  AddressSpace s;
  s.allocate_range(0, 6);
  std::vector<PageId> faults;
  s.set_fault_observer([&](PageId id) { faults.push_back(id); });
  const Bytes data = make_bytes(8, 1);
  const std::vector<std::vector<PageId>> writes = {
      {4, 1, 4, 0, 1}, {1, 5, 5, 2}, {}, {3, 0, 3, 6, 0}};
  const std::vector<std::vector<PageId>> expect_faults = {
      {4, 1, 0}, {1, 5, 2}, {}, {3, 0, 6}};
  const std::vector<std::vector<PageId>> expect_dirty = {
      {0, 1, 4}, {1, 2, 5, 6}, {}, {0, 3, 6}};
  std::uint64_t total = 0;
  for (std::size_t cycle = 0; cycle < writes.size(); ++cycle) {
    s.protect_all();
    EXPECT_EQ(s.dirty_page_count(), 0u);
    faults.clear();
    for (PageId id : writes[cycle]) s.write(id, 0, data);
    if (cycle == 1) s.allocate(6);  // dirty, no fault
    EXPECT_EQ(faults, expect_faults[cycle]) << "cycle " << cycle;
    EXPECT_EQ(s.dirty_pages(), expect_dirty[cycle]) << "cycle " << cycle;
    total += expect_faults[cycle].size();
    EXPECT_EQ(s.fault_count(), total);
    for (PageId id = 0; id <= 6; ++id) {
      const bool dirty = std::ranges::count(expect_dirty[cycle], id) > 0;
      EXPECT_EQ(s.is_dirty(id), dirty) << "cycle " << cycle << " page " << id;
    }
  }
}

TEST(AddressSpace, FreeAndReallocateWithinOneEpoch) {
  AddressSpace s;
  s.allocate_range(0, 4);
  s.protect_all();
  int faults = 0;
  s.set_fault_observer([&](PageId) { ++faults; });
  const Bytes data = make_bytes(8, 5);
  for (PageId id : {1, 3, 2}) s.write(id, 0, data);
  ASSERT_EQ(faults, 3);

  // Freeing a dirty page that is not the newest dirty one: it leaves the
  // dirty set and the others stay.
  s.free_page(1);
  EXPECT_FALSE(s.is_dirty(1));
  EXPECT_EQ(s.dirty_pages(), (std::vector<PageId>{2, 3}));
  EXPECT_EQ(s.dirty_page_count(), 2u);
  // A clean page freed leaves the dirty set alone.
  s.free_page(0);
  EXPECT_EQ(s.dirty_pages(), (std::vector<PageId>{2, 3}));

  // The same ids again in the same epoch: fresh zeroed pages, dirty once
  // each, and never a fault, however often they are written.
  s.allocate(1);
  s.allocate(0);
  s.write(1, 0, data);
  s.write(0, 0, data);
  EXPECT_EQ(faults, 3);
  EXPECT_EQ(s.fault_count(), 3u);
  EXPECT_EQ(s.dirty_pages(), (std::vector<PageId>{0, 1, 2, 3}));
  EXPECT_EQ(s.dirty_page_count(), 4u);
  EXPECT_EQ(s.page_bytes(1)[8], 0);
  EXPECT_EQ(s.live_pages(), (std::vector<PageId>{0, 1, 2, 3}));

  // The next epoch arms them like any other page.
  s.protect_all();
  s.write(1, 0, data);
  EXPECT_EQ(faults, 4);
  EXPECT_EQ(s.dirty_pages(), (std::vector<PageId>{1}));
}

TEST(AddressSpace, SparseIdsCostWhatIsLive) {
  // Page ids are virtual page numbers: ids near 2^52 must cost what ids
  // near 0 cost, since only live pages take memory.
  constexpr std::size_t kPages = 40;
  const auto bytes_for = [&](auto id_of) {
    const std::uint64_t before = aic::testing::heap_stats().live_bytes;
    AddressSpace s;
    for (std::size_t k = 0; k < kPages; ++k) s.allocate(id_of(k));
    const std::uint64_t held = aic::testing::heap_stats().live_bytes - before;
    const Bytes data = make_bytes(16, std::uint8_t(kPages));
    for (std::size_t k = 0; k < kPages; ++k) {
      s.write(id_of(k), kPageSize - 16, data);
      EXPECT_EQ(s.page_bytes(id_of(k))[kPageSize - 1], data.back());
      EXPECT_EQ(s.page_bytes(id_of(k))[0], 0);
    }
    std::vector<PageId> ids;
    for (std::size_t k = 0; k < kPages; ++k) ids.push_back(id_of(k));
    std::sort(ids.begin(), ids.end());
    EXPECT_EQ(s.live_pages(), ids);
    for (std::size_t k = 0; k < kPages; k += 2) s.free_page(id_of(k));
    EXPECT_EQ(s.page_count(), kPages / 2);
    for (std::size_t k = 0; k < kPages; ++k)
      EXPECT_EQ(s.contains(id_of(k)), k % 2 == 1) << id_of(k);
    return held;
  };
  const std::uint64_t dense =
      bytes_for([](std::size_t k) { return PageId(k); });
  const std::uint64_t sparse = bytes_for([](std::size_t k) {
    return k == 0 ? PageId{1} << 40 : (PageId{1} << 52) + k * 0x10001;
  });
  EXPECT_EQ(sparse, dense);
  EXPECT_LE(dense, kPages * (kPageSize + 256));
}

TEST(Snapshot, CaptureEqualsSpace) {
  AddressSpace s;
  Rng rng(1);
  s.allocate_range(0, 8);
  for (PageId id = 0; id < 8; ++id) {
    s.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  Snapshot snap = Snapshot::capture(s);
  EXPECT_TRUE(snap.equals_space(s));
  EXPECT_EQ(snap.page_count(), 8u);
}

TEST(Snapshot, IndependentOfLaterMutation) {
  AddressSpace s;
  s.allocate(0);
  s.write(0, 0, make_bytes(4, 1));
  Snapshot snap = Snapshot::capture(s);
  s.write(0, 0, make_bytes(4, 99));
  EXPECT_EQ(snap.page_bytes(0)[0], 1);
  EXPECT_FALSE(snap.equals_space(s));
}

TEST(Snapshot, CapturePagesSubset) {
  AddressSpace s;
  s.allocate_range(0, 4);
  Snapshot snap = Snapshot::capture_pages(s, {1, 3});
  EXPECT_TRUE(snap.contains(1));
  EXPECT_TRUE(snap.contains(3));
  EXPECT_FALSE(snap.contains(0));
  EXPECT_THROW((void)snap.page_bytes(0), CheckError);
}

TEST(Snapshot, OverlayLaterWins) {
  AddressSpace s;
  s.allocate_range(0, 2);
  s.write(0, 0, make_bytes(4, 1));
  s.write(1, 0, make_bytes(4, 2));
  Snapshot base = Snapshot::capture(s);

  s.write(1, 0, make_bytes(4, 50));
  Snapshot inc = Snapshot::capture_pages(s, {1});
  inc.overlay_onto(base);

  EXPECT_EQ(base.page_bytes(0)[0], 1);
  EXPECT_EQ(base.page_bytes(1)[0], 50);
}

TEST(Snapshot, MaterializeRoundTrip) {
  AddressSpace s;
  Rng rng(2);
  for (PageId id : {3, 7, 11}) {
    s.allocate(id);
    s.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  Snapshot snap = Snapshot::capture(s);
  AddressSpace rebuilt = snap.materialize();
  EXPECT_TRUE(snap.equals_space(rebuilt));
  EXPECT_EQ(rebuilt.live_pages(), s.live_pages());
  // Every restored page is new to the space, so each enters the next
  // checkpoint, and none of them faulted on the way in.
  EXPECT_EQ(rebuilt.dirty_pages(), s.live_pages());
  EXPECT_EQ(rebuilt.fault_count(), 0u);
}

TEST(Snapshot, ViewsSurviveInsertsAndErasesOfOtherIds) {
  AddressSpace s;
  for (PageId id : {100, 200}) {
    s.allocate(id);
    s.write(id, 0, make_bytes(kPageSize, std::uint8_t(id)));
  }
  Snapshot snap = Snapshot::capture(s);
  const ByteSpan low = snap.page_bytes(100);
  const std::span<std::uint8_t> high = snap.find_page(200);
  const Bytes low_bytes(low.begin(), low.end());
  const Bytes high_bytes(high.begin(), high.end());
  // Ids below, between and above the viewed ones, enough of them to move
  // the id list several times, then erases around the viewed ids.
  for (PageId k = 0; k < 300; ++k) {
    const PageId id = k % 3 == 0 ? k / 3 : k % 3 == 1 ? 101 + k : 1000 + k;
    snap.put_page(id, make_bytes(kPageSize, std::uint8_t(k)));
  }
  for (PageId id : {0, 99, 150, 201, 1001}) snap.erase_page(id);
  snap.put_page(5000, make_bytes(kPageSize, 7));
  EXPECT_TRUE(std::equal(low.begin(), low.end(), low_bytes.begin()));
  EXPECT_TRUE(std::equal(high.begin(), high.end(), high_bytes.begin()));
  EXPECT_EQ(snap.page_bytes(100).data(), low.data());
  EXPECT_EQ(snap.page_bytes(200).data(), high.data());
}

// Property: random put/erase/overlay sequences leave a Snapshot with the
// ids and bytes of a std::map reference, ids ascending.
TEST(Snapshot, PropertyMatchesOrderedMapReference) {
  using Reference = std::map<PageId, Bytes>;
  const auto expect_same = [](const Snapshot& snap, const Reference& ref) {
    std::vector<PageId> ids;
    for (const auto& [id, bytes] : ref) {
      ids.push_back(id);
      ASSERT_TRUE(snap.contains(id)) << id;
      const ByteSpan got = snap.page_bytes(id);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), bytes.begin())) << id;
    }
    ASSERT_EQ(snap.page_ids(), ids);
    ASSERT_EQ(snap.page_count(), ref.size());
  };
  Rng rng(0x5A9);
  for (int trial = 0; trial < 20; ++trial) {
    // Small universes collide often; a sparse one spreads ids up to 2^52.
    const bool sparse = trial % 4 == 3;
    const auto random_id = [&] {
      const PageId k = rng.uniform_u64(48);
      return sparse ? (PageId{1} << 52) + k * 0x9E37 : k;
    };
    const auto random_page = [&] {
      return make_bytes(kPageSize, std::uint8_t(rng()));
    };
    Snapshot snap;
    Reference ref;
    for (int op = 0; op < 300; ++op) {
      const std::uint64_t what = rng.uniform_u64(10);
      if (what < 6) {
        const PageId id = random_id();
        const Bytes page = random_page();
        snap.put_page(id, page);
        ref[id] = page;
      } else if (what < 9) {
        const PageId id = random_id();
        snap.erase_page(id);
        ref.erase(id);
      } else {
        Snapshot inc;
        const std::uint64_t n = rng.uniform_u64(12);
        for (std::uint64_t i = 0; i < n; ++i) {
          const PageId id = random_id();
          const Bytes page = random_page();
          inc.put_page(id, page);
          ref[id] = page;
        }
        inc.overlay_onto(snap);
      }
      ASSERT_NO_FATAL_FAILURE(expect_same(snap, ref))
          << "trial " << trial << " op " << op;
    }
    const AddressSpace space = snap.materialize();
    EXPECT_TRUE(snap.equals_space(space));
    EXPECT_EQ(space.live_pages(), snap.page_ids());
  }
}

TEST(Snapshot, ParallelConstLookupsAgree) {
  // The parallel compressor's shards read one `prev` snapshot from several
  // threads at once, so const lookups must only read (the TSan leg runs
  // this test).
  AddressSpace s;
  Rng rng(0x5AB);
  for (PageId k = 0; k < 256; ++k) {
    const PageId id = k * 7 + (k % 3 == 0 ? PageId{1} << 40 : 0);
    s.allocate(id);
    s.write(id, 0, make_bytes(64, std::uint8_t(rng())));
  }
  const Snapshot snap = Snapshot::capture(s);
  const auto digest = [&snap] {
    std::uint64_t h = 0;
    for (PageId id : snap.page_ids()) {
      h = h * 31 + (snap.contains(id) ? 1 : 0) +
          (snap.contains(id + 1) ? 2 : 0);
      for (std::uint8_t b : snap.page_bytes(id).first(64)) h = h * 31 + b;
    }
    return h;
  };
  const std::uint64_t expected = digest();
  std::vector<std::uint64_t> got(4);
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < got.size(); ++t)
    readers.emplace_back([&, t] { got[t] = digest(); });
  for (std::thread& r : readers) r.join();
  for (std::uint64_t h : got) EXPECT_EQ(h, expected);
}

TEST(Snapshot, CaptureAndMaterializeAllocateOncePerBlock) {
  // A frame block holds kFramesPerBlock pages; besides the blocks, a
  // capture allocates its id list and block list, and a materialize its
  // index, block list, live list and dirty list, each once. Measured in a
  // process of its own (a threadsafe death test re-runs the binary),
  // where the shared pool has not started: once any parallel compress,
  // restore or fleet shard pass has started it, a large materialize
  // copies on it and also allocates its frame list and the call's state.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_EXIT(
      {
        bool ok = common::pool_threads() == 0;
        if (!ok) std::fprintf(stderr, "the shared pool is running\n");
        for (const std::size_t n : {std::size_t{64}, std::size_t{2048}}) {
          AddressSpace s;
          s.allocate_range(0, n);
          const std::vector<PageId> ids = s.live_pages();
          const std::size_t blocks = n / kFramesPerBlock;

          std::uint64_t before = aic::testing::heap_stats().allocations;
          const Snapshot snap = Snapshot::capture_pages(s, ids);
          const std::uint64_t captured =
              aic::testing::heap_stats().allocations - before;

          before = aic::testing::heap_stats().allocations;
          const AddressSpace rebuilt = snap.materialize();
          const std::uint64_t materialized =
              aic::testing::heap_stats().allocations - before;
          const bool equal = snap.equals_space(rebuilt);
          if (captured > blocks + 2 || materialized > blocks + 4 || !equal) {
            std::fprintf(stderr,
                         "%zu pages: capture %llu (at most %zu), "
                         "materialize %llu (at most %zu), equal %d\n",
                         n, static_cast<unsigned long long>(captured),
                         blocks + 2,
                         static_cast<unsigned long long>(materialized),
                         blocks + 4, int(equal));
            ok = false;
          }
        }
        std::fflush(stderr);
        std::_Exit(ok ? 0 : 1);
      },
      ::testing::ExitedWithCode(0), "");
}

TEST(AddressSpace, SteadyHaltCycleAllocatesNothingPerPage) {
  // The blocking halt of a checkpoint: protect_all, the interval's writes,
  // dirty_pages + live_pages, capture_pages. Once warm, tracking allocates
  // nothing at all and the capture only its frame blocks and two lists.
  for (const std::size_t n : {std::size_t{64}, std::size_t{2048}}) {
    AddressSpace s;
    s.allocate_range(0, n);
    const Bytes data = make_bytes(64, 3);
    for (int cycle = 0; cycle < 3; ++cycle) {
      const std::uint64_t before = aic::testing::heap_stats().allocations;
      s.protect_all();
      for (PageId id = 0; id < n; id += 1 + PageId(cycle))
        s.write(id, 128, data);
      const std::uint64_t tracked = aic::testing::heap_stats().allocations;
      const std::vector<PageId> dirty = s.dirty_pages();
      const std::vector<PageId> live = s.live_pages();
      const Snapshot snap = Snapshot::capture_pages(s, dirty);
      const std::uint64_t after = aic::testing::heap_stats().allocations;
      if (cycle == 0) continue;  // warm-up sizes the dirty list
      EXPECT_EQ(tracked - before, 0u) << n << " pages, cycle " << cycle;
      const std::size_t blocks =
          (dirty.size() + kFramesPerBlock - 1) /
          kFramesPerBlock;
      EXPECT_LE(after - tracked, blocks + 4)
          << n << " pages, cycle " << cycle;
      EXPECT_EQ(snap.page_count(), dirty.size());
      EXPECT_EQ(live.size(), n);
    }
  }
}

TEST(Snapshot, EqualsSpaceDetectsPageCountMismatch) {
  AddressSpace s;
  s.allocate(0);
  Snapshot snap = Snapshot::capture(s);
  s.allocate(1);
  EXPECT_FALSE(snap.equals_space(s));
}

// Property: for a random interleaving of writes/allocations/frees, the dirty
// set after protect_all contains exactly the touched live pages.
TEST(AddressSpace, PropertyDirtySetMatchesTouchedPages) {
  Rng rng(77);
  for (int trial = 0; trial < 10; ++trial) {
    AddressSpace s;
    const PageId universe = 64;
    s.allocate_range(0, universe);
    s.protect_all();
    std::vector<bool> touched(universe, false);
    Bytes data = make_bytes(16, 3);
    for (int op = 0; op < 200; ++op) {
      PageId id = rng.uniform_u64(universe);
      if (!s.contains(id)) continue;
      int what = int(rng.uniform_u64(10));
      if (what == 0) {
        s.free_page(id);
        touched[id] = false;  // freed pages can't stay dirty
      } else {
        s.write(id, rng.uniform_u64(kPageSize - 16), data);
        touched[id] = true;
      }
    }
    std::vector<PageId> expected;
    for (PageId id = 0; id < universe; ++id)
      if (touched[id] && s.contains(id)) expected.push_back(id);
    EXPECT_EQ(s.dirty_pages(), expected);
  }
}

}  // namespace
}  // namespace aic::mem
