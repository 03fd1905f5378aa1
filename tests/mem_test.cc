// Unit tests for mem/: the simulated address space (write-protection dirty
// tracking, the BLCR/mprotect stand-in) and snapshots.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
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
