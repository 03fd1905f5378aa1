// Tests of the two flat stores under src/common: the id index
// (common/id_index.h) against std::unordered_map, and the block slab
// (common/slab.h) for stable addresses, reuse order and one heap
// allocation per block.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/id_index.h"
#include "common/rng.h"
#include "common/slab.h"
#include "heap_guard.h"

namespace aic::common {
namespace {

/// A bucket whose id 0 is valid: a flag, not the id, marks it empty.
struct Slot {
  std::uint64_t id = 0;
  std::uint64_t value = 0;
  bool taken = false;

  bool empty() const { return !taken; }
};

using Index = IdIndex<Slot>;
using Reference = std::unordered_map<std::uint64_t, std::uint64_t>;

constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();

/// The home bucket the index gives `id` at `buckets` buckets.
std::size_t home_of(std::uint64_t id, std::size_t buckets) {
  return std::size_t((id * 0x9E3779B97F4A7C15ull) >>
                     (64 - std::countr_zero(buckets)));
}

void put(Index& index, Reference& ref, std::uint64_t id, std::uint64_t v) {
  Slot& slot = index.insert(id);
  const auto it = ref.find(id);
  ASSERT_EQ(slot.empty(), it == ref.end()) << "id " << id;
  if (slot.empty()) {
    slot = Slot{id, v, true};
    ref.emplace(id, v);
  } else {
    EXPECT_EQ(slot.value, it->second) << "id " << id;
  }
}

void drop(Index& index, Reference& ref, std::uint64_t id) {
  Slot* slot = index.find(id);
  ASSERT_EQ(slot != nullptr, ref.count(id) == 1) << "id " << id;
  if (slot == nullptr) return;
  index.erase(*slot);
  ref.erase(id);
}

void expect_agrees(const Index& index, const Reference& ref,
                   const std::vector<std::uint64_t>& probes) {
  ASSERT_EQ(index.size(), ref.size());
  ASSERT_LE(2 * index.size(), index.buckets()) << "more than half full";
  for (const std::uint64_t id : probes) {
    const Slot* slot = index.find(id);
    const auto it = ref.find(id);
    ASSERT_EQ(slot != nullptr, it != ref.end()) << "id " << id;
    if (slot != nullptr) {
      EXPECT_EQ(slot->id, id);
      EXPECT_EQ(slot->value, it->second) << "id " << id;
    }
  }
}

TEST(IdIndex, MatchesUnorderedMapOverSeededRuns) {
  const std::vector<std::uint64_t> edges = {
      0, 1, 2, (1ull << 63) - 1, 1ull << 63, (1ull << 63) + 1, kMax - 1,
      kMax};
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    // Odd seeds draw dense ids, even ones sparse 64-bit ids; both mix in
    // the edge ids.
    const bool dense = seed % 2 == 1;
    auto draw = [&] {
      if (rng.uniform_u64(8) == 0) return edges[rng.uniform_u64(edges.size())];
      return dense ? rng.uniform_u64(512) : rng();
    };
    Index index;
    Reference ref;
    std::vector<std::uint64_t> seen = edges;
    for (int op = 0; op < 20000; ++op) {
      const std::uint64_t id = draw();
      seen.push_back(id);
      switch (rng.uniform_u64(3)) {
        case 0:
          put(index, ref, id, rng());
          break;
        case 1:
          drop(index, ref, id);
          break;
        default:
          EXPECT_EQ(index.find(id) != nullptr, ref.count(id) == 1);
      }
      if (op % 1000 == 0) expect_agrees(index, ref, seen);
    }
    expect_agrees(index, ref, seen);
  }
}

TEST(IdIndex, ProbeRunsWrapPastTheLastBucket) {
  // Ids whose home is the last of 16 buckets, and one homed at bucket 0.
  std::vector<std::uint64_t> last;
  std::uint64_t first = 0;
  for (std::uint64_t id = 1; last.size() < 3 || first == 0; ++id) {
    const std::size_t home = home_of(id, 16);
    if (home == 15 && last.size() < 3) last.push_back(id);
    if (home == 0 && first == 0) first = id;
  }
  Index index;
  index.reserve(4);
  ASSERT_EQ(index.buckets(), 16u);
  Slot* at15 = &index.insert(last[0]);
  *at15 = Slot{last[0], 10, true};
  Slot* wrapped = &index.insert(last[1]);
  *wrapped = Slot{last[1], 11, true};
  EXPECT_LT(wrapped, at15) << "the second id must wrap to bucket 0";
  index.insert(last[2]) = Slot{last[2], 12, true};
  // Bucket 0's own id probes past the two wrapped ids.
  index.insert(first) = Slot{first, 20, true};
  ASSERT_EQ(index.buckets(), 16u);
  // Erasing the run's head shifts the wrapped ids back across the end.
  index.erase(*index.find(last[0]));
  ASSERT_EQ(index.find(last[0]), nullptr);
  EXPECT_EQ(index.find(last[1])->value, 11u);
  EXPECT_EQ(index.find(last[2])->value, 12u);
  EXPECT_EQ(index.find(first)->value, 20u);
  index.erase(*index.find(last[1]));
  EXPECT_EQ(index.find(last[2])->value, 12u);
  EXPECT_EQ(index.find(first)->value, 20u);
  EXPECT_EQ(index.size(), 2u);
}

TEST(IdIndex, EraseHeavyChurnKeepsEveryKeptIdAndNoErasedOne) {
  Rng rng(0x1D);
  Index index;
  Reference ref;
  std::vector<std::uint64_t> erased;
  std::vector<std::uint64_t> live;
  for (int round = 0; round < 40; ++round) {
    for (int i = 0; i < 200; ++i) {
      const std::uint64_t id = round % 2 ? rng() : rng.uniform_u64(4096);
      if (ref.count(id) == 0) live.push_back(id);
      put(index, ref, id, id ^ 0xA5);
    }
    // Erase three in four of the live ids, in random order.
    for (std::size_t i = live.size(); i > 1; --i)
      std::swap(live[rng.uniform_u64(i)], live[i - 1]);
    const std::size_t keep = live.size() / 4;
    while (live.size() > keep) {
      erased.push_back(live.back());
      drop(index, ref, live.back());
      live.pop_back();
    }
  }
  for (const std::uint64_t id : live) {
    const Slot* slot = index.find(id);
    ASSERT_NE(slot, nullptr) << "kept id " << id;
    EXPECT_EQ(slot->value, id ^ 0xA5);
  }
  for (const std::uint64_t id : erased) {
    if (ref.count(id) == 0) {
      EXPECT_EQ(index.find(id), nullptr) << id;
    }
  }
  expect_agrees(index, ref, erased);
}

TEST(IdIndex, GrowsFrom16To65536BucketsAtMostHalfFull) {
  Index index;
  EXPECT_EQ(index.buckets(), 0u);
  EXPECT_EQ(index.find(0), nullptr);
  std::size_t last = 0;
  std::vector<std::size_t> sizes;
  for (std::uint64_t id = 0; id < (1u << 15); ++id) {
    index.insert(id * 7919) = Slot{id * 7919, id, true};
    const std::size_t buckets = index.buckets();
    EXPECT_EQ(buckets,
              std::bit_ceil(std::max<std::size_t>(16, 2 * index.size())));
    if (buckets != last) sizes.push_back(buckets);
    last = buckets;
  }
  ASSERT_EQ(sizes.size(), 13u);
  EXPECT_EQ(sizes.front(), 16u);
  EXPECT_EQ(sizes.back(), std::size_t{1} << 16);
  for (std::uint64_t id = 0; id < (1u << 15); ++id) {
    ASSERT_NE(index.find(id * 7919), nullptr);
    EXPECT_EQ(index.find(id * 7919)->value, id);
  }
  // reserve never shrinks.
  index.reserve(10);
  EXPECT_EQ(index.buckets(), std::size_t{1} << 16);
}

/// A slab object with a tag and some bulk.
struct Object {
  std::uint64_t tag = 0;
  std::uint8_t bulk[120];
};

TEST(Slab, AnObjectKeepsItsAddressAcrossOtherAcquiresAndReleases) {
  Slab<Object, 8> slab;
  Rng rng(0x51AB);
  std::vector<std::pair<Object*, std::uint64_t>> held;
  for (int step = 0; step < 4000; ++step) {
    if (held.empty() || rng.uniform_u64(3) != 0) {
      Object* o = slab.acquire();
      o->tag = rng();
      held.emplace_back(o, o->tag);
    } else {
      const std::size_t at = rng.uniform_u64(held.size());
      slab.release(held[at].first);
      held[at] = held.back();
      held.pop_back();
    }
    if (step % 500 == 0) {
      for (const auto& [o, tag] : held) ASSERT_EQ(o->tag, tag);
    }
  }
  for (const auto& [o, tag] : held) EXPECT_EQ(o->tag, tag);
  // No object is handed out twice.
  std::vector<Object*> addresses;
  for (const auto& [o, tag] : held) addresses.push_back(o);
  std::sort(addresses.begin(), addresses.end());
  EXPECT_EQ(std::adjacent_find(addresses.begin(), addresses.end()),
            addresses.end());
}

TEST(Slab, AReleasedObjectComesBackBeforeANewBlock) {
  Slab<Object, 4> slab;
  std::vector<Object*> block;
  for (int i = 0; i < 4; ++i) block.push_back(slab.acquire());
  EXPECT_EQ(slab.capacity(), 4u);
  slab.release(block[1]);
  slab.release(block[3]);
  // Last released first, and no new block while one is free.
  EXPECT_EQ(slab.acquire(), block[3]);
  EXPECT_EQ(slab.acquire(), block[1]);
  EXPECT_EQ(slab.capacity(), 4u);
  Object* fresh = slab.acquire();
  EXPECT_EQ(slab.capacity(), 8u);
  // A release in a half-used block is handed out before the block's rest.
  Object* next = slab.acquire();
  EXPECT_EQ(next, fresh + 1);
  slab.release(block[0]);
  EXPECT_EQ(slab.acquire(), block[0]);
  EXPECT_EQ(slab.acquire(), fresh + 2);
  // for_each visits every object of every block, handed out or not.
  std::size_t visited = 0;
  slab.for_each([&visited](const Object&) { ++visited; });
  EXPECT_EQ(visited, slab.capacity());
}

TEST(Slab, EachBlockIsOneHeapAllocation) {
  constexpr std::size_t kPerBlock = 8;
  constexpr std::size_t kObjects = 8 * kPerBlock;
  Slab<Object, kPerBlock> slab;
  slab.reserve(kObjects);  // the block list itself, up front
  std::vector<Object*> held;
  held.reserve(kObjects);
  const std::uint64_t before = testing::heap_stats().allocations;
  for (std::size_t i = 0; i < kObjects; ++i) held.push_back(slab.acquire());
  EXPECT_EQ(testing::heap_stats().allocations - before, kObjects / kPerBlock);
  // Once released, they all come back without a new block.
  for (Object* o : held) slab.release(o);
  const std::uint64_t released = testing::heap_stats().allocations;
  for (std::size_t i = 0; i < kObjects; ++i) slab.acquire();
  EXPECT_EQ(testing::heap_stats().allocations, released);
  EXPECT_EQ(slab.capacity(), kObjects);
}

}  // namespace
}  // namespace aic::common
