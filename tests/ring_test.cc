// Tests of the last-N ring under src/common (common/ring.h): its contents,
// size, push count and newest item against a std::deque kept to the same
// capacity after every push, for numbers and for strings, and one heap
// allocation, at construction, for a ring of doubles however far past its
// capacity it is pushed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/ring.h"
#include "common/rng.h"
#include "heap_guard.h"

namespace aic::common {
namespace {

constexpr std::size_t kCapacities[] = {1, 2, 3, 64};

/// The ring holds what the reference deque holds, in the same order.
template <class T>
void expect_agrees(const Ring<T>& ring, const std::deque<T>& ref,
                   std::uint64_t pushes) {
  ASSERT_EQ(ring.size(), ref.size());
  EXPECT_EQ(ring.empty(), ref.empty());
  EXPECT_EQ(ring.pushed(), pushes);
  if (!ref.empty()) {
    EXPECT_EQ(ring.newest(), ref.back());
  }
  const std::vector<T> items = ring.items();
  EXPECT_TRUE(std::equal(items.begin(), items.end(), ref.begin(), ref.end()));
  std::vector<T> visited;
  ring.for_each([&](const T& item) { visited.push_back(item); });
  EXPECT_EQ(visited, items);
}

TEST(Ring, MatchesABoundedDequeAfterEveryPush) {
  for (const std::size_t capacity : kCapacities) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE(::testing::Message()
                   << "capacity " << capacity << ", seed " << seed);
      Rng rng(seed);
      Ring<double> ring(capacity);
      std::deque<double> ref;
      EXPECT_EQ(ring.capacity(), capacity);
      expect_agrees(ring, ref, 0);
      // Past three wraps, plus a run length the capacity does not divide.
      const std::uint64_t pushes = 3 * capacity + rng.uniform_u64(capacity) + 1;
      for (std::uint64_t n = 1; n <= pushes; ++n) {
        const double v = rng.uniform(-1.0, 1.0);
        ring.push(v);
        ref.push_back(v);
        if (ref.size() > capacity) ref.pop_front();
        expect_agrees(ring, ref, n);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(Ring, StringItemsMatchABoundedDeque) {
  for (const std::size_t capacity : kCapacities) {
    SCOPED_TRACE(::testing::Message() << "capacity " << capacity);
    Rng rng(capacity);
    Ring<std::string> ring(capacity);
    std::deque<std::string> ref;
    for (std::uint64_t n = 1; n <= 4 * capacity + 3; ++n) {
      // Lengths on both sides of the short-string buffer, so an overwrite
      // replaces a heap string with an inline one and back.
      std::string s(rng.uniform_u64(48), char('a' + n % 26));
      ref.push_back(s);
      if (ref.size() > capacity) ref.pop_front();
      if (n % 2 == 0) {
        ring.push(std::move(s));
      } else {
        ring.push(s);
      }
      expect_agrees(ring, ref, n);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(Ring, OfDoublesAllocatesOnceAtConstruction) {
  constexpr std::size_t kCapacity = 64;
  const std::uint64_t before = testing::heap_stats().allocations;
  Ring<double> ring(kCapacity);
  EXPECT_EQ(testing::heap_stats().allocations - before, 1u);
  const std::uint64_t built = testing::heap_stats().allocations;
  for (std::size_t i = 0; i < 5 * kCapacity + 7; ++i) ring.push(double(i));
  EXPECT_EQ(testing::heap_stats().allocations, built);
  EXPECT_EQ(ring.size(), kCapacity);
  EXPECT_EQ(ring.newest(), double(5 * kCapacity + 6));
}

}  // namespace
}  // namespace aic::common
