// Tests for storage/: bandwidth accounting, local disk failure semantics,
// RAID-5 striping + parity reconstruction + rebuild, remote store.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"
#include "storage/storage.h"

namespace aic::storage {
namespace {

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (auto& x : b) x = std::uint8_t(rng());
  return b;
}

TEST(TransferSeconds, LinearInSize) {
  EXPECT_DOUBLE_EQ(transfer_seconds(1000, 100.0), 10.0);
  EXPECT_DOUBLE_EQ(transfer_seconds(1000, 100.0, 2.0), 12.0);
  EXPECT_DOUBLE_EQ(transfer_seconds(0, 100.0), 0.0);
}

TEST(TransferSeconds, RejectsNonPositiveBandwidth) {
  EXPECT_THROW((void)transfer_seconds(1000, 0.0), CheckError);
  EXPECT_THROW((void)transfer_seconds(1000, -1.0), CheckError);
  EXPECT_THROW((void)transfer_seconds(0, 0.0), CheckError)
      << "zero bytes does not excuse a zero bandwidth";
}

TEST(TransferSeconds, RejectsNonFiniteParameters) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)transfer_seconds(1000, nan), CheckError);
  EXPECT_THROW((void)transfer_seconds(1000, inf), CheckError);
  EXPECT_THROW((void)transfer_seconds(1000, 100.0, nan), CheckError);
  EXPECT_THROW((void)transfer_seconds(1000, 100.0, inf), CheckError);
  EXPECT_THROW((void)transfer_seconds(1000, 100.0, -0.5), CheckError);
}

TEST(LocalDisk, PutGetEraseAccounting) {
  LocalDisk disk(100.0);
  Rng rng(1);
  Bytes data = random_bytes(rng, 500);
  const double t = disk.put("ckpt0", data);
  EXPECT_DOUBLE_EQ(t, 5.0);
  EXPECT_EQ(disk.stored_bytes(), 500u);
  auto back = disk.get("ckpt0");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
  EXPECT_DOUBLE_EQ(disk.read_seconds("ckpt0"), 5.0);
  EXPECT_TRUE(disk.erase("ckpt0"));
  EXPECT_FALSE(disk.erase("ckpt0"));
  EXPECT_FALSE(disk.get("ckpt0").has_value());
}

TEST(LocalDisk, FailureMakesContentUnavailable) {
  LocalDisk disk(100.0);
  disk.put("a", {1, 2, 3});
  disk.fail();
  EXPECT_FALSE(disk.available());
  EXPECT_FALSE(disk.get("a").has_value());
  EXPECT_THROW((void)disk.put("b", {4}), CheckError);
  disk.replace();
  EXPECT_TRUE(disk.available());
  EXPECT_FALSE(disk.get("a").has_value()) << "replacement disk is empty";
}

class Raid5Fixture : public ::testing::TestWithParam<std::size_t> {
 protected:
  /// Small stripes exercise the layout; 61 is not a multiple of the
  /// parity XOR's 8-byte word, so every unit ends in the XOR's tail.
  static constexpr std::size_t kUnits[] = {64, 61};

  /// Object sizes around each layout boundary for a stripe unit: empty,
  /// partial and whole units, a whole stripe, a partial last stripe, and
  /// many stripes.
  std::vector<std::size_t> sizes(std::size_t unit) const {
    const std::size_t data_units = GetParam() - 1;
    return {0,
            1,
            unit - 1,
            unit,
            unit + 1,
            3 * unit,
            data_units * unit,
            data_units * unit + 7,
            10 * GetParam() * unit};
  }
};

TEST_P(Raid5Fixture, RoundTripAllSizes) {
  Rng rng(2);
  for (std::size_t unit : kUnits) {
    Raid5Group g(GetParam(), 1000.0, unit);
    for (std::size_t size : sizes(unit)) {
      Bytes data = random_bytes(rng, size);
      g.put("obj" + std::to_string(size), data);
      auto back = g.get("obj" + std::to_string(size));
      ASSERT_TRUE(back.has_value()) << "unit " << unit << " size " << size;
      EXPECT_EQ(*back, data) << "unit " << unit << " size " << size;
    }
  }
}

TEST_P(Raid5Fixture, SurvivesAnySingleNodeLoss) {
  Rng rng(3);
  for (std::size_t unit : kUnits) {
    for (std::size_t size : sizes(unit)) {
      Bytes data = random_bytes(rng, size);
      for (std::size_t victim = 0; victim < GetParam(); ++victim) {
        Raid5Group g(GetParam(), 1000.0, unit);
        g.put("x", data);
        g.fail_node(victim);
        EXPECT_TRUE(g.available());
        auto back = g.get("x");
        ASSERT_TRUE(back.has_value())
            << "unit " << unit << " size " << size << " victim " << victim;
        EXPECT_EQ(*back, data)
            << "unit " << unit << " size " << size << " victim " << victim;
      }
    }
  }
}

TEST_P(Raid5Fixture, RebuildRestoresRedundancy) {
  Rng rng(4);
  const std::size_t n = GetParam();
  for (std::size_t unit : kUnits) {
    for (std::size_t size : sizes(unit)) {
      Bytes data = random_bytes(rng, size);
      const std::size_t stripes = (size + (n - 1) * unit - 1) / ((n - 1) * unit);
      for (std::size_t victim = 0; victim < n; ++victim) {
        Raid5Group g(n, 1000.0, unit);
        g.put("x", data);
        g.fail_node(victim);
        EXPECT_EQ(g.rebuild_node(victim), stripes * unit)
            << "unit " << unit << " size " << size << " victim " << victim;
        // Redundancy is back: lose a different node and still read.
        g.fail_node((victim + 1) % n);
        auto back = g.get("x");
        ASSERT_TRUE(back.has_value())
            << "unit " << unit << " size " << size << " victim " << victim;
        EXPECT_EQ(*back, data)
            << "unit " << unit << " size " << size << " victim " << victim;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(GroupSizes, Raid5Fixture,
                         ::testing::Values(3, 4, 5, 8));

TEST(Raid5, TwoNodeLossUnavailable) {
  Raid5Group g(4, 1000.0, 64);
  g.put("x", {1, 2, 3});
  g.fail_node(0);
  g.fail_node(2);
  EXPECT_FALSE(g.available());
  EXPECT_FALSE(g.get("x").has_value());
}

TEST(Raid5, DegradedWriteThenRecoverOtherNode) {
  // Write while node 2 is down: the object has no redundancy for stripes
  // whose parity or data lived there, but reading with only node 2 down
  // must still work (reconstruction path).
  Rng rng(5);
  Bytes data = random_bytes(rng, 777);
  Raid5Group g(4, 1000.0, 64);
  g.fail_node(2);
  g.put("x", data);
  auto back = g.get("x");
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, data);
}

TEST(Raid5, TwoNodeLossGetIsNulloptNeverCrashes) {
  // Exhaustive pairs: any two members down must degrade every read to
  // nullopt (RAID-5 tolerates exactly one loss), never throw or crash.
  Rng rng(7);
  Bytes data = random_bytes(rng, 513);
  for (std::size_t a = 0; a < 4; ++a) {
    for (std::size_t b = a + 1; b < 4; ++b) {
      Raid5Group g(4, 1000.0, 64);
      g.put("x", data);
      g.fail_node(a);
      EXPECT_EQ(*g.get("x"), data) << "one loss must reconstruct";
      g.fail_node(b);
      EXPECT_FALSE(g.available());
      EXPECT_FALSE(g.get("x").has_value());
      EXPECT_FALSE(g.get("missing").has_value());
    }
  }
}

TEST(Raid5, RebuildRejectedWhileAnotherMemberDown) {
  Raid5Group g(4, 1000.0, 64);
  g.put("x", Bytes(300, 9));
  g.fail_node(1);
  g.fail_node(3);
  // Parity reconstruction needs every other member healthy: rebuilding
  // either victim with the other still down must be refused, not silently
  // produce garbage shares.
  EXPECT_THROW((void)g.rebuild_node(1), CheckError);
  EXPECT_THROW((void)g.rebuild_node(3), CheckError);
  EXPECT_TRUE(g.is_node_failed(1));
  EXPECT_TRUE(g.is_node_failed(3));
  EXPECT_THROW((void)g.rebuild_node(0), CheckError)
      << "rebuilding a healthy node is always a bug";
}

TEST(Raid5, StoredBytesConsistentAfterEraseUnderDegradedMode) {
  Rng rng(8);
  Raid5Group g(4, 1000.0, 64);
  g.put("a", random_bytes(rng, 400));
  g.put("b", random_bytes(rng, 700));
  const std::uint64_t healthy_total = g.stored_bytes();
  g.fail_node(2);  // drops node 2's shares of both objects
  const std::uint64_t degraded_total = g.stored_bytes();
  EXPECT_LT(degraded_total, healthy_total);

  // Erasing one object under degraded mode removes exactly its surviving
  // shares; the other object stays readable via reconstruction.
  EXPECT_TRUE(g.erase("a"));
  const std::uint64_t after_erase = g.stored_bytes();
  EXPECT_LT(after_erase, degraded_total);
  EXPECT_FALSE(g.get("a").has_value());
  EXPECT_TRUE(g.get("b").has_value());
  EXPECT_FALSE(g.erase("a")) << "double erase reports absence";
  EXPECT_EQ(g.stored_bytes(), after_erase);

  // Erasing the last object empties the accounting entirely.
  EXPECT_TRUE(g.erase("b"));
  EXPECT_EQ(g.stored_bytes(), 0u);
}

TEST(Raid5, MinimumGroupSizeEnforced) {
  EXPECT_THROW(Raid5Group(2, 100.0), CheckError);
}

TEST(Raid5, WriteTimeCoversParityOverhead) {
  Raid5Group g(5, 1000.0, 100);
  // 400 data bytes = 1 stripe of 4x100 + 100 parity => 500 bytes written.
  const double t = g.put("x", Bytes(400, 7));
  EXPECT_DOUBLE_EQ(t, 0.5);
}

TEST(RemoteStore, PutGet) {
  RemoteStore store(2.0 * kMB);
  Rng rng(6);
  Bytes data = random_bytes(rng, 1 * kMiB);
  const double t = store.put("ckpt", data);
  EXPECT_NEAR(t, double(kMiB) / (2.0 * kMB), 1e-12);
  EXPECT_EQ(*store.get("ckpt"), data);
  EXPECT_TRUE(store.available());
}

TEST(RemoteStore, ReadSecondsMissingThrows) {
  RemoteStore store(1000.0);
  EXPECT_THROW((void)store.read_seconds("nope"), CheckError);
}

}  // namespace
}  // namespace aic::storage
