// Tests for the causal time-to-safe attribution layer (src/obs/causal.*):
// the CausalLog's open/add/close lifecycle, bounded retention (recent ring
// + top-k slowest), the attribution helpers (dominant, unattributed), and
// the end-to-end integration with the TransferScheduler — a drain with
// retries, an interrupt, and a resume must decompose its commit latency
// into drain-queue / in-flight / backoff / stalled segments that explain
// the total. The TSan leg runs every CausalTest.*.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "obs/causal.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "storage/storage.h"
#include "storage/target_sink.h"
#include "xfer/channel.h"
#include "xfer/scheduler.h"

namespace {

using aic::obs::CausalChain;
using aic::obs::CausalLog;
using aic::obs::CausalSegment;

TEST(CausalTest, OpenAddCloseLifecycle) {
  CausalLog log;
  const std::uint64_t id = log.open("j1/c1", 7, 100.0);
  EXPECT_NE(id, 0u);
  EXPECT_EQ(log.open_count(), 1u);

  log.add(id, CausalSegment::kCapture, 0.5);
  log.add(id, CausalSegment::kInFlight, 2.0);
  log.add(id, CausalSegment::kInFlight, 1.0);  // accumulates
  log.close_total(id, 4.0);

  EXPECT_EQ(log.open_count(), 0u);
  EXPECT_EQ(log.closed(), 1u);
  const std::vector<CausalChain> recent = log.recent();
  ASSERT_EQ(recent.size(), 1u);
  const CausalChain& c = recent[0];
  EXPECT_EQ(c.label, "j1/c1");
  EXPECT_EQ(c.tenant, 7u);
  EXPECT_DOUBLE_EQ(c.open_t, 100.0);
  EXPECT_DOUBLE_EQ(c.total_s, 4.0);
  EXPECT_TRUE(c.closed);
  EXPECT_FALSE(c.aborted);
  EXPECT_DOUBLE_EQ(c.segment(CausalSegment::kInFlight), 3.0);
  EXPECT_DOUBLE_EQ(c.accounted(), 3.5);
  EXPECT_DOUBLE_EQ(c.unattributed(), 0.5);
  EXPECT_EQ(c.dominant(), CausalSegment::kInFlight);
}

TEST(CausalTest, CloseAtUsesOpenersClock) {
  CausalLog log;
  const std::uint64_t id = log.open("x", 0, 10.0);
  log.close_at(id, 17.5);
  ASSERT_EQ(log.recent().size(), 1u);
  EXPECT_DOUBLE_EQ(log.recent()[0].total_s, 7.5);
}

TEST(CausalTest, UnknownIdsAreIgnoredBestEffort) {
  CausalLog log;
  log.add(9999, CausalSegment::kCapture, 1.0);  // no chain: dropped
  log.close_total(9999, 1.0);
  log.add(0, CausalSegment::kCapture, 1.0);  // 0 is never a valid id
  EXPECT_EQ(log.closed(), 0u);
  EXPECT_TRUE(log.recent().empty());
}

TEST(CausalTest, UnattributedClampsAtZeroWhenOverAccounted) {
  // A chain mixing clock domains can legitimately account more seconds
  // than the closer's single-clock total (wall capture concurrent with a
  // virtual drain); unattributed() must clamp rather than go negative.
  CausalLog log;
  const std::uint64_t id = log.open("mixed", 0, 0.0);
  log.add(id, CausalSegment::kCapture, 3.0);
  log.add(id, CausalSegment::kInFlight, 2.0);
  log.close_total(id, 4.0);
  const CausalChain c = log.recent()[0];
  EXPECT_DOUBLE_EQ(c.accounted(), 5.0);
  EXPECT_DOUBLE_EQ(c.unattributed(), 0.0);
}

TEST(CausalTest, RingEvictsOldestClosedChains) {
  CausalLog::Config cfg;
  cfg.ring_capacity = 3;
  cfg.top_k = 2;
  CausalLog log(cfg);
  for (int i = 0; i < 6; ++i) {
    const std::uint64_t id = log.open("c" + std::to_string(i), 0, 0.0);
    log.close_total(id, double(i + 1));
  }
  EXPECT_EQ(log.closed(), 6u);
  const std::vector<CausalChain> recent = log.recent();
  ASSERT_EQ(recent.size(), 3u);
  EXPECT_EQ(recent.front().label, "c3");  // oldest retained
  EXPECT_EQ(recent.back().label, "c5");   // newest
}

TEST(CausalTest, TopKIsSlowestFirstAndExcludesAborted) {
  CausalLog::Config cfg;
  cfg.ring_capacity = 16;
  cfg.top_k = 3;
  CausalLog log(cfg);
  const double totals[] = {2.0, 9.0, 1.0, 5.0, 7.0};
  for (int i = 0; i < 5; ++i) {
    const std::uint64_t id = log.open("c" + std::to_string(i), 0, 0.0);
    log.close_total(id, totals[i]);
  }
  // An even slower aborted chain must not displace committed ones.
  const std::uint64_t doomed = log.open("doomed", 0, 0.0);
  log.close_total(doomed, 100.0, /*aborted=*/true);

  const std::vector<CausalChain> top = log.slowest();
  ASSERT_EQ(top.size(), 3u);
  EXPECT_DOUBLE_EQ(top[0].total_s, 9.0);
  EXPECT_DOUBLE_EQ(top[1].total_s, 7.0);
  EXPECT_DOUBLE_EQ(top[2].total_s, 5.0);
}

// --- TransferScheduler integration -----------------------------------------

aic::Bytes pattern_bytes(std::size_t n, std::uint64_t seed) {
  aic::Rng rng(seed);
  aic::Bytes b(n);
  for (auto& x : b) x = std::uint8_t(rng());
  return b;
}

struct XferHarness {
  aic::obs::Hub hub;
  aic::storage::RemoteStore target{1.0e9};
  aic::storage::TargetSink sink{target};
  aic::xfer::TransferScheduler sched;

  explicit XferHarness(aic::xfer::TransferScheduler::Config cfg = {},
                       aic::xfer::Channel::Config ch = {1000.0, 0.0}) {
    hub.enable_telemetry();
    cfg.obs = &hub;
    sched = aic::xfer::TransferScheduler(cfg);
    sched.add_level(3, ch, &sink);
  }

  CausalLog& log() { return hub.telemetry()->causal(); }
};

TEST(CausalTest, CleanDrainIsAllInFlight) {
  aic::xfer::TransferScheduler::Config cfg;
  cfg.chunk_bytes = 100;
  XferHarness h(cfg);
  const auto id = h.sched.submit(3, "obj", pattern_bytes(1000, 1));
  const std::uint64_t cid = h.log().open("obj", 0, h.sched.now());
  h.sched.annotate(id, cid);
  h.sched.run_until_idle();

  const std::vector<CausalChain> recent = h.log().recent();
  ASSERT_EQ(recent.size(), 1u);
  const CausalChain& c = recent[0];
  EXPECT_TRUE(c.closed);
  EXPECT_FALSE(c.aborted);
  EXPECT_NEAR(c.total_s, 1.0, 1e-9);  // 1000 B at 1000 B/s
  // A fault-free single drain spends its whole life on the wire.
  EXPECT_EQ(c.dominant(), CausalSegment::kInFlight);
  EXPECT_NEAR(c.segment(CausalSegment::kInFlight), c.total_s, 1e-9);
  EXPECT_NEAR(c.unattributed(), 0.0, 1e-9);
}

TEST(CausalTest, RetriesChargeBackoffAndSegmentsExplainTotal) {
  aic::xfer::TransferScheduler::Config cfg;
  cfg.chunk_bytes = 500;
  cfg.retry.initial_backoff_s = 0.5;
  XferHarness h(cfg);
  h.sched.channel(3).inject_drops(2);
  const auto id = h.sched.submit(3, "obj", pattern_bytes(1000, 2));
  const std::uint64_t cid = h.log().open("obj", 0, h.sched.now());
  h.sched.annotate(id, cid);
  h.sched.run_until_idle();

  ASSERT_EQ(h.log().recent().size(), 1u);
  const CausalChain c = h.log().recent()[0];
  EXPECT_TRUE(c.closed);
  EXPECT_GT(c.segment(CausalSegment::kBackoff), 0.0);
  EXPECT_GT(c.segment(CausalSegment::kInFlight), 0.0);
  // Failed attempts occupy the wire too: in-flight covers 4 chunk sends
  // (2 drops + 2 successes), backoff the waits between them, and together
  // the segments explain the commit latency.
  EXPECT_NEAR(c.accounted(), c.total_s, 1e-6);
}

TEST(CausalTest, InterruptedDrainChargesStalledSegment) {
  aic::xfer::TransferScheduler::Config cfg;
  cfg.chunk_bytes = 500;
  XferHarness h(cfg);
  const auto id = h.sched.submit(3, "obj", pattern_bytes(1000, 3));
  const std::uint64_t cid = h.log().open("obj", 0, h.sched.now());
  h.sched.annotate(id, cid);

  h.sched.run_until(0.25);  // mid first chunk
  h.sched.interrupt(id);
  h.sched.run_until(5.0);   // stalled: nothing progresses
  h.sched.resume(id);
  h.sched.run_until_idle();

  ASSERT_EQ(h.log().recent().size(), 1u);
  const CausalChain c = h.log().recent()[0];
  EXPECT_TRUE(c.closed);
  EXPECT_FALSE(c.aborted);
  // The stall window [0.25, 5.0] dominates the decomposition.
  EXPECT_NEAR(c.segment(CausalSegment::kStalled), 4.75, 1e-6);
  EXPECT_EQ(c.dominant(), CausalSegment::kStalled);
  EXPECT_NEAR(c.accounted(), c.total_s, 1e-6);
}

TEST(CausalTest, InterruptDuringBackoffChargesOnlyElapsedBackoff) {
  // The first chunk drops at t=0.5 and backs off 2 s; the interrupt at
  // t=1 cuts the backoff to the 0.5 s that elapsed, and the 3 s outage
  // until the resume at t=4 is stalled time. Two clean chunks commit at 5.
  aic::xfer::TransferScheduler::Config cfg;
  cfg.chunk_bytes = 500;
  cfg.retry.initial_backoff_s = 2.0;
  cfg.retry.max_backoff_s = 2.0;
  XferHarness h(cfg);
  h.sched.channel(3).inject_drops(1);
  const auto id = h.sched.submit(3, "obj", pattern_bytes(1000, 7));
  const std::uint64_t cid = h.log().open("obj", 0, h.sched.now());
  h.sched.annotate(id, cid);

  h.sched.run_until(1.0);
  ASSERT_TRUE(h.sched.interrupt(id));
  h.sched.run_until(4.0);
  ASSERT_TRUE(h.sched.resume(id));
  h.sched.run_until_idle();

  ASSERT_EQ(h.log().recent().size(), 1u);
  const CausalChain c = h.log().recent()[0];
  EXPECT_TRUE(c.closed);
  EXPECT_DOUBLE_EQ(c.total_s, 5.0);
  EXPECT_DOUBLE_EQ(c.segment(CausalSegment::kBackoff), 0.5);
  EXPECT_DOUBLE_EQ(c.segment(CausalSegment::kStalled), 3.0);
  EXPECT_DOUBLE_EQ(c.segment(CausalSegment::kInFlight), 1.5);
  EXPECT_DOUBLE_EQ(c.accounted(), c.total_s);
}

TEST(CausalTest, AbortedDrainClosesChainAsAborted) {
  aic::xfer::TransferScheduler::Config cfg;
  cfg.chunk_bytes = 500;
  cfg.retry.max_attempts_per_chunk = 2;
  XferHarness h(cfg);
  h.sched.channel(3).inject_drops(2);  // exhausts both attempts
  const auto id = h.sched.submit(3, "doomed", pattern_bytes(1000, 4));
  const std::uint64_t cid = h.log().open("doomed", 0, h.sched.now());
  h.sched.annotate(id, cid);
  h.sched.run_until_idle();

  ASSERT_EQ(h.log().recent().size(), 1u);
  const CausalChain c = h.log().recent()[0];
  EXPECT_TRUE(c.closed);
  EXPECT_TRUE(c.aborted);
  EXPECT_TRUE(h.log().slowest().empty());  // aborted chains never rank
}

TEST(CausalTest, SharedChannelDrainQueuesAreAttributed) {
  // Two equal drains share the channel; each commit decomposes into its
  // own wire time plus the contention it suffered, and both chains close.
  aic::xfer::TransferScheduler::Config cfg;
  cfg.chunk_bytes = 250;
  XferHarness h(cfg);
  const auto a = h.sched.submit(3, "a", pattern_bytes(500, 5));
  const auto b = h.sched.submit(3, "b", pattern_bytes(500, 6));
  const std::uint64_t ca = h.log().open("a", 0, h.sched.now());
  const std::uint64_t cb = h.log().open("b", 0, h.sched.now());
  h.sched.annotate(a, ca);
  h.sched.annotate(b, cb);
  h.sched.run_until_idle();

  const std::vector<CausalChain> recent = h.log().recent();
  ASSERT_EQ(recent.size(), 2u);
  for (const CausalChain& c : recent) {
    EXPECT_TRUE(c.closed);
    EXPECT_NEAR(c.accounted(), c.total_s, 1e-6);
  }
}

}  // namespace
