// Tests for the xfer transfer engine: chunk pricing and fault semantics on
// the simulated Channel, the TransferScheduler's state machine (retry with
// capped exponential backoff, typed aborts, publication at commit,
// interrupt/resume), emergent bandwidth sharing, and the end-to-end
// torn-object guarantee through MultiLevelStore — a failure between any
// two chunks leaves recover() seeing only committed checkpoints, and the
// resumed drain lands byte-identical.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <string>
#include <vector>

#include "ckpt/checkpointer.h"
#include "common/rng.h"
#include "fnv1a.h"
#include "heap_guard.h"
#include "mem/snapshot.h"
#include "obs/trace.h"
#include "storage/async_checkpointer.h"
#include "storage/multilevel_store.h"
#include "storage/target_sink.h"
#include "verify/chain_verifier.h"
#include "xfer/channel.h"
#include "xfer/scheduler.h"

namespace aic::xfer {
namespace {

Bytes pattern_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes b(n);
  for (auto& x : b) x = std::uint8_t(rng());
  return b;
}

TEST(XferChannel, PricesAtPerStreamShare) {
  Channel ch({1000.0, 0.5});
  Channel::SendOutcome out = ch.send(1000, 1000.0);
  EXPECT_TRUE(out.acked);
  EXPECT_DOUBLE_EQ(out.seconds, 0.5 + 1.0);

  out = ch.send(1000, 500.0);  // half the channel: twice the wire time
  EXPECT_TRUE(out.acked);
  EXPECT_DOUBLE_EQ(out.seconds, 0.5 + 2.0);
}

TEST(XferChannel, RejectsBadConfig) {
  EXPECT_THROW(Channel({0.0, 0.0}), CheckError);
  EXPECT_THROW(Channel({-5.0, 0.0}), CheckError);
  EXPECT_THROW(Channel({1000.0, -1.0}), CheckError);
}

TEST(XferChannel, ScriptedFaultsApplyInFifoOrder) {
  Channel ch({1000.0, 0.0});
  ch.inject({FaultKind::kDrop, 0.0, 0.0});
  ch.inject({FaultKind::kStall, 3.0, 0.0});
  ch.inject({FaultKind::kPartialWrite, 0.0, 0.25});

  Channel::SendOutcome drop = ch.send(1000, 1000.0);
  EXPECT_FALSE(drop.acked);
  EXPECT_DOUBLE_EQ(drop.seconds, 1.0) << "a drop still wastes wire time";

  Channel::SendOutcome stall = ch.send(1000, 1000.0);
  EXPECT_TRUE(stall.acked);
  EXPECT_DOUBLE_EQ(stall.seconds, 4.0);

  // The break after a quarter of the chunk costs a quarter of its wire
  // time, and nothing is acked.
  Channel::SendOutcome partial = ch.send(1000, 1000.0);
  EXPECT_FALSE(partial.acked);
  EXPECT_DOUBLE_EQ(partial.seconds, 0.25);

  Channel::SendOutcome clean = ch.send(1000, 1000.0);
  EXPECT_TRUE(clean.acked);
  EXPECT_DOUBLE_EQ(clean.seconds, 1.0);
}

// A scheduler + remote-store sink harness used by most scheduler tests.
struct Harness {
  storage::RemoteStore target{1.0e9};  // publication put is not the wire
  storage::TargetSink sink{target};
  TransferScheduler sched;

  explicit Harness(TransferScheduler::Config cfg = {},
                   Channel::Config ch = {1000.0, 0.0}) {
    sched = TransferScheduler(cfg);
    sched.add_level(3, ch, &sink);
  }
};

TEST(XferScheduler, CommitIsAtomicAndByteIdentical) {
  TransferScheduler::Config cfg;
  cfg.chunk_bytes = 100;
  Harness h(cfg);
  const Bytes data = pattern_bytes(950, 42);
  const TransferId id = h.sched.submit(3, "obj", data);

  // Mid-drain: acked bytes accumulate, nothing visible in the target.
  h.sched.run_until(0.35);  // 3 chunks of 100 B at 1 kB/s
  EXPECT_EQ(h.sched.record(id).acked_bytes, 300u);
  EXPECT_FALSE(h.target.get("obj").has_value())
      << "a drain in progress must be invisible";

  h.sched.run_until_idle();
  const TransferRecord& rec = h.sched.record(id);
  EXPECT_EQ(rec.state, TransferState::kCommitted);
  EXPECT_DOUBLE_EQ(rec.commit_time, 0.95);
  EXPECT_EQ(rec.acked_bytes, 950u) << "commit follows the last ack";
  auto landed = h.target.get("obj");
  ASSERT_TRUE(landed.has_value());
  EXPECT_EQ(*landed, data);

  const Stats s = h.sched.stats();
  EXPECT_EQ(s.chunks_sent, 10u);  // 9 full + 1 half chunk
  EXPECT_EQ(s.bytes_acked, 950u);
  EXPECT_EQ(s.transfers_committed, 1u);
  EXPECT_EQ(s.retries, 0u);
}

TEST(XferScheduler, ZeroByteObjectCommitsImmediately) {
  Harness h;
  const TransferId id = h.sched.submit(3, "empty", {});
  h.sched.run_until_idle();
  EXPECT_EQ(h.sched.record(id).state, TransferState::kCommitted);
  ASSERT_TRUE(h.target.get("empty").has_value());
  EXPECT_TRUE(h.target.get("empty")->empty());
}

TEST(XferScheduler, DropFirstKCommitsAfterExactlyKRetries) {
  for (int k = 1; k <= 6; ++k) {
    TransferScheduler::Config cfg;
    cfg.chunk_bytes = 200;
    cfg.retry.max_attempts_per_chunk = 8;
    cfg.retry.initial_backoff_s = 0.05;
    cfg.retry.backoff_multiplier = 2.0;
    cfg.retry.max_backoff_s = 0.3;  // cap inside the tested range
    Harness h(cfg);
    h.sched.channel(3).inject_drops(k);

    const Bytes data = pattern_bytes(600, 7);
    const TransferId id = h.sched.submit(3, "obj", data);
    h.sched.run_until_idle();

    const TransferRecord& rec = h.sched.record(id);
    ASSERT_EQ(rec.state, TransferState::kCommitted) << "k=" << k;
    EXPECT_EQ(rec.stats.retries, std::uint64_t(k));
    ASSERT_EQ(rec.backoff_history.size(), std::size_t(k));
    for (int i = 0; i < k; ++i) {
      const double expected =
          std::min(0.05 * std::pow(2.0, double(i)), 0.3);
      EXPECT_DOUBLE_EQ(rec.backoff_history[std::size_t(i)], expected);
      if (i > 0) {
        EXPECT_GE(rec.backoff_history[std::size_t(i)],
                  rec.backoff_history[std::size_t(i - 1)])
            << "backoffs must be monotone non-decreasing";
      }
      EXPECT_LE(rec.backoff_history[std::size_t(i)], 0.3) << "capped";
    }
    EXPECT_EQ(*h.target.get("obj"), data);
  }
}

TEST(XferScheduler, ExhaustedRetryBudgetAbortsWithTypedError) {
  TransferScheduler::Config cfg;
  cfg.chunk_bytes = 100;
  cfg.retry.max_attempts_per_chunk = 3;
  Harness h(cfg);
  // First two chunks clean, then the budget's worth of drops at the third.
  h.sched.channel(3).inject({FaultKind::kStall, 0.0, 0.0});
  h.sched.channel(3).inject({FaultKind::kStall, 0.0, 0.0});
  h.sched.channel(3).inject_drops(3);

  const Bytes data = pattern_bytes(500, 9);
  const TransferId id = h.sched.submit(3, "doomed", data);
  h.sched.run_until_idle();

  const TransferRecord& rec = h.sched.record(id);
  ASSERT_EQ(rec.state, TransferState::kAborted);
  EXPECT_EQ(rec.acked_bytes, 200u);
  EXPECT_EQ(h.sched.runnable_count(), 0u) << "an abort leaves nothing queued";
  EXPECT_FALSE(h.target.get("doomed").has_value());

  try {
    h.sched.rethrow_if_aborted(id);
    FAIL() << "abort must rethrow";
  } catch (const TransferError& e) {
    EXPECT_EQ(e.level(), 3);
    EXPECT_EQ(e.chunk_offset(), 200u);
    const std::string what = e.what();
    EXPECT_NE(what.find("level 3"), std::string::npos) << what;
    EXPECT_NE(what.find("chunk offset 200"), std::string::npos) << what;
    EXPECT_NE(what.find("3 attempts"), std::string::npos) << what;
  }
}

TEST(XferScheduler, PartialWriteGarbageIsOverwrittenByRetry) {
  TransferScheduler::Config cfg;
  cfg.chunk_bytes = 100;
  Harness h(cfg);
  h.sched.channel(3).inject({FaultKind::kPartialWrite, 0.0, 0.6});

  const Bytes data = pattern_bytes(300, 11);
  const TransferId id = h.sched.submit(3, "obj", data);
  h.sched.run_until_idle();

  EXPECT_EQ(h.sched.record(id).state, TransferState::kCommitted);
  EXPECT_EQ(h.sched.record(id).stats.retries, 1u);
  EXPECT_EQ(*h.target.get("obj"), data)
      << "the 60-byte garbage prefix must not survive the retry";
}

TEST(XferScheduler, StallBeyondTimeoutCostsExactlyTheTimeout) {
  TransferScheduler::Config cfg;
  cfg.chunk_bytes = 100;
  cfg.retry.chunk_timeout_s = 0.5;
  cfg.retry.initial_backoff_s = 0.1;
  cfg.retry.backoff_multiplier = 1.0;
  cfg.retry.max_backoff_s = 0.1;
  Harness h(cfg);
  // Chunk takes 0.1 s clean; a 10 s stall trips the 0.5 s timeout.
  h.sched.channel(3).inject({FaultKind::kStall, 10.0, 0.0});

  const TransferId id = h.sched.submit(3, "obj", pattern_bytes(100, 3));
  h.sched.run_until_idle();
  const TransferRecord& rec = h.sched.record(id);
  EXPECT_EQ(rec.state, TransferState::kCommitted);
  EXPECT_EQ(rec.stats.retries, 1u);
  // 0.5 timeout + 0.1 backoff + 0.1 clean send.
  EXPECT_DOUBLE_EQ(rec.commit_time, 0.7);
}

TEST(XferScheduler, TwoConcurrentDrainsEachSeeHalfGoodput) {
  TransferScheduler::Config cfg;
  cfg.chunk_bytes = 100;
  Harness h(cfg, {1000.0, 0.0});
  const Bytes a = pattern_bytes(1000, 21);
  const Bytes b = pattern_bytes(1000, 22);
  const TransferId ia = h.sched.submit(3, "a", a);
  const TransferId ib = h.sched.submit(3, "b", b);
  h.sched.run_until_idle();

  // Solo, 1000 B at 1 kB/s lands in 1 s; sharing the channel, each drain's
  // chunks are priced at half bandwidth throughout, so both land at ~2 s —
  // goodput bandwidth/2 each (the Fig. 7 sharing factor, emergent).
  const TransferRecord& ra = h.sched.record(ia);
  const TransferRecord& rb = h.sched.record(ib);
  ASSERT_EQ(ra.state, TransferState::kCommitted);
  ASSERT_EQ(rb.state, TransferState::kCommitted);
  EXPECT_NEAR(ra.commit_time - ra.submit_time, 2.0, 0.05);
  EXPECT_NEAR(rb.commit_time - rb.submit_time, 2.0, 0.05);
  EXPECT_EQ(*h.target.get("a"), a);
  EXPECT_EQ(*h.target.get("b"), b);

  const Stats s = h.sched.stats();
  EXPECT_NEAR(s.goodput_bps(h.sched.now()), 1000.0, 1.0)
      << "aggregate goodput still fills the channel";
}

TEST(XferScheduler, InterruptKeepsAckedBytesAndResumeFinishes) {
  TransferScheduler::Config cfg;
  cfg.chunk_bytes = 100;
  Harness h(cfg);
  const Bytes data = pattern_bytes(1000, 33);
  const TransferId id = h.sched.submit(3, "obj", data);

  h.sched.run_until(0.45);  // 4 chunks acked, 5th in flight
  ASSERT_EQ(h.sched.interrupt_level(3), 1u);
  const TransferRecord& rec = h.sched.record(id);
  EXPECT_EQ(rec.state, TransferState::kInterrupted);
  EXPECT_EQ(rec.acked_bytes, 400u);
  EXPECT_FALSE(h.target.get("obj").has_value());

  // Interrupted transfers are not runnable: time passes, nothing moves.
  h.sched.run_until(10.0);
  EXPECT_EQ(h.sched.record(id).acked_bytes, 400u);

  ASSERT_EQ(h.sched.resume_level(3), 1u);
  h.sched.run_until_idle();
  EXPECT_EQ(h.sched.record(id).state, TransferState::kCommitted);
  EXPECT_EQ(*h.target.get("obj"), data) << "resumed drain byte-identical";
  EXPECT_EQ(h.sched.stats().transfers_interrupted, 1u);
}

TEST(XferScheduler, DuplicateLiveKeyIsRejected) {
  storage::RemoteStore raid(1.0e9);
  storage::TargetSink raid_sink(raid);
  Harness h;
  h.sched.add_level(2, {1000.0, 0.0}, &raid_sink);

  const TransferId first = h.sched.submit(3, "obj", pattern_bytes(10, 1));
  EXPECT_THROW(h.sched.submit(3, "obj", pattern_bytes(10, 2)), CheckError);
  EXPECT_THROW(h.sched.submit_sized(3, "obj", 10), CheckError);
  const TransferId sized = h.sched.submit_sized(3, "sized", 10);
  EXPECT_THROW(h.sched.submit(3, "sized", pattern_bytes(10, 3)), CheckError);
  EXPECT_THROW(h.sched.submit_sized(3, "sized", 10), CheckError);

  // Another level keeps its own key space.
  const TransferId other = h.sched.submit(2, "obj", pattern_bytes(10, 4));
  EXPECT_NE(other, first);

  // A committed transfer is still live until discarded.
  h.sched.run_until_idle();
  ASSERT_EQ(h.sched.record(first).state, TransferState::kCommitted);
  EXPECT_THROW(h.sched.submit(3, "obj", pattern_bytes(10, 5)), CheckError);
  h.sched.discard(first);
  h.sched.discard(sized);
  EXPECT_NO_THROW(h.sched.submit(3, "obj", pattern_bytes(10, 6)));
  EXPECT_NO_THROW(h.sched.submit_sized(3, "sized", 10));
  EXPECT_EQ(h.sched.runnable_count(), 2u)
      << "a rejected submit must leave nothing queued";

  // A discard leaves its key node for a later submit to reuse; a reused
  // node goes through the same duplicate check.
  h.sched.discard(h.sched.submit_sized(3, "spare", 10));
  EXPECT_THROW(h.sched.submit_sized(3, "sized", 10), CheckError);
  EXPECT_THROW(h.sched.submit(3, "obj", pattern_bytes(10, 7)), CheckError);
  EXPECT_NO_THROW(h.sched.submit_sized(3, "spare", 10));
  EXPECT_EQ(h.sched.runnable_count(), 3u);
}

TEST(XferScheduler, SteadySizedDrainCycleReusesItsNodes) {
  TransferScheduler sched;
  sched.add_level(3, {1.0e9, 0.0}, nullptr);
  // A fleet round in miniature: submit a batch of checkpoints, drain them,
  // then discard them all once they have committed.
  constexpr std::size_t kBatch = 4;
  auto round = [&sched](std::uint64_t r) {
    std::vector<TransferId> ids;
    ids.reserve(kBatch);
    for (std::size_t j = 0; j < kBatch; ++j) {
      ids.push_back(sched.submit_sized(
          3, "j" + std::to_string(j) + "/c" + std::to_string(r % 10),
          3 * 64 * 1024));
    }
    sched.run_until_idle();
    for (const TransferId id : ids) {
      EXPECT_EQ(sched.record(id).state, TransferState::kCommitted);
      sched.discard(id);
    }
  };
  round(0);  // warm-up: the lane, the slot table and the spare lists
  round(1);
  // The heap counters are process-wide, so the work stays on this thread.
  constexpr std::uint64_t kRounds = 8;
  const testing::HeapStats before = testing::heap_stats();
  for (std::uint64_t r = 2; r < 2 + kRounds; ++r) round(r);
  const std::uint64_t allocations =
      testing::heap_stats().allocations - before.allocations;
  // A transfer allocates nothing: its slot and key node come back from
  // the discards of the round before, and the event heap and the id index
  // keep their capacity.
  EXPECT_LE(allocations, kRounds) << "one per round, for the id list";
}

// ---- the pinned timeline ----

void hash_stats(testing::Fnv1a& h, const Stats& s) {
  h.u64(s.chunks_sent);
  h.u64(s.chunks_failed);
  h.u64(s.retries);
  h.u64(s.bytes_acked);
  h.u64(s.bytes_wasted);
  h.f64(s.wire_seconds);
  h.f64(s.backoff_seconds);
  h.u64(s.transfers_committed);
  h.u64(s.transfers_aborted);
  h.u64(s.transfers_interrupted);
}

// Every event kind the engine has, on two levels, with a reserved tenant
// and two weighted ones (1 and 3) sharing level 3. The digest covers every TransferRecord field after each
// phase, now(), stats() and every virtual trace event, so any change to
// send order, pricing, finish order or retry timing moves it.
TEST(XferScheduler, TimelineIsPinned) {
  obs::Hub hub(1 << 14);
  TransferScheduler::Config cfg;
  cfg.chunk_bytes = 256;
  cfg.retry.max_attempts_per_chunk = 3;
  cfg.retry.initial_backoff_s = 0.05;
  cfg.retry.max_backoff_s = 0.4;
  cfg.retry.chunk_timeout_s = 0.5;
  cfg.obs = &hub;
  storage::RemoteStore raid(1.0e9), remote(1.0e9);
  storage::TargetSink raid_sink(raid), remote_sink(remote);
  TransferScheduler sched(cfg);
  sched.add_level(2, {8000.0, 0.001}, &raid_sink);
  sched.add_level(3, {16000.0, 0.002}, &remote_sink);
  sched.channel(2).set_drop_probability(0.3, 7);
  sched.set_tenant_qos(3, 1, {1.0, 1000.0});
  sched.set_tenant_qos(3, 2, {1.0, 0.0});
  sched.set_tenant_qos(3, 3, {3.0, 0.0});
  sched.channel(3).inject({FaultKind::kStall, 2.0, 0.0});
  sched.channel(3).inject({FaultKind::kPartialWrite, 0.0, 0.4});

  std::vector<TransferId> ids;
  int next_key = 0;
  auto submit = [&](int level, std::size_t bytes, std::uint64_t tenant) {
    const std::string key = "k" + std::to_string(next_key++);
    ids.push_back(sched.submit(level, key, pattern_bytes(bytes, ids.size()),
                               tenant));
    return ids.back();
  };

  testing::Fnv1a h;
  auto snapshot = [&] {
    h.f64(sched.now());
    for (const TransferId id : ids) {
      h.u64(id);
      h.u64(sched.known(id));
      if (!sched.known(id)) continue;
      const TransferRecord& r = sched.record(id);
      h.u64(r.id);
      h.str(r.key);
      h.u64(std::uint64_t(r.level));
      h.u64(r.tenant);
      h.u64(std::uint64_t(r.state));
      h.u64(r.total_bytes);
      h.u64(r.acked_bytes);
      h.u64(std::uint64_t(r.chunk_attempts));
      h.f64(r.submit_time);
      h.f64(r.commit_time);
      h.u64(r.backoff_history.size());
      for (const double b : r.backoff_history) h.f64(b);
      hash_stats(h, r.stats);
      h.str(r.error);
    }
    hash_stats(h, sched.stats());
  };

  // Phase 1: a burst on both levels, a zero-byte object and a size-only
  // drain among them.
  for (std::size_t i = 0; i < 12; ++i) {
    const std::size_t sizes[] = {100, 700, 1500, 3000, 256, 0};
    const int level = i % 3 == 0 ? 2 : 3;
    submit(level, sizes[i % 6], level == 3 ? 1 + i % 3 : 0);
  }
  ids.push_back(sched.submit_sized(3, "sized", 5000, 2));
  sched.run_until(0.3);
  snapshot();

  // Phase 2: staggered submits while the first wave is on the wire.
  for (std::size_t i = 0; i < 8; ++i) {
    submit(i % 2 == 0 ? 2 : 3, 400 + 300 * i, i % 4);
    sched.run_until(0.3 + 0.1 * double(i + 1));
    snapshot();
  }

  // Phase 3: a failure takes level 3 down mid-drain, then level 3 resumes.
  EXPECT_GT(sched.interrupt_level(3), 0u);
  sched.channel(2).inject_drops(6);
  submit(2, 2000, 0);
  submit(2, 900, 0);
  sched.run_until(1.6);
  snapshot();
  EXPECT_GT(sched.resume_level(3), 0u);
  submit(3, 1200, 3);
  sched.run_until(2.2);
  snapshot();

  // Phase 4: one transfer interrupted and resumed on its own, one
  // discarded while its chunk is on the wire.
  const TransferId lone = submit(3, 4000, 2);
  const TransferId doomed = submit(2, 6000, 0);
  sched.run_until(2.35);
  EXPECT_TRUE(sched.interrupt(lone));
  ASSERT_EQ(sched.record(doomed).state, TransferState::kInFlight);
  sched.discard(doomed);
  sched.run_until(2.9);
  snapshot();
  EXPECT_TRUE(sched.resume(lone));
  for (std::size_t i = 0; i < 6; ++i) {
    submit(i % 2 == 0 ? 3 : 2, 333 * i, i % 4);
  }
  sched.run_until_idle();
  snapshot();

  for (const obs::TraceEvent& e : hub.trace.snapshot()) {
    if (e.domain != obs::TimeDomain::kVirtual) continue;
    h.str(e.name);
    h.f64(e.start);
    h.f64(e.duration);
    h.u64(e.track);
    for (std::size_t i = 0; i < e.arg_count; ++i) {
      h.str(e.args[i].key);
      h.f64(e.args[i].value);
    }
  }

  // The scenario really reaches every path it means to pin.
  const Stats s = sched.stats();
  EXPECT_GT(s.retries, 0u);
  EXPECT_GT(s.transfers_committed, 25u);
  EXPECT_GE(s.transfers_interrupted, 2u);
  EXPECT_GE(s.transfers_aborted, 1u);
  EXPECT_TRUE(sched.idle());
  EXPECT_EQ(ids.size(), 32u);

  EXPECT_EQ(h.value(), 0x5f88179ab4c4e1bbull) << std::hex << h.value();
}

// Churn at scale: about 2,000 transfers through one engine. Level 2 has a
// sink and takes payload and size-only drains, level 3 has none and takes
// size-only ones. Eight tenants share both levels, tenant 1 reserved and
// the others weighted 1-3. Each wave is submitted at one instant, so
// starts and finishes tie and resolve in id order. Between waves,
// transfers in flight, backing off, interrupted and committed are
// discarded, each followed by a submit that takes the freed slot and key.
// One transfer is interrupted during its backoff and resumed later, level
// 3 fails and resumes whole, and two tenants' QoS change while their lanes
// are open. Level 3 drops a seeded share of its chunks; level 2 stalls and
// breaks scripted ones under a chunk timeout. The digest covers every
// record after each phase, now(), the runnable and interrupted counts,
// stats() and every virtual trace event.
TEST(XferScheduler, ChurnTimelineIsPinned) {
  obs::Hub hub(1 << 15);
  TransferScheduler::Config cfg;
  cfg.chunk_bytes = 500;
  cfg.retry.max_attempts_per_chunk = 4;
  cfg.retry.initial_backoff_s = 0.05;
  cfg.retry.max_backoff_s = 0.4;
  cfg.retry.chunk_timeout_s = 0.5;
  cfg.obs = &hub;
  storage::RemoteStore target(1.0e9);
  storage::TargetSink sink(target);
  TransferScheduler sched(cfg);
  sched.add_level(2, {6.0e5, 0.0005}, &sink);
  sched.add_level(3, {4.0e5, 0.001}, nullptr);
  for (const int level : {2, 3}) {
    for (std::uint64_t t = 0; t < 8; ++t) {
      sched.set_tenant_qos(level, t,
                           {double(1 + t % 3), t == 1 ? 5.0e4 : 0.0});
    }
  }
  sched.channel(3).set_drop_probability(0.25, 19);
  auto script_faults = [&sched] {
    sched.channel(2).inject({FaultKind::kStall, 2.0, 0.0});
    sched.channel(2).inject({FaultKind::kPartialWrite, 0.0, 0.3});
  };

  std::vector<TransferId> ids;
  std::vector<bool> payload;
  auto submit = [&](int level, bool with_payload, std::string key,
                    std::uint64_t bytes, std::uint64_t tenant) {
    ids.push_back(with_payload
                      ? sched.submit(level, std::move(key),
                                     pattern_bytes(bytes, ids.size()), tenant)
                      : sched.submit_sized(level, std::move(key), bytes,
                                           tenant));
    payload.push_back(with_payload);
    return ids.back();
  };
  // `n` transfers at one instant: payload on level 2, size-only on level 2
  // and size-only on level 3 in turn, tenants 0-7 in turn. Every 48th is
  // an empty payload, which commits without touching the wire.
  int next_key = 0;
  auto wave = [&](std::size_t n) {
    const std::uint64_t sizes[] = {500, 1000, 1500, 2000, 777, 1250};
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t kind = i % 3;
      submit(kind == 2 ? 3 : 2, kind == 0, "k" + std::to_string(next_key++),
             i % 48 == 0 ? 0 : sizes[(i / 3) % 6], i % 8);
    }
  };
  // The first `n` transfers in `state`, in id order, among those submitted
  // so far.
  auto in_state = [&](TransferState state, std::size_t n) {
    std::vector<std::size_t> found;
    for (std::size_t i = 0; i < ids.size() && found.size() < n; ++i) {
      if (sched.known(ids[i]) && sched.record(ids[i]).state == state) {
        found.push_back(i);
      }
    }
    return found;
  };
  // Discards each, and straight after it submits a transfer of the same
  // kind, level, key and tenant, 250 bytes longer, into the freed slot.
  auto churn = [&](TransferState state, std::size_t n) {
    const std::vector<std::size_t> victims = in_state(state, n);
    for (const std::size_t i : victims) {
      const TransferRecord r = sched.record(ids[i]);
      sched.discard(ids[i]);
      submit(r.level, payload[i], r.key, r.total_bytes + 250, r.tenant);
    }
    return victims.size();
  };

  testing::Fnv1a h;
  auto snapshot = [&] {
    h.f64(sched.now());
    h.u64(sched.runnable_count());
    h.u64(sched.interrupted_count());
    for (const TransferId id : ids) {
      h.u64(id);
      h.u64(sched.known(id));
      if (!sched.known(id)) continue;
      const TransferRecord& r = sched.record(id);
      h.u64(r.id);
      h.str(r.key);
      h.u64(std::uint64_t(r.level));
      h.u64(r.tenant);
      h.u64(std::uint64_t(r.state));
      h.u64(r.total_bytes);
      h.u64(r.acked_bytes);
      h.u64(std::uint64_t(r.chunk_attempts));
      h.f64(r.submit_time);
      h.f64(r.commit_time);
      h.u64(r.backoff_history.size());
      for (const double b : r.backoff_history) h.f64(b);
      hash_stats(h, r.stats);
      h.str(r.error);
    }
    hash_stats(h, sched.stats());
  };

  // Phase 1: the first wave.
  script_faults();
  wave(240);
  sched.run_until(0.25);
  snapshot();

  // Phase 2: discards in flight, in backoff and after commit.
  EXPECT_EQ(churn(TransferState::kInFlight, 24), 24u);
  EXPECT_EQ(churn(TransferState::kPending, 8), 8u) << "in backoff";
  EXPECT_EQ(churn(TransferState::kCommitted, 24), 24u);
  sched.run_until(0.5);
  snapshot();

  // Phase 3: a second wave, then new QoS for two tenants mid-drain.
  script_faults();
  wave(240);
  sched.run_until(0.6);
  bool tenant4_on_wire = false;
  for (const TransferId id : ids) {
    if (!sched.known(id)) continue;
    const TransferRecord& r = sched.record(id);
    tenant4_on_wire |= r.level == 2 && r.tenant == 4 &&
                       r.state == TransferState::kInFlight;
  }
  EXPECT_TRUE(tenant4_on_wire);
  sched.set_tenant_qos(2, 4, {3.5, 0.0});
  sched.set_tenant_qos(3, 1, {1.0, 1.2e5});
  sched.run_until(0.9);
  snapshot();

  // Phase 4: one transfer interrupted during its backoff, another
  // interrupted in flight and then discarded.
  const std::vector<std::size_t> backing_off =
      in_state(TransferState::kPending, 1);
  const std::vector<std::size_t> on_wire =
      in_state(TransferState::kInFlight, 1);
  ASSERT_EQ(backing_off.size(), 1u);
  ASSERT_EQ(on_wire.size(), 1u);
  const TransferId paused = ids[backing_off[0]];
  EXPECT_GT(sched.record(paused).chunk_attempts, 0);
  EXPECT_TRUE(sched.interrupt(paused));
  EXPECT_FALSE(sched.interrupt(paused));
  EXPECT_TRUE(sched.interrupt(ids[on_wire[0]]));
  EXPECT_EQ(sched.interrupted_count(), 2u);
  sched.discard(ids[on_wire[0]]);
  EXPECT_EQ(sched.interrupted_count(), 1u);
  sched.run_until(1.1);
  snapshot();
  EXPECT_TRUE(sched.resume(paused));
  EXPECT_FALSE(sched.resume(paused));

  // Phase 5: level 3 fails mid-wave; some of its interrupted transfers
  // are discarded and resubmitted, the rest resume with the level.
  wave(240);
  sched.run_until(1.2);
  const std::size_t struck = sched.interrupt_level(3);
  EXPECT_GT(struck, 6u);
  EXPECT_EQ(churn(TransferState::kInterrupted, 6), 6u);
  EXPECT_EQ(sched.interrupted_count(), struck - 6);
  sched.run_until(1.5);
  snapshot();
  EXPECT_EQ(sched.resume_level(3), struck - 6);
  EXPECT_EQ(sched.interrupted_count(), 0u);
  sched.run_until(1.8);
  snapshot();

  // Phase 6: fleet-like rounds, each discarding every landed transfer
  // before the next wave takes their slots.
  for (int round = 0; round < 5; ++round) {
    for (const TransferState landed :
         {TransferState::kCommitted, TransferState::kAborted}) {
      for (const std::size_t i : in_state(landed, ids.size())) {
        sched.discard(ids[i]);
      }
    }
    if (round % 2 == 0) script_faults();
    wave(240);
    sched.run_until(2.2 + 0.4 * double(round));
    snapshot();
  }
  sched.run_until_idle();
  snapshot();

  for (const obs::TraceEvent& e : hub.trace.snapshot()) {
    if (e.domain != obs::TimeDomain::kVirtual) continue;
    h.str(e.name);
    h.f64(e.start);
    h.f64(e.duration);
    h.u64(e.track);
    for (std::size_t i = 0; i < e.arg_count; ++i) {
      h.str(e.args[i].key);
      h.f64(e.args[i].value);
    }
  }

  // The scenario really reaches every path it means to pin.
  EXPECT_EQ(hub.trace.dropped(), 0u);
  const Stats s = sched.stats();
  EXPECT_GT(s.retries, 100u);
  EXPECT_GT(s.transfers_committed, 1500u);
  EXPECT_GE(s.transfers_aborted, 1u);
  EXPECT_GE(s.transfers_interrupted, struck + 2);
  EXPECT_TRUE(sched.idle());
  EXPECT_EQ(ids.size(), 1982u);

  EXPECT_EQ(h.value(), 0xd1a4fe8f0bb7ff79ull) << std::hex << h.value();
}

// ---- publication at commit ----

// A size-only drain runs exactly like a payload drain of the same size:
// level 2 publishes payloads into a target, level 3 has no sink and takes
// size-only drains, and the same scripted drop, partial write and
// interrupt/resume on both give the same records, stats and trace.
TEST(XferScheduler, SizeOnlyDrainRunsLikeAPayloadDrain) {
  obs::Hub hub(1 << 12);
  TransferScheduler::Config cfg;
  cfg.chunk_bytes = 100;
  cfg.obs = &hub;
  storage::RemoteStore target(1.0e9);
  storage::TargetSink sink(target);
  TransferScheduler sched(cfg);
  sched.add_level(2, {1000.0, 0.001}, &sink);
  sched.add_level(3, {1000.0, 0.001}, nullptr);
  for (const int level : {2, 3}) {
    sched.channel(level).inject({FaultKind::kDrop, 0.0, 0.0});
    sched.channel(level).inject({FaultKind::kPartialWrite, 0.0, 0.4});
  }

  const std::uint64_t sizes[] = {450, 230, 610};
  std::vector<Bytes> payloads;
  std::vector<TransferId> published, sized;
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string key = "obj" + std::to_string(i);
    payloads.push_back(pattern_bytes(sizes[i], i));
    published.push_back(sched.submit(2, key, payloads.back()));
    sized.push_back(sched.submit_sized(3, key, sizes[i]));
  }
  sched.run_until(0.5);
  EXPECT_EQ(sched.interrupt_level(2), 3u);
  EXPECT_EQ(sched.interrupt_level(3), 3u);
  sched.run_until(0.8);
  EXPECT_EQ(sched.resume_level(2), 3u);
  EXPECT_EQ(sched.resume_level(3), 3u);
  sched.run_until_idle();

  // Every record field but the id and the level.
  auto fingerprint = [&sched](TransferId id) {
    const TransferRecord& r = sched.record(id);
    testing::Fnv1a h;
    h.str(r.key);
    h.u64(r.tenant);
    h.u64(std::uint64_t(r.state));
    h.u64(r.total_bytes);
    h.u64(r.acked_bytes);
    h.u64(std::uint64_t(r.chunk_attempts));
    h.f64(r.submit_time);
    h.f64(r.commit_time);
    for (const double b : r.backoff_history) h.f64(b);
    hash_stats(h, r.stats);
    h.str(r.error);
    return h.value();
  };
  Stats per_level[2];
  for (std::size_t i = 0; i < 3; ++i) {
    SCOPED_TRACE("obj" + std::to_string(i));
    EXPECT_EQ(sched.record(published[i]).state, TransferState::kCommitted);
    EXPECT_EQ(fingerprint(published[i]), fingerprint(sized[i]));
    EXPECT_EQ(target.get("obj" + std::to_string(i)), payloads[i]);
    per_level[0] += sched.record(published[i]).stats;
    per_level[1] += sched.record(sized[i]).stats;
  }
  testing::Fnv1a s2, s3;
  hash_stats(s2, per_level[0]);
  hash_stats(s3, per_level[1]);
  EXPECT_EQ(s2.value(), s3.value());
  EXPECT_EQ(per_level[1].retries, 2u) << "the drop and the partial write";
  EXPECT_EQ(per_level[1].transfers_interrupted, 3u);

  testing::Fnv1a t2, t3;
  std::size_t events[2] = {0, 0};
  for (const obs::TraceEvent& e : hub.trace.snapshot()) {
    if (e.domain != obs::TimeDomain::kVirtual) continue;
    ASSERT_TRUE(e.track == 2 || e.track == 3);
    testing::Fnv1a& h = e.track == 2 ? t2 : t3;
    ++events[e.track - 2];
    h.str(e.name);
    h.f64(e.start);
    h.f64(e.duration);
    for (std::size_t i = 0; i < e.arg_count; ++i) {
      h.str(e.args[i].key);
      h.f64(e.args[i].value);
    }
  }
  EXPECT_GT(events[0], 0u);
  EXPECT_EQ(events[0], events[1]);
  EXPECT_EQ(t2.value(), t3.value());

  // A level without a sink takes no payload, and the rejected submit
  // leaves its key free.
  EXPECT_THROW(sched.submit(3, "late", pattern_bytes(10, 9)), CheckError);
  EXPECT_EQ(sched.runnable_count(), 0u);
  EXPECT_NO_THROW(sched.submit_sized(3, "late", 10));
}

// ---- end-to-end torn-object guarantee through MultiLevelStore ----

storage::MultiLevelConfig tiny_store_config() {
  storage::MultiLevelConfig mc;
  mc.local_bps = 1.0e6;
  mc.raid_bps = 4096.0;    // L2 drain: one 1 KiB chunk = 0.25 s
  mc.remote_bps = 1024.0;  // L3 drain: one 1 KiB chunk = 1 s
  mc.xfer.chunk_bytes = 1024;
  return mc;
}

/// Builds a 3-checkpoint chain (full + 2 deltas) with real page content.
std::vector<ckpt::CheckpointFile> make_chain_files() {
  mem::AddressSpace space;
  space.allocate_range(0, 16);
  Rng rng(5);
  ckpt::CheckpointChain chain;
  for (int c = 0; c < 3; ++c) {
    for (mem::PageId id = 0; id < 16; id += (c + 1)) {
      space.mutate(id, [&](std::span<std::uint8_t> b) {
        for (auto& x : b) x = std::uint8_t(rng());
      });
    }
    chain.capture(space, {}, double(c));
    space.protect_all();
  }
  return chain.files();
}

TEST(XferTornObject, FailureBetweenAnyTwoChunksNeverTearsRecovery) {
  const std::vector<ckpt::CheckpointFile> files = make_chain_files();
  ASSERT_EQ(files.size(), 3u);
  const Bytes last_wire = files[2].serialize();
  const auto n_chunks = std::uint64_t((last_wire.size() + 1023) / 1024);
  ASSERT_GE(n_chunks, 2u) << "need a multi-chunk drain to interrupt";
  const verify::ChainVerifier verifier;

  // Strike the failure inside every chunk of the last checkpoint's L3
  // drain (the L2 drain, 4x faster, is mid-flight for the early strikes
  // and legitimately committed for the later ones).
  const std::uint64_t tail =
      last_wire.size() - (n_chunks - 1) * 1024;  // last chunk's bytes
  for (std::uint64_t chunk = 0; chunk < n_chunks; ++chunk) {
    SCOPED_TRACE("failure during chunk " + std::to_string(chunk));
    storage::MultiLevelStore store(tiny_store_config());
    Rng rng(chunk + 1);
    (void)store.put_checkpoint(files[0]);
    (void)store.put_checkpoint(files[1]);
    const storage::DrainTicket ticket =
        store.put_checkpoint_async(files[2]);

    // Midpoint of this chunk's wire window (the tail chunk is shorter).
    const double mid = chunk < n_chunks - 1
                           ? double(chunk) + 0.5
                           : double(chunk) + double(tail) / 2048.0;
    store.xfer().run_until(store.xfer().now() + mid);
    const bool l2_landed =
        ticket.raid.has_value() &&
        store.xfer().record(*ticket.raid).state == TransferState::kCommitted;
    store.apply_failure(2, rng);  // node death mid-drain

    // recover() must see only committed checkpoints — the torn third one
    // is invisible unless its (faster) L2 drain already committed, and
    // what IS visible verifies clean.
    auto rec = store.recover();
    ASSERT_TRUE(rec.has_value());
    ASSERT_EQ(rec->chain.size(), l2_landed ? 3u : 2u)
        << "in-flight checkpoint must not be visible";
    EXPECT_EQ(rec->chain.back().sequence, l2_landed ? 2u : 1u);
    const verify::Report report = verifier.verify(rec->chain);
    EXPECT_TRUE(report.ok()) << report.summary();

    // Resume: the drain continues from its last acked chunk and the
    // landed object is byte-identical to the uninterrupted transfer.
    EXPECT_GT(store.resume_drains(), 0u);
    store.xfer().run_until_idle();
    EXPECT_EQ(store.unfinished_drains(), 0u);
    auto landed = store.remote().get("ckpt-2");
    ASSERT_TRUE(landed.has_value());
    EXPECT_EQ(*landed, last_wire);

    // The full 3-record chain read back from the remote level verifies
    // clean end to end (aic_fsck's engine, exit-0 equivalent).
    auto full = store.recover();
    ASSERT_TRUE(full.has_value());
    ASSERT_EQ(full->chain.size(), 3u);
    EXPECT_TRUE(verifier.verify(full->chain).ok());
    EXPECT_GT(store.xfer().stats().transfers_interrupted, 0u);
  }
}

TEST(XferTornObject, StagedPartialInvisibleToEveryLevel) {
  storage::MultiLevelStore store(tiny_store_config());
  const std::vector<ckpt::CheckpointFile> files = make_chain_files();
  (void)store.put_checkpoint_async(files[0]);
  store.xfer().run_until(1.5);  // L3 mid-drain (L2 may have landed)

  EXPECT_GT(store.unfinished_drains(), 0u);
  EXPECT_FALSE(store.remote().get("ckpt-0").has_value());
  // Local landed synchronously; the recover answer is the local copy, and
  // it never includes an uncommitted partial from another level.
  auto rec = store.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->level_used, 1);
  store.xfer().run_until_idle();
  EXPECT_EQ(store.unfinished_drains(), 0u);
  EXPECT_TRUE(store.remote().get("ckpt-0").has_value());
}

// ---- concurrency: the worker thread drains while the app submits ----
// (runs under the tsan verify leg via the Xfer name filter)

TEST(XferConcurrentAsyncDrain, WorkerDrainsWhileAppSubmits) {
  storage::MultiLevelConfig mc;
  mc.local_bps = 1.0e9;
  mc.raid_bps = 1.0e9;
  mc.remote_bps = 1.0e8;
  mc.xfer.chunk_bytes = 4096;
  storage::MultiLevelStore store(mc);

  std::atomic<int> compressed{0};
  std::atomic<int> landed{0};
  storage::AsyncCheckpointer::Config cfg;
  cfg.store = &store;
  cfg.on_complete = [&](const storage::AsyncResult& r) {
    EXPECT_FALSE(r.landed);
    ++compressed;
  };
  cfg.on_landed = [&](const storage::AsyncResult& r) {
    EXPECT_TRUE(r.landed);
    EXPECT_GT(r.placement.remote, 0.0);
    ++landed;
  };

  mem::AddressSpace space;
  space.allocate_range(0, 64);
  Rng rng(17);
  {
    storage::AsyncCheckpointer async(std::move(cfg));
    for (int c = 0; c < 5; ++c) {
      for (mem::PageId id = 0; id < 64; id += 3) {
        space.mutate(id, [&](std::span<std::uint8_t> b) {
          for (auto& x : b) x = std::uint8_t(rng());
        });
      }
      async.submit(space, {}, double(c));
    }
    async.drain();
  }
  EXPECT_EQ(compressed.load(), 5);
  EXPECT_EQ(landed.load(), 5);
  EXPECT_EQ(store.checkpoints_stored(), 5u);
  EXPECT_EQ(store.unfinished_drains(), 0u);

  // Every level holds the full committed chain; it verifies clean.
  auto rec = store.recover();
  ASSERT_TRUE(rec.has_value());
  EXPECT_EQ(rec->chain.size(), 5u);
  EXPECT_TRUE(verify::ChainVerifier().verify(rec->chain).ok());
}

}  // namespace
}  // namespace aic::xfer
