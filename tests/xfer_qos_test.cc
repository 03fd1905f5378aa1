// Tests for per-tenant QoS in the transfer engine: reservation-set
// validation (typed ReservationError, table untouched on rejection),
// weighted residual sharing, hard reservations as dedicated lanes under
// contention, starvation semantics when reservations consume the whole
// channel, and the per-transfer interrupt/resume used by the fleet layer
// to model failures striking one job mid-drain.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "storage/multilevel_store.h"
#include "storage/target_sink.h"
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

TEST(XferQos, RejectsOversubscribedReservationSet) {
  Harness h;
  h.sched.set_tenant_qos(3, 1, TenantQos{1.0, 600.0});

  try {
    h.sched.set_tenant_qos(3, 2, TenantQos{1.0, 500.0});
    FAIL() << "aggregate 1100 bps on a 1000 bps channel must be rejected";
  } catch (const ReservationError& e) {
    EXPECT_EQ(e.level(), 3);
    EXPECT_DOUBLE_EQ(e.reserved_bps(), 1100.0);
    EXPECT_DOUBLE_EQ(e.capacity_bps(), 1000.0);
  }
  // The rejected entry must not have landed: tenant 2 prices as default.
  EXPECT_DOUBLE_EQ(h.sched.tenant_qos(3, 2).reserved_bps, 0.0);
  EXPECT_DOUBLE_EQ(h.sched.tenant_qos(3, 1).reserved_bps, 600.0);

  // Replacing an existing entry re-validates with the replacement applied:
  // growing tenant 1 to the full channel is legal (equality allowed)...
  h.sched.set_tenant_qos(3, 1, TenantQos{1.0, 1000.0});
  EXPECT_DOUBLE_EQ(h.sched.tenant_qos(3, 1).reserved_bps, 1000.0);
  // ...but one byte/s past capacity is not.
  EXPECT_THROW(h.sched.set_tenant_qos(3, 1, TenantQos{1.0, 1000.5}),
               ReservationError);
  EXPECT_DOUBLE_EQ(h.sched.tenant_qos(3, 1).reserved_bps, 1000.0);
}

TEST(XferQos, ValidatesWeightAndReservation) {
  Harness h;
  EXPECT_THROW(h.sched.set_tenant_qos(3, 1, TenantQos{0.0, 0.0}), CheckError);
  EXPECT_THROW(h.sched.set_tenant_qos(3, 1, TenantQos{-1.0, 0.0}), CheckError);
  EXPECT_THROW(h.sched.set_tenant_qos(
                   3, 1,
                   TenantQos{std::numeric_limits<double>::infinity(), 0.0}),
               CheckError);
  EXPECT_THROW(h.sched.set_tenant_qos(3, 1, TenantQos{1.0, -5.0}), CheckError);
  EXPECT_THROW(
      h.sched.set_tenant_qos(
          3, 1, TenantQos{1.0, std::numeric_limits<double>::quiet_NaN()}),
      CheckError);
  EXPECT_THROW(h.sched.set_tenant_qos(7, 1, TenantQos{}), CheckError)
      << "unknown level";
  // Nothing landed.
  EXPECT_DOUBLE_EQ(h.sched.tenant_qos(3, 1).weight, 1.0);
}

TEST(XferQos, SubmitRecordsTenant) {
  Harness h;
  const TransferId a = h.sched.submit(3, "a", pattern_bytes(100, 1), 42);
  const TransferId b = h.sched.submit(3, "b", pattern_bytes(100, 2));
  EXPECT_EQ(h.sched.record(a).tenant, 42u);
  EXPECT_EQ(h.sched.record(b).tenant, 0u) << "default tenant";
}

TEST(XferQos, WeightedTenantsSplitResidualProportionally) {
  TransferScheduler::Config cfg;
  cfg.chunk_bytes = 100;
  Harness h(cfg, {1000.0, 0.0});
  h.sched.set_tenant_qos(3, 1, TenantQos{2.0, 0.0});
  h.sched.set_tenant_qos(3, 2, TenantQos{1.0, 0.0});
  const Bytes a = pattern_bytes(1000, 11);
  const Bytes b = pattern_bytes(1000, 12);
  const TransferId ia = h.sched.submit(3, "a", a, 1);
  const TransferId ib = h.sched.submit(3, "b", b, 2);
  h.sched.run_until_idle();

  // While both drain, tenant 1 is priced at 2/3 of the channel and tenant 2
  // at 1/3: tenant 1's 1000 B land at 1.5 s. Tenant 2 has 500 B acked by
  // then and finishes the rest alone at full bandwidth: 1.5 + 0.5 = 2.0 s.
  const TransferRecord& ra = h.sched.record(ia);
  const TransferRecord& rb = h.sched.record(ib);
  ASSERT_EQ(ra.state, TransferState::kCommitted);
  ASSERT_EQ(rb.state, TransferState::kCommitted);
  EXPECT_NEAR(ra.commit_time, 1.5, 1e-9);
  EXPECT_NEAR(rb.commit_time, 2.0, 1e-9);
  EXPECT_EQ(*h.target.get("a"), a);
  EXPECT_EQ(*h.target.get("b"), b);
}

TEST(XferQos, ReservationHonoredUnderEightWayContention) {
  TransferScheduler::Config cfg;
  cfg.chunk_bytes = 100;
  Harness h(cfg, {8000.0, 0.0});
  h.sched.set_tenant_qos(3, 1, TenantQos{1.0, 2000.0});

  std::vector<TransferId> ids;
  std::vector<Bytes> payloads;
  for (std::uint64_t t = 1; t <= 8; ++t) {
    payloads.push_back(pattern_bytes(2000, 100 + t));
    ids.push_back(
        h.sched.submit(3, "job" + std::to_string(t), payloads.back(), t));
  }

  // Mid-contention snapshot: the reserved tenant drains at exactly its
  // 2000 bps lane; the seven best-effort tenants split the 6000 bps
  // residual equally (~857 bps each, quantized to whole 100 B chunks).
  h.sched.run_until(0.91);
  EXPECT_EQ(h.sched.record(ids[0]).acked_bytes, 1800u)
      << "reserved lane: ~0.9 s at 2000 bps, whole chunks";
  const std::uint64_t share = h.sched.record(ids[1]).acked_bytes;
  const double expected = 0.91 * 6000.0 / 7.0;
  EXPECT_NEAR(double(share), expected, 120.0)
      << "best-effort share ~ B_residual/N up to chunk granularity";
  for (std::size_t i = 2; i < ids.size(); ++i) {
    EXPECT_EQ(h.sched.record(ids[i]).acked_bytes, share)
        << "equal-weight tenants progress in lockstep";
  }

  h.sched.run_until_idle();
  // The reserved tenant's 2000 B at 2000 bps commit at 1.0 s — the
  // reservation held within far less than the ±10% the SLA promises.
  const TransferRecord& res = h.sched.record(ids[0]);
  ASSERT_EQ(res.state, TransferState::kCommitted);
  EXPECT_NEAR(res.commit_time, 1.0, 0.1);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(h.sched.record(ids[i]).state, TransferState::kCommitted);
    EXPECT_EQ(*h.target.get("job" + std::to_string(i + 1)), payloads[i]);
  }
}

TEST(XferQos, FullChannelReservationStarvesBestEffort) {
  TransferScheduler::Config cfg;
  cfg.chunk_bytes = 100;
  Harness h(cfg, {1000.0, 0.0});
  h.sched.set_tenant_qos(3, 1, TenantQos{1.0, 1000.0});
  const Bytes a = pattern_bytes(500, 21);
  const Bytes b = pattern_bytes(300, 22);
  const TransferId ia = h.sched.submit(3, "a", a, 1);
  const TransferId ib = h.sched.submit(3, "b", b, 2);

  // While the reserved tenant is active there is no residual: the
  // best-effort attempt is priced at zero bandwidth and never completes —
  // virtual time passes it by (no hang, no division fault).
  h.sched.run_until(5.0);
  EXPECT_EQ(h.sched.record(ia).state, TransferState::kCommitted);
  EXPECT_NEAR(h.sched.record(ia).commit_time, 0.5, 1e-9);
  EXPECT_EQ(h.sched.record(ib).state, TransferState::kInFlight);
  EXPECT_EQ(h.sched.record(ib).acked_bytes, 0u);

  // Interrupt + resume reprices: with the reserved tenant idle its lane is
  // returned to the residual and the starved drain finishes at full speed.
  EXPECT_TRUE(h.sched.interrupt(ib));
  EXPECT_TRUE(h.sched.resume(ib));
  h.sched.run_until_idle();
  const TransferRecord& rb = h.sched.record(ib);
  ASSERT_EQ(rb.state, TransferState::kCommitted);
  EXPECT_NEAR(rb.commit_time, 5.3, 1e-9);
  EXPECT_EQ(*h.target.get("b"), b);
}

TEST(XferQos, QosChangeRepricesTheNextChunkOfALiveTenant) {
  TransferScheduler::Config cfg;
  cfg.chunk_bytes = 100;
  Harness h(cfg, {1000.0, 0.0});
  // Two staggered streams of tenant 1, so its lane never closes: a stream
  // ending always finds the other one on the wire.
  const Bytes a = pattern_bytes(1000, 41);
  const Bytes b = pattern_bytes(1000, 42);
  const TransferId ia = h.sched.submit(3, "a", a, 1);
  h.sched.run_until(0.05);  // a alone at 1000 bps: its first chunk ends 0.1
  const TransferId ib = h.sched.submit(3, "b", b, 1);
  // From here on each chunk is priced at 500 bps (0.2 s): a's second chunk
  // runs 0.1-0.3, b's first two 0.05-0.25 and 0.25-0.45.
  h.sched.run_until(0.27);
  EXPECT_EQ(h.sched.record(ia).acked_bytes, 100u);
  EXPECT_EQ(h.sched.record(ib).acked_bytes, 100u);

  // The tenant's new reservation binds from its next chunk start on; the
  // chunks already on the wire keep their price. 250 bps over two streams
  // is 125 bps each, so a chunk takes 0.8 s.
  h.sched.set_tenant_qos(3, 1, TenantQos{1.0, 250.0});
  h.sched.run_until(1.0);
  EXPECT_EQ(h.sched.record(ia).acked_bytes, 200u)
      << "a's chunk started at 0.3 must run until 1.1";
  EXPECT_EQ(h.sched.record(ib).acked_bytes, 200u)
      << "b's chunk started at 0.45 must run until 1.25";

  h.sched.run_until_idle();
  const TransferRecord& ra = h.sched.record(ia);
  const TransferRecord& rb = h.sched.record(ib);
  ASSERT_EQ(ra.state, TransferState::kCommitted);
  ASSERT_EQ(rb.state, TransferState::kCommitted);
  EXPECT_NEAR(ra.commit_time, 0.3 + 8 * 0.8, 1e-9);
  EXPECT_NEAR(rb.commit_time, 0.45 + 8 * 0.8, 1e-9);
  EXPECT_EQ(*h.target.get("a"), a);
  EXPECT_EQ(*h.target.get("b"), b);
}

TEST(XferQos, PerTransferInterruptAndResume) {
  TransferScheduler::Config cfg;
  cfg.chunk_bytes = 100;
  Harness h(cfg);
  const Bytes a = pattern_bytes(1000, 31);
  const Bytes b = pattern_bytes(1000, 32);
  const TransferId ia = h.sched.submit(3, "a", a);
  const TransferId ib = h.sched.submit(3, "b", b);

  h.sched.run_until(0.5);  // both at 200 B acked, 3rd chunks in flight
  EXPECT_TRUE(h.sched.interrupt(ia));
  EXPECT_EQ(h.sched.record(ia).state, TransferState::kInterrupted);
  EXPECT_EQ(h.sched.record(ia).acked_bytes, 200u);
  EXPECT_EQ(h.sched.record(ib).state, TransferState::kInFlight)
      << "a single-job failure leaves the other drain untouched";

  EXPECT_FALSE(h.sched.interrupt(ia)) << "already interrupted";
  EXPECT_FALSE(h.sched.resume(ib)) << "not interrupted";

  EXPECT_TRUE(h.sched.resume(ia));
  EXPECT_FALSE(h.sched.resume(ia)) << "already resumed";
  h.sched.run_until_idle();
  ASSERT_EQ(h.sched.record(ia).state, TransferState::kCommitted);
  ASSERT_EQ(h.sched.record(ib).state, TransferState::kCommitted);
  EXPECT_EQ(*h.target.get("a"), a);
  EXPECT_EQ(*h.target.get("b"), b);

  EXPECT_FALSE(h.sched.interrupt(ia))
      << "interrupt racing a commit is a no-op, not an error";
  EXPECT_THROW(h.sched.interrupt(TransferId{999}), CheckError);
  EXPECT_THROW(h.sched.resume(TransferId{999}), CheckError);
}

}  // namespace
}  // namespace aic::xfer
