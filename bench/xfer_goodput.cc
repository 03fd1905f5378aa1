// Transfer-engine goodput bench: the Fig. 7 sharing mechanism measured at
// the chunk level, plus retry pressure on a lossy channel.
//
// Part 1 drains N equal checkpoint objects concurrently over one channel
// and reports each drain's goodput: the engine prices every chunk at the
// bandwidth split over the attempts on the wire when it starts, so
// per-drain goodput must track B/N (the sharing factor emergent, not
// assumed) while aggregate goodput stays ~B.
//
// Part 2 repeats a drain over channels with increasing drop probability
// and reports the xfer::Stats counters (chunks, retries, wasted bytes,
// backoff time): everything still commits, goodput degrades monotonically.
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/table.h"
#include "storage/storage.h"
#include "storage/target_sink.h"
#include "xfer/scheduler.h"

using namespace aic;

namespace {

Bytes object_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes b(n);
  for (auto& x : b) x = std::uint8_t(rng());
  return b;
}

}  // namespace

int main() {
  bench::Session session("xfer_goodput");
  bench::Checker check;
  const double bandwidth = 1.0e6;  // 1 MB/s channel
  const std::size_t object_size = bench::smoke_pick<std::size_t>(
      std::size_t(2) << 20, std::size_t(64) << 10);
  const std::size_t chunk = bench::smoke_pick<std::size_t>(64 << 10, 8 << 10);

  // ---- Part 1: emergent bandwidth sharing ----
  TextTable sharing("xfer goodput — per-drain share vs concurrent drains");
  sharing.set_header({"streams", "per-drain B/s", "expected B/N",
                      "aggregate B/s", "elapsed s"});
  for (std::size_t n : {1, 2, 4, 8}) {
    storage::RemoteStore target(1.0e12);
    storage::TargetSink sink(target);
    xfer::TransferScheduler::Config cfg;
    cfg.chunk_bytes = chunk;
    xfer::TransferScheduler sched(cfg);
    sched.add_level(3, {bandwidth, 0.0}, &sink);

    std::vector<xfer::TransferId> ids;
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(sched.submit(3, "obj-" + std::to_string(i),
                                 object_bytes(object_size, i + 1)));
    }
    sched.run_until_idle();

    double per_drain = 0.0;
    for (xfer::TransferId id : ids) {
      const xfer::TransferRecord& rec = sched.record(id);
      per_drain += double(rec.total_bytes) /
                   (rec.commit_time - rec.submit_time) / double(n);
    }
    const double aggregate = sched.stats().goodput_bps(sched.now());
    const double expected = bandwidth / double(n);
    sharing.add_row({TextTable::num(double(n), 0),
                     TextTable::num(per_drain, 0),
                     TextTable::num(expected, 0),
                     TextTable::num(aggregate, 0),
                     TextTable::num(sched.now(), 2)});
    auto& per = session.metric("goodput.per_drain.n" + std::to_string(n),
                               "B/s", /*higher_is_better=*/true);
    per.params["streams"] = double(n);
    per.samples.push_back(per_drain);
    session.sample("goodput.aggregate.n" + std::to_string(n), "B/s",
                   aggregate, /*higher_is_better=*/true);
    check.expect(per_drain > 0.9 * expected && per_drain < 1.1 * expected,
                 "per-drain goodput ~ B/" + std::to_string(n) +
                     " with " + std::to_string(n) + " concurrent drains");
    check.expect(aggregate > 0.9 * bandwidth,
                 "aggregate goodput fills the channel at N = " +
                     std::to_string(n));
  }
  sharing.print(std::cout);
  sharing.print_csv(std::cout);

  // ---- Part 2: retry pressure on a lossy channel ----
  TextTable lossy("xfer stats — lossy channel (seeded drop probability)");
  lossy.set_header({"drop p", "chunks", "retries", "wasted B", "backoff s",
                    "goodput B/s"});
  double last_goodput = 2.0 * bandwidth;
  for (double p : {0.0, 0.1, 0.3}) {
    storage::RemoteStore target(1.0e12);
    storage::TargetSink sink(target);
    xfer::TransferScheduler::Config cfg;
    cfg.chunk_bytes = chunk;
    cfg.retry.max_attempts_per_chunk = 32;  // ride out long loss bursts
    cfg.retry.initial_backoff_s = 0.01;
    cfg.retry.max_backoff_s = 0.16;
    xfer::TransferScheduler sched(cfg);
    sched.add_level(3, {bandwidth, 0.0}, &sink);
    sched.channel(3).set_drop_probability(p, 42);

    const xfer::TransferId id =
        sched.submit(3, "obj", object_bytes(object_size, 7));
    sched.run_until_idle();

    const xfer::TransferRecord& rec = sched.record(id);
    const xfer::Stats s = sched.stats();
    const double goodput = s.goodput_bps(sched.now());
    lossy.add_row({TextTable::num(p, 2),
                   TextTable::num(double(s.chunks_sent), 0),
                   TextTable::num(double(s.retries), 0),
                   TextTable::num(double(s.bytes_wasted), 0),
                   TextTable::num(s.backoff_seconds, 3),
                   TextTable::num(goodput, 0)});
    std::string pk = "p";
    pk += TextTable::num(p, 2);
    session.sample("goodput.lossy." + pk, "B/s", goodput,
                   /*higher_is_better=*/true);
    session.sample("retries.lossy." + pk, "count", double(s.retries));
    session.sample("backoff.lossy." + pk, "s", s.backoff_seconds);
    check.expect(rec.state == xfer::TransferState::kCommitted,
                 "drain commits despite drop p = " + TextTable::num(p, 2));
    check.expect(goodput < last_goodput,
                 "goodput degrades monotonically at drop p = " +
                     TextTable::num(p, 2));
    if (p > 0.0) {
      check.expect(s.retries > 0, "losses force retries at drop p = " +
                                      TextTable::num(p, 2));
    }
    last_goodput = goodput;
  }
  lossy.print(std::cout);
  lossy.print_csv(std::cout);

  return session.finish(check);
}
