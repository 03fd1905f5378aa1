// The checkpoint data plane, both directions:
//
//   ckpt-milc            the write path — halt, delta capture, put, drain,
//                        retention — once every 2 virtual seconds;
//   restart-libquantum   the read path — node-loss recovery from L2,
//                        in-place chain replay, materialize.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>

#include "bench.h"
#include "ckpt/checkpointer.h"
#include "common/check.h"
#include "common/rng.h"
#include "mem/snapshot.h"
#include "obs/names.h"
#include "storage/multilevel_store.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

namespace on = aic::obs::names;
using aic::ckpt::CaptureStats;
using aic::ckpt::CheckpointKind;
using aic::mem::PageId;
using aic::workload::SpecBenchmark;

constexpr double kScale = 0.25;            // 2048 pages, an 8 MiB footprint
constexpr double kIntervalS = 2.0;         // virtual seconds per interval
constexpr std::uint32_t kMilcFullPeriod = 24;
constexpr std::size_t kMilcPeriod = kMilcFullPeriod + 1;  // intervals

// Fixed work per --seconds, calibrated so one run measures about that long
// on the reference host at the commit that introduced the benchmark.
constexpr double kMilcPeriodsPerSecond = 4.0;
constexpr double kRestoresPerSecond = 45.0;
// Floors that keep each reported percentile backed by >= 10 samples beyond
// it: p95 needs 200 checkpoints, p90 needs 100 restores.
constexpr std::size_t kMinMilcPeriods = 8;
constexpr std::size_t kMinRestores = 100;

// restart-libquantum's chain: 1 full + 47 incrementals.
constexpr std::size_t kRestartChain = 48;

/// One application process and its checkpoint write path: the workload,
/// its address space, the delta chain and the multi-level store.
class WritePath {
 public:
  WritePath(SpecBenchmark kernel, std::uint64_t seed, std::uint32_t full_period,
            aic::obs::Hub* hub)
      : workload_(profile(kernel, seed)),
        chain_(chain_config(full_period, hub)),
        store_(store_config(hub)) {
    workload_.initialize(space_);
  }

  struct Interval {
    double timed_s = 0.0;  // step + checkpoint + retention
    double halt_s = 0.0;   // the blocking capture (c1)
    double tts_s = 0.0;    // halt start -> L2 and L3 drains committed
    CaptureStats stats;
    std::uint64_t live_pages = 0;
    bool committed = false;
  };

  /// Runs the application for one interval, then checkpoints: halt, delta
  /// capture, put, drain to idle, and — after a full checkpoint — drops
  /// every older file from the chain and the store.
  Interval interval(Ledger& ledger) {
    Interval out;
    const double t0 = ledger.now();
    {
      Ledger::Span s(ledger, "workload.step");
      workload_.step(space_, kIntervalS);
    }
    Ledger::Span op(ledger, "op.checkpoint");
    aic::mem::Snapshot pages;
    std::vector<PageId> live;
    {
      Ledger::Span halt(ledger, "mem.halt");
      const bool full = chain_.next_capture_is_full();
      std::vector<PageId> dirty;
      {
        Ledger::Span t(ledger, "mem.track");
        live = space_.live_pages();
        if (!full) dirty = space_.dirty_pages();
      }
      {
        Ledger::Span c(ledger, "mem.capture");
        pages = aic::mem::Snapshot::capture_pages(space_, full ? live : dirty);
      }
      {
        Ledger::Span t(ledger, "mem.track");
        space_.protect_all();
      }
      out.halt_s = halt.close();
    }
    {
      Ledger::Span c(ledger, "ckpt.capture");
      out.stats = chain_.capture_pages(pages, live, workload_.cpu_state(),
                                       workload_.progress());
      pages = aic::mem::Snapshot();  // the capture copy is consumed
    }
    aic::storage::DrainTicket ticket;
    {
      Ledger::Span p(ledger, "storage.put");
      ticket = store_.put_checkpoint_async(chain_.files().back());
    }
    {
      Ledger::Span d(ledger, "xfer.drain");
      store_.xfer().run_until_idle();
    }
    out.tts_s = op.close();
    if (out.stats.kind == CheckpointKind::kFull && ticket.index > first_kept_) {
      Ledger::Span r(ledger, "storage.retain");
      chain_.truncate_before_last_full();
      for (std::uint64_t i = first_kept_; i < ticket.index; ++i) {
        store_.reclaim_checkpoint(i);
      }
      first_kept_ = ticket.index;
    }
    out.timed_s = ledger.now() - t0;
    out.live_pages = live.size();
    out.committed = committed(ticket.raid) && committed(ticket.remote);
    return out;
  }

  const aic::mem::AddressSpace& space() const { return space_; }
  const aic::ckpt::CheckpointChain& chain() const { return chain_; }
  aic::storage::MultiLevelStore& store() { return store_; }

 private:
  static aic::workload::WorkloadProfile profile(SpecBenchmark kernel,
                                                std::uint64_t seed) {
    aic::workload::WorkloadProfile p = aic::workload::spec_profile(kernel, kScale);
    p.seed = seed;
    // The phases cycle for as long as the application runs; run it for as
    // long as the benchmark checkpoints it (the paper's base time would
    // end milc after 263 intervals and leave every later checkpoint empty).
    p.base_time = 1e9;
    return p;
  }
  static aic::ckpt::CheckpointChain::Config chain_config(
      std::uint32_t full_period, aic::obs::Hub* hub) {
    aic::ckpt::CheckpointChain::Config c;
    c.full_period = full_period;
    c.compress_workers = kCompressWorkers;
    c.obs = hub;
    return c;
  }
  static aic::storage::MultiLevelConfig store_config(aic::obs::Hub* hub) {
    aic::storage::MultiLevelConfig c;
    c.xfer.obs = hub;
    return c;
  }
  bool committed(const std::optional<aic::xfer::TransferId>& id) const {
    return id.has_value() && store_.xfer().known(*id) &&
           store_.xfer().record(*id).state ==
               aic::xfer::TransferState::kCommitted;
  }

  aic::workload::SyntheticWorkload workload_;
  aic::mem::AddressSpace space_;
  aic::ckpt::CheckpointChain chain_;
  aic::storage::MultiLevelStore store_;
  std::uint64_t first_kept_ = 0;  // oldest store index still held
};

/// Byte-exact check of the final chain: the in-memory chain and the store's
/// L1 copies (parsed back from their serialized bytes) must both replay to
/// the live space. A CheckError while restoring is a mismatch.
bool final_chain_matches(WritePath& path) try {
  const auto mem = path.chain().restore();
  if (!mem.memory.equals_space(path.space())) return false;
  const auto rec = path.store().recover();
  if (!rec.has_value() || rec->level_used != 1) return false;
  const aic::delta::PageAlignedCompressor codec;
  const auto disk = aic::ckpt::RestartEngine::restore(rec->chain, codec);
  return disk.memory.equals_space(path.space()) &&
         disk.sequence == mem.sequence;
} catch (const aic::CheckError&) {
  return false;
}

/// Totals over the intervals of one side (traced or untraced) of a run.
struct WriteTotals {
  std::size_t ops = 0;
  double timed_s = 0.0;
  std::uint64_t live_pages = 0;
  std::uint64_t captured_pages = 0;
  std::uint64_t incr_pages = 0;
  std::uint64_t file_bytes = 0;
  std::uint64_t uncompressed_bytes = 0;

  void add(const WritePath::Interval& iv) {
    ++ops;
    timed_s += iv.timed_s;
    live_pages += iv.live_pages;
    captured_pages += iv.stats.pages_written;
    if (iv.stats.kind != CheckpointKind::kFull) {
      incr_pages += iv.stats.pages_written;
    }
    file_bytes += iv.stats.file_bytes;
    uncompressed_bytes += iv.stats.uncompressed_bytes;
  }
};

/// Snapshot of the hub counters the delta and xfer layers maintain.
struct HubCounters {
  std::uint64_t bytes_in = 0, bytes_out = 0;
  std::uint64_t pages_delta = 0, pages_raw = 0, pages_same = 0;
  std::uint64_t chunks = 0, retries = 0, bytes_acked = 0;

  static HubCounters read(const aic::obs::Hub* hub) {
    const auto snap = hub->metrics.snapshot();
    HubCounters c;
    c.bytes_in = snap.counter_or_zero(on::kDeltaBytesIn);
    c.bytes_out = snap.counter_or_zero(on::kDeltaBytesOut);
    c.pages_delta = snap.counter_or_zero(on::kDeltaPagesDelta);
    c.pages_raw = snap.counter_or_zero(on::kDeltaPagesRaw);
    c.pages_same = snap.counter_or_zero(on::kDeltaPagesSame);
    c.chunks = snap.counter_or_zero(on::kXferChunksSent);
    c.retries = snap.counter_or_zero(on::kXferRetries);
    c.bytes_acked = snap.counter_or_zero(on::kXferBytesAcked);
    return c;
  }
  HubCounters operator-(const HubCounters& o) const {
    return {bytes_in - o.bytes_in,       bytes_out - o.bytes_out,
            pages_delta - o.pages_delta, pages_raw - o.pages_raw,
            pages_same - o.pages_same,   chunks - o.chunks,
            retries - o.retries,         bytes_acked - o.bytes_acked};
  }
};

/// The data-plane ledgers must attribute at least 95% of the timed wall to
/// a layer.
std::string coverage_check(double coverage) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "CHECK %-4s ledger.coverage %.4f >= 0.95",
                coverage >= 0.95 ? "ok" : "FAIL", coverage);
  return buf;
}

}  // namespace

Result run_ckpt_milc(const Options& opt) {
  Result r;
  // As for restores: the traced run's untraced half alone backs p95.
  const std::size_t periods = std::max<std::size_t>(
      kMinMilcPeriods * (opt.trace ? 2 : 1),
      std::size_t(std::ceil(opt.seconds * kMilcPeriodsPerSecond)));
  auto warm = [&](WritePath& path, Ledger& ledger) {
    // Warm-up: the first full period (1 full + 24 incrementals).
    for (std::size_t i = 0; i < kMilcPeriod; ++i) path.interval(ledger);
  };
  // One checkpoint interval is one operation. A CheckError ends the timed
  // phase: the chain's state is then unknown, so every operation not yet
  // run counts as failed too.
  const std::size_t planned = periods * kMilcPeriod;
  bool broken = false;
  auto op = [&](WritePath& path, Ledger& ledger)
      -> std::optional<WritePath::Interval> {
    ++r.attempted;
    try {
      WritePath::Interval iv = path.interval(ledger);
      if (!iv.committed) ++r.failed;
      return iv;
    } catch (const aic::CheckError& e) {
      broken = true;
      r.failed += 1 + (planned - r.attempted);
      r.attempted = planned;
      r.notes.push_back(std::string("CheckError: ") + e.what());
      return std::nullopt;
    }
  };
  auto check_final = [&](WritePath& path) {
    if (!broken && final_chain_matches(path)) return;
    r.failed = r.attempted;
    r.notes.push_back("CHECK FAIL final chain does not restore the live space");
  };

  if (!opt.trace) {
    Ledger ledger(nullptr);
    ledger.set_recording(false);
    Samples setup;
    std::unique_ptr<WritePath> path;
    for (int rep = 0; rep < kSetupReps; ++rep) {
      path.reset();  // one state alive at a time
      const double t0 = now_s();
      path = std::make_unique<WritePath>(SpecBenchmark::kMilc, opt.seed,
                                         kMilcFullPeriod, nullptr);
      warm(*path, ledger);
      setup.add(now_s() - t0);
    }
    Samples halt, tts;
    WriteTotals tot;
    for (std::size_t i = 0; i < planned && !broken; ++i) {
      const auto iv = op(*path, ledger);
      if (!iv) break;
      halt.add(iv->halt_s);
      tts.add(iv->tts_s);
      tot.add(*iv);
    }
    check_final(*path);
    if (r.failed == 0) {
      r.notes.push_back("CHECK ok   final chain restores the live space byte for byte");
    }
    r.metrics["setup_s"] = setup.quantile(0.5);
    r.metrics["run_wall_s"] = tot.timed_s;
    r.metrics["op_p50_ms"] = tts.quantile(0.5) * 1e3;
    r.metrics["peak_rss_MiB"] = peak_rss_mib();
    r.notes.push_back(describe("setup", setup, 1.0, "s", 0.5));
    r.notes.push_back(describe("halt (c1)", halt, 1e3, "ms", 0.95));
    r.notes.push_back(describe("time to safe (op)", tts, 1e3, "ms", 0.95));
    char buf[160];
    std::snprintf(buf, sizeof buf,
                  "ckpt_MBps %.3f, stored_ratio %.6f over %zu checkpoints",
                  safe_div(double(tot.uncompressed_bytes), tts.sum()) / 1e6,
                  safe_div(double(tot.file_bytes), double(tot.uncompressed_bytes)),
                  tot.ops);
    r.notes.push_back(buf);
    return r;
  }

  // Traced run: two identical processes' states (same seed), one with a hub
  // on its chain and store, alternating by full period.
  aic::obs::Hub hub;
  Ledger ledger(&hub);
  ledger.set_recording(false);
  WritePath plain(SpecBenchmark::kMilc, opt.seed, kMilcFullPeriod, nullptr);
  warm(plain, ledger);
  WritePath traced(SpecBenchmark::kMilc, opt.seed, kMilcFullPeriod, &hub);
  warm(traced, ledger);

  const HubCounters before = HubCounters::read(&hub);
  Samples halt, tts;
  WriteTotals plain_tot, traced_tot;
  for (std::size_t b = 0; b < periods && !broken; ++b) {
    const bool on = traced_block(b);
    ledger.set_recording(on);
    WritePath& path = on ? traced : plain;
    for (std::size_t i = 0; i < kMilcPeriod; ++i) {
      const auto iv = op(path, ledger);
      if (!iv) break;
      if (on) {
        traced_tot.add(*iv);
      } else {
        plain_tot.add(*iv);
        halt.add(iv->halt_s);
        tts.add(iv->tts_s);
      }
    }
  }
  ledger.set_recording(false);
  const HubCounters d = HubCounters::read(&hub) - before;
  check_final(plain);
  check_final(traced);

  const auto layers = ledger.layers();
  auto layer = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? Ledger::Layer{} : it->second;
  };
  const double timed = traced_tot.timed_s;
  auto share = [&](const char* name) { return safe_div(layer(name).total_s, timed); };
  const double encode_s = layer("delta.encode").self_s;
  auto& m = r.metrics;
  m["mem.halt.share"] = share("mem.halt");
  m["mem.track.ns_per_page"] =
      safe_div(layer("mem.track").total_s, double(traced_tot.live_pages)) * 1e9;
  m["mem.capture.GBps"] =
      safe_div(double(traced_tot.captured_pages) * aic::kPageSize,
               layer("mem.capture").total_s) / 1e9;
  m["ckpt.capture.share"] = share("ckpt.capture");
  m["ckpt.checkpoints"] = double(traced_tot.ops);
  m["delta.encode.share"] = safe_div(encode_s, timed);
  m["delta.encode.MBps"] = safe_div(double(d.bytes_in), encode_s) / 1e6;
  m["delta.encode.ns_per_page"] =
      safe_div(encode_s, double(traced_tot.incr_pages)) * 1e9;
  m["delta.shard_wait.share"] =
      safe_div(layer("delta.encode").straggler_s, timed);
  const double encoded = double(d.pages_delta + d.pages_raw + d.pages_same);
  m["delta.raw_share"] = safe_div(double(d.pages_raw), encoded);
  m["delta.same_share"] = safe_div(double(d.pages_same), encoded);
  m["delta.out_per_in"] = safe_div(double(d.bytes_out), double(d.bytes_in));
  m["storage.put.share"] = share("storage.put");
  m["storage.put.GBps"] =
      safe_div(double(traced_tot.file_bytes), layer("storage.put").total_s) / 1e9;
  m["xfer.drain.share"] = share("xfer.drain");
  m["xfer.drain.GBps"] =
      safe_div(double(d.bytes_acked), layer("xfer.drain").total_s) / 1e9;
  m["xfer.chunks"] = double(d.chunks);
  m["xfer.drain.us_per_chunk"] =
      safe_div(layer("xfer.drain").total_s, double(d.chunks)) * 1e6;
  m["xfer.retries"] = double(d.retries);
  m["storage.retain.share"] = share("storage.retain");
  m["workload.step.share"] = share("workload.step");
  m["ledger.coverage"] = safe_div(ledger.covered_seconds(), timed);
  r.notes.push_back(coverage_check(m["ledger.coverage"]));
  m["obs.trace_overhead"] = safe_div(traced_tot.timed_s, plain_tot.timed_s) - 1.0;
  // Operation latencies from the untraced blocks.
  m["ckpt.halt_p50_ms"] = halt.quantile(0.5) * 1e3;
  m["ckpt.halt_p95_ms"] = halt.quantile(0.95) * 1e3;
  m["ckpt.tts_p50_ms"] = tts.quantile(0.5) * 1e3;
  m["ckpt.tts_p95_ms"] = tts.quantile(0.95) * 1e3;
  m["ckpt.MBps"] = safe_div(double(plain_tot.uncompressed_bytes), tts.sum()) / 1e6;
  m["ckpt.stored_ratio"] =
      safe_div(double(plain_tot.file_bytes), double(plain_tot.uncompressed_bytes));
  r.notes.push_back(describe("halt (c1, untraced blocks)", halt, 1e3, "ms", 0.95));
  r.notes.push_back(describe("time to safe (untraced blocks)", tts, 1e3, "ms", 0.95));

  const std::string stem = opt.out_dir + "/ckpt-milc-seed" + std::to_string(opt.seed);
  ledger.write_chrome_trace(stem + ".trace.json");
  write_ledger_table(stem + ".ledger.txt", "ckpt-milc traced ledger", layers,
                     timed, r);
  r.notes.push_back("trace: " + stem + ".trace.json, ledger: " + stem + ".ledger.txt");
  return r;
}

Result run_restart_libquantum(const Options& opt) {
  Result r;
  // The traced run splits the restores between traced and untraced halves;
  // the untraced half alone must still back p90.
  const std::size_t restores = std::max<std::size_t>(
      kMinRestores * (opt.trace ? 2 : 1),
      std::size_t(std::ceil(opt.seconds * kRestoresPerSecond)));

  // Set-up: write the chain through the same write path, then lose the
  // node (L1 gone, one RAID member rebuilt).
  struct Prepared {
    std::unique_ptr<WritePath> path;
    std::uint64_t reference = 0;   // digest of the checkpointed image
    std::uint64_t sequence = 0;    // newest checkpoint's sequence
    std::uint64_t chain_bytes = 0;
    std::uint64_t chain_pages = 0;     // page records replayed per restore
    std::uint64_t image_pages = 0;
    std::uint64_t records_delta = 0, records_same = 0, records_raw = 0;
  };
  auto prepare = [&](Ledger& ledger) {
    Prepared p;
    p.path = std::make_unique<WritePath>(SpecBenchmark::kLibquantum, opt.seed,
                                         0 /* only the first is full */, nullptr);
    for (std::size_t i = 0; i < kRestartChain; ++i) {
      const WritePath::Interval iv = p.path->interval(ledger);
      p.chain_pages += iv.stats.pages_written;
      if (iv.stats.kind != CheckpointKind::kFull) {
        p.records_delta += iv.stats.pages_delta;
        p.records_same += iv.stats.pages_same;
        p.records_raw += iv.stats.pages_raw;
      }
    }
    p.reference = image_digest(p.path->space());
    p.image_pages = p.path->space().page_count();
    p.sequence = p.path->chain().files().back().sequence;
    p.chain_bytes = p.path->chain().restart_chain_bytes();
    aic::Rng rng(opt.seed);
    p.path->store().apply_failure(2, rng);
    return p;
  };

  aic::obs::Hub hub;
  Ledger ledger(opt.trace ? &hub : nullptr);
  ledger.set_recording(false);
  Samples setup;
  Prepared prep;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    prep = Prepared{};  // one state alive at a time
    const double t0 = now_s();
    prep = prepare(ledger);
    setup.add(now_s() - t0);
  }

  const aic::delta::PageAlignedCompressor codec;  // the chain's coder
  Samples plain, traced;
  for (std::size_t i = 0; i < restores; ++i) {
    const bool on = opt.trace && traced_block(i);
    ledger.set_recording(on);
    ++r.attempted;
    try {
      std::optional<aic::storage::MultiLevelStore::Recovery> rec;
      aic::ckpt::RestartEngine::Restored restored;
      aic::mem::AddressSpace space;
      double wall = 0.0;
      {
        Ledger::Span op(ledger, "op.restore");
        {
          Ledger::Span s(ledger, "storage.recover");
          rec = prep.path->store().recover();
        }
        if (rec.has_value()) {
          {
            Ledger::Span s(ledger, "ckpt.replay");
            restored = aic::ckpt::RestartEngine::restore(rec->chain, codec);
          }
          Ledger::Span s(ledger, "mem.materialize");
          space = restored.memory.materialize();
        }
        wall = op.close();
      }
      (on ? traced : plain).add(wall);
      ledger.set_recording(false);
      const bool ok = rec.has_value() && rec->level_used == 2 &&
                      restored.sequence == prep.sequence &&
                      image_digest(space) == prep.reference;
      if (!ok) ++r.failed;
    } catch (const aic::CheckError& e) {
      ++r.failed;
      r.notes.push_back(std::string("CheckError: ") + e.what());
    }
  }
  ledger.set_recording(false);

  if (!opt.trace) {
    r.metrics["setup_s"] = setup.quantile(0.5);
    r.metrics["run_wall_s"] = plain.sum();
    r.metrics["op_p50_ms"] = plain.quantile(0.5) * 1e3;
    r.metrics["peak_rss_MiB"] = peak_rss_mib();
    r.notes.push_back(describe("setup", setup, 1.0, "s", 0.5));
    r.notes.push_back(describe("node-loss restart (op)", plain, 1e3, "ms", 0.9));
    return r;
  }

  const auto layers = ledger.layers();
  auto layer = [&](const char* name) {
    auto it = layers.find(name);
    return it == layers.end() ? Ledger::Layer{} : it->second;
  };
  const double timed = traced.sum();
  const double n = double(traced.size());
  auto& m = r.metrics;
  const double image_bytes = double(prep.image_pages) * aic::kPageSize;
  m["storage.recover.share"] = safe_div(layer("storage.recover").total_s, timed);
  m["storage.recover.GBps"] =
      safe_div(double(prep.chain_bytes) * n, layer("storage.recover").total_s) / 1e9;
  m["ckpt.replay.share"] = safe_div(layer("ckpt.replay").total_s, timed);
  m["ckpt.replay.GBps"] =
      safe_div(double(prep.chain_pages) * aic::kPageSize * n,
               layer("ckpt.replay").total_s) / 1e9;
  m["ckpt.replay.ns_per_page"] =
      safe_div(layer("ckpt.replay").total_s, double(prep.chain_pages) * n) * 1e9;
  m["mem.materialize.share"] = safe_div(layer("mem.materialize").total_s, timed);
  m["mem.materialize.GBps"] =
      safe_div(image_bytes * n, layer("mem.materialize").total_s) / 1e9;
  m["restart.chain_bytes"] = double(prep.chain_bytes);
  m["restart.records_delta"] = double(prep.records_delta);
  m["restart.records_same"] = double(prep.records_same);
  m["restart.records_raw"] = double(prep.records_raw);
  m["ledger.coverage"] = safe_div(ledger.covered_seconds(), timed);
  r.notes.push_back(coverage_check(m["ledger.coverage"]));
  m["obs.trace_overhead"] =
      safe_div(traced.sum() / n, plain.sum() / double(plain.size())) - 1.0;
  m["restart.restore_p50_ms"] = plain.quantile(0.5) * 1e3;
  m["restart.restore_p90_ms"] = plain.quantile(0.9) * 1e3;
  r.notes.push_back(describe("node-loss restart (untraced)", plain, 1e3, "ms", 0.9));

  const std::string stem =
      opt.out_dir + "/restart-libquantum-seed" + std::to_string(opt.seed);
  ledger.write_chrome_trace(stem + ".trace.json");
  write_ledger_table(stem + ".ledger.txt", "restart-libquantum traced ledger",
                     layers, timed, r);
  r.notes.push_back("trace: " + stem + ".trace.json, ledger: " + stem + ".ledger.txt");
  return r;
}

}  // namespace perfbench
