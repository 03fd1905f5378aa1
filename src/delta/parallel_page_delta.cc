#include "delta/parallel_page_delta.h"

#include <algorithm>
#include <exception>

#include "common/check.h"
#include "common/units.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace aic::delta {

namespace {
namespace on = obs::names;
}  // namespace

ParallelPageCompressor::ParallelPageCompressor(Config config)
    : config_(config),
      workers_(config.workers == 0 ? common::ThreadPool::default_workers()
                                   : config.workers),
      serial_(PageAlignedCompressor::page_config(), config.correcting) {
  if (obs::Hub* hub = config_.obs) {
    obs::MetricsRegistry& m = hub->metrics;
    m_bytes_in_ = m.counter(on::kDeltaBytesIn);
    m_bytes_out_ = m.counter(on::kDeltaBytesOut);
    m_pages_delta_ = m.counter(on::kDeltaPagesDelta);
    m_pages_raw_ = m.counter(on::kDeltaPagesRaw);
    m_pages_same_ = m.counter(on::kDeltaPagesSame);
    m_shards_ = m.counter(on::kDeltaShards);
    m_shard_pages_ = m.histogram(
        on::kDeltaShardPages, obs::Histogram::exponential_buckets(1, 4.0, 12));
  }
}

void ParallelPageCompressor::record_compress(const DeltaResult& result,
                                             std::size_t shards) {
  if (config_.obs == nullptr) return;
  m_bytes_in_->add(result.stats.input_bytes);
  m_bytes_out_->add(result.payload.size());
  m_pages_delta_->add(result.pages_delta);
  m_pages_raw_->add(result.pages_raw);
  m_pages_same_->add(result.pages_same);
  m_shards_->add(shards);
}

DeltaResult ParallelPageCompressor::compress(
    const std::vector<DirtyPage>& dirty, const mem::Snapshot& prev) {
  const std::size_t n = dirty.size();
  const std::size_t min_pages = std::max<std::size_t>(config_.min_shard_pages, 1);
  // One shard per worker unless the set is too small to feed them all.
  const std::size_t shards =
      std::min<std::size_t>(workers_, std::max<std::size_t>(n / min_pages, 1));
  if (shards <= 1) {
    // Serial fast path — still one (track 0) shard span, so a trace of a
    // single-core run shows its compression work like any other.
    if (obs::Hub* hub = config_.obs) {
      const double t0 = hub->trace.wall_seconds();
      DeltaResult result = serial_.compress(dirty, prev);
      hub->trace.span(obs::TimeDomain::kWall, on::kCatDelta, on::kEvShard, t0,
                      hub->trace.wall_seconds(), 0,
                      {{"pages", double(n)},
                       {"bytes_out", double(result.payload.size())}});
      m_shard_pages_->observe(double(n));
      record_compress(result, 1);
      return result;
    }
    return serial_.compress(dirty, prev);
  }

  if (!pool_) pool_ = std::make_unique<common::ThreadPool>(workers_ - 1);
  if (shard_buffers_.size() < shards) shard_buffers_.resize(shards);

  // Built once, shared read-only by every shard: move candidates are a
  // function of `prev` alone, which is what keeps parallel output
  // byte-identical to serial in correcting mode. Empty (and free) in
  // greedy mode.
  const MoveIndex moves = serial_.move_index(prev);

  // Contiguous balanced partition: shard s gets [begin(s), begin(s+1)).
  const std::size_t base = n / shards, rem = n % shards;
  const auto begin_of = [&](std::size_t s) {
    return s * base + std::min(s, rem);
  };

  std::vector<DeltaResult> accs(shards);
  std::vector<std::exception_ptr> errors(shards);
  const auto encode_shard = [&](std::size_t s) {
    Bytes& buf = shard_buffers_[s];
    buf.clear();  // keeps capacity: the buffer-pool reuse across checkpoints
    const std::size_t lo = begin_of(s), hi = begin_of(s + 1);
    buf.reserve((hi - lo) * (kPageSize + 16));
    ByteWriter w(buf);
    obs::Hub* hub = config_.obs;
    const double t0 = hub ? hub->trace.wall_seconds() : 0.0;
    try {
      for (std::size_t i = lo; i < hi; ++i)
        serial_.encode_page(dirty[i], prev, moves, w, accs[s]);
    } catch (...) {
      errors[s] = std::current_exception();
    }
    if (hub != nullptr) {
      hub->trace.span(obs::TimeDomain::kWall, on::kCatDelta, on::kEvShard, t0,
                      hub->trace.wall_seconds(), std::uint32_t(s),
                      {{"pages", double(hi - lo)},
                       {"bytes_out", double(buf.size())}});
      m_shard_pages_->observe(double(hi - lo));
    }
  };

  // Shards 1..S-1 go to the pool; the calling thread (one of the modeled
  // checkpointing cores) encodes shard 0 itself instead of idling.
  for (std::size_t s = 1; s < shards; ++s)
    pool_->run([&encode_shard, s] { encode_shard(s); });
  encode_shard(0);
  pool_->wait_idle();
  for (const std::exception_ptr& e : errors)
    if (e) std::rethrow_exception(e);

  // Stitch: header + shard streams in page order reproduce the serial
  // record stream exactly.
  DeltaResult result;
  result.pages_total = n;
  std::size_t total = 10;  // varint header upper bound
  for (std::size_t s = 0; s < shards; ++s) total += shard_buffers_[s].size();
  result.payload.reserve(total);
  ByteWriter w(result.payload);
  w.varint(n);
  for (std::size_t s = 0; s < shards; ++s) {
    w.raw(shard_buffers_[s]);
    const DeltaResult& a = accs[s];
    result.stats.input_bytes += a.stats.input_bytes;
    result.stats.source_bytes += a.stats.source_bytes;
    result.stats.work_units += a.stats.work_units;
    result.stats.copy_ops += a.stats.copy_ops;
    result.stats.add_ops += a.stats.add_ops;
    result.pages_delta += a.pages_delta;
    result.pages_raw += a.pages_raw;
    result.pages_same += a.pages_same;
    result.pages_moved += a.pages_moved;
  }
  result.stats.output_bytes = result.payload.size();
  record_compress(result, shards);
  return result;
}

}  // namespace aic::delta
