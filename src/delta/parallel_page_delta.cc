#include "delta/parallel_page_delta.h"

#include <algorithm>
#include <atomic>
#include <exception>

#include "common/check.h"
#include "common/thread_pool.h"
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
  const std::size_t chunk_count = (n + kChunkPages - 1) / kChunkPages;
  // One participant per worker unless the set is too small to feed them
  // all, and never more than there are chunks to claim.
  const std::size_t participants = std::min<std::size_t>(
      {workers_, std::max<std::size_t>(n / min_pages, 1), chunk_count});
  if (participants <= 1) {
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

  // Built once, shared read-only by every participant: move candidates
  // are a function of `prev` alone, which is what keeps parallel output
  // byte-identical to serial in correcting mode. Empty (and free) in
  // greedy mode.
  const MoveIndex moves = serial_.move_index(prev);

  // Every chunk buffer is sized here, on the calling thread, for its
  // pages' largest records: a pool thread never grows one. glibc frees a
  // block into the arena of the thread that allocated it, so buffers
  // grown on pool threads would spread the retained memory over their
  // arenas.
  if (chunks_.size() < chunk_count) chunks_.resize(chunk_count);
  for (std::size_t c = 0; c < chunk_count; ++c) {
    Chunk& chunk = chunks_[c];
    chunk.records.clear();  // keeps capacity across checkpoints
    chunk.records.reserve(kChunkPages * kRecordBound);
    chunk.acc = DeltaResult{};
    chunk.error = nullptr;
  }

  // Every participant claims chunks in turn from one counter until none is
  // left, so a participant that starts late or is descheduled just takes
  // fewer.
  std::atomic<std::size_t> next_chunk{0};
  common::parallel_for(participants, participants, [&](std::size_t track) {
    obs::Hub* hub = config_.obs;
    const double t0 = hub ? hub->trace.wall_seconds() : 0.0;
    std::size_t pages = 0, bytes_out = 0;
    for (std::size_t c = next_chunk++; c < chunk_count; c = next_chunk++) {
      Chunk& chunk = chunks_[c];
      ByteWriter w(chunk.records);
      const std::size_t lo = c * kChunkPages;
      const std::size_t hi = std::min(n, lo + kChunkPages);
      try {
        for (std::size_t i = lo; i < hi; ++i)
          serial_.encode_page(dirty[i], prev, moves, w, chunk.acc);
      } catch (...) {
        chunk.error = std::current_exception();
      }
      pages += hi - lo;
      bytes_out += chunk.records.size();
    }
    if (hub != nullptr) {
      hub->trace.span(obs::TimeDomain::kWall, on::kCatDelta, on::kEvShard, t0,
                      hub->trace.wall_seconds(), std::uint32_t(track),
                      {{"pages", double(pages)},
                       {"bytes_out", double(bytes_out)}});
      m_shard_pages_->observe(double(pages));
    }
  });
  // A chunk stops at its first failing page, so the lowest chunk with an
  // error holds the error a serial run would have thrown.
  for (std::size_t c = 0; c < chunk_count; ++c)
    if (chunks_[c].error) std::rethrow_exception(chunks_[c].error);

  // Stitch: the header and the chunks in chunk order reproduce the serial
  // record stream exactly.
  DeltaResult result;
  result.pages_total = n;
  std::size_t total = 10;  // varint header upper bound
  for (std::size_t c = 0; c < chunk_count; ++c)
    total += chunks_[c].records.size();
  result.payload.reserve(total);
  ByteWriter w(result.payload);
  w.varint(n);
  for (std::size_t c = 0; c < chunk_count; ++c) {
    w.raw(chunks_[c].records);
    const DeltaResult& a = chunks_[c].acc;
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
  record_compress(result, participants);
  return result;
}

}  // namespace aic::delta
