// Microbenchmarks (google-benchmark): real wall-clock throughput of the
// delta codecs across page-similarity levels, plus the page-aligned
// checkpoint compressor end to end, the put path's CRC-32C and RAID-5
// striping, the restart path's record parse, recovery and chain replay,
// the thread pool's wake, and the mem layer's halt capture and
// materialize. These
// measure the host's actual compressor speed — the experiment harness uses
// deterministic work units instead, calibrated to the paper's testbed
// class.
#include <benchmark/benchmark.h>

#include <malloc.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <thread>

#include "bench_session_gbench.h"

#include "ckpt/checkpointer.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "delta/correcting.h"
#include "delta/page_delta.h"
#include "delta/parallel_page_delta.h"
#include "delta/xdelta3.h"
#include "delta/xor_delta.h"
#include "mem/address_space.h"
#include "mem/snapshot.h"
#include "obs/clock.h"
#include "storage/multilevel_store.h"
#include "storage/storage.h"

// ---- binary-wide heap accounting for the restore-memory metric ----
// Same scheme as tests/heap_guard.h (each binary defines its own operator
// new replacement): live bytes via malloc_usable_size on both sides, CAS
// high-water mark. The restore benchmarks report peak-above-start as a
// counter, which the session reporter turns into a diffable metric.

namespace {
std::atomic<std::uint64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_peak_bytes{0};

void note_alloc(void* p) {
  if (p == nullptr) return;
  const std::uint64_t live =
      g_live_bytes.fetch_add(malloc_usable_size(p),
                             std::memory_order_relaxed) +
      malloc_usable_size(p);
  std::uint64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, live,
                                             std::memory_order_relaxed)) {
  }
}

void note_free(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
}

std::uint64_t reset_heap_peak() {
  const std::uint64_t live = g_live_bytes.load(std::memory_order_relaxed);
  g_peak_bytes.store(live, std::memory_order_relaxed);
  return live;
}

std::uint64_t heap_peak() {
  return g_peak_bytes.load(std::memory_order_relaxed);
}
}  // namespace

// noinline: if GCC inlines these it sees the underlying malloc/free and
// -Wmismatched-new-delete mis-pairs them with the sized operator delete.
__attribute__((noinline)) void* operator new(std::size_t size) {
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

__attribute__((noinline)) void* operator new(
    std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size);
  note_alloc(p);
  return p;
}

__attribute__((noinline)) void operator delete(void* p) noexcept {
  note_free(p);
  std::free(p);
}

__attribute__((noinline)) void operator delete(void* p,
                                               std::size_t) noexcept {
  note_free(p);
  std::free(p);
}

__attribute__((noinline)) void operator delete(
    void* p, const std::nothrow_t&) noexcept {
  note_free(p);
  std::free(p);
}

namespace {

using namespace aic;

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (auto& x : b) x = std::uint8_t(rng());
  return b;
}

/// Target = source with `dissimilarity` fraction rewritten contiguously.
Bytes edited(const Bytes& source, double dissimilarity, Rng& rng) {
  Bytes t = source;
  const std::size_t len = std::size_t(dissimilarity * double(t.size()));
  if (len == 0) return t;
  const std::size_t off = rng.uniform_u64(t.size() - len + 1);
  for (std::size_t i = 0; i < len; ++i) t[off + i] = std::uint8_t(rng());
  return t;
}

void BM_XDelta3Encode(benchmark::State& state) {
  Rng rng(1);
  const std::size_t size = 256 * kKiB;
  const double dissim = double(state.range(0)) / 100.0;
  Bytes src = random_bytes(rng, size);
  Bytes tgt = edited(src, dissim, rng);
  delta::XDelta3Codec codec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(src, tgt));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(size));
}
BENCHMARK(BM_XDelta3Encode)->Arg(1)->Arg(10)->Arg(50)->Arg(100);

/// milc's raw fall-back: a dense-random page against an unrelated
/// previous page under page_config(), so every window misses. The arg is
/// the target's length: a page times the index build plus the full miss
/// scan, one block (32 bytes) the index build alone.
void BM_XDelta3EncodeMiss(benchmark::State& state) {
  Rng rng(16);
  const Bytes prev = random_bytes(rng, kPageSize);
  const Bytes page = random_bytes(rng, std::size_t(state.range(0)));
  const delta::XDelta3Codec codec(delta::PageAlignedCompressor::page_config());
  Bytes out;
  out.reserve(2 * kPageSize);
  std::uint64_t ns = 0;
  for (auto _ : state) {
    const std::uint64_t t0 = obs::wall_now_ns();
    out.clear();
    ByteWriter w(out);
    codec.encode_to(prev, page, w);
    ns += obs::wall_now_ns() - t0;
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.counters["ns_per_page"] =
      double(ns) / double(std::uint64_t(state.iterations()));
}
BENCHMARK(BM_XDelta3EncodeMiss)->Arg(kPageSize)->Arg(32);

/// The whole-file coder at table3_compressors' full source size: 2048
/// pages (8 MiB) under file_config(), 32,768 blocks of 256 bytes. The
/// target is the source with the arg's percent rewritten in one run, so
/// /100 scans every window as a miss. index_kib is the heap a fresh
/// thread's first encode keeps: its block index.
void BM_XDelta3EncodeFile(benchmark::State& state) {
  Rng rng(17);
  const Bytes src = random_bytes(rng, 2048 * kPageSize);
  const Bytes tgt = edited(src, double(state.range(0)) / 100.0, rng);
  const delta::XDelta3Codec codec(delta::WholeFileCompressor::file_config());
  Bytes out;
  out.reserve(2 * tgt.size());
  std::uint64_t index_bytes = 0;
  std::thread([&] {
    const std::uint64_t live0 = reset_heap_peak();
    ByteWriter w(out);
    codec.encode_to(src, tgt, w);
    index_bytes = heap_peak() - live0;
  }).join();
  for (auto _ : state) {
    out.clear();
    ByteWriter w(out);
    codec.encode_to(src, tgt, w);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(tgt.size()));
  state.counters["index_kib"] = double(index_bytes) / 1024.0;
}
BENCHMARK(BM_XDelta3EncodeFile)
    ->Arg(10)
    ->Arg(100)
    ->Unit(benchmark::kMillisecond);

void BM_XDelta3Decode(benchmark::State& state) {
  Rng rng(2);
  const std::size_t size = 256 * kKiB;
  Bytes src = random_bytes(rng, size);
  Bytes tgt = edited(src, 0.1, rng);
  delta::XDelta3Codec codec;
  Bytes delta = codec.encode(src, tgt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode(src, delta));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(size));
}
BENCHMARK(BM_XDelta3Decode);

void BM_XorDeltaEncode(benchmark::State& state) {
  Rng rng(3);
  const std::size_t size = 256 * kKiB;
  Bytes src = random_bytes(rng, size);
  Bytes tgt = edited(src, double(state.range(0)) / 100.0, rng);
  delta::XorDeltaCodec codec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.encode(src, tgt));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(size));
}
BENCHMARK(BM_XorDeltaEncode)->Arg(1)->Arg(50);

void BM_PageAlignedCompress(benchmark::State& state) {
  // A realistic checkpoint: `pages` hot pages, 20% of each rewritten.
  Rng rng(4);
  const std::size_t pages = std::size_t(state.range(0));
  mem::AddressSpace space;
  space.allocate_range(0, pages);
  for (mem::PageId id = 0; id < pages; ++id) {
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  mem::Snapshot prev = mem::Snapshot::capture(space);
  space.protect_all();
  for (mem::PageId id = 0; id < pages; ++id) {
    Bytes edit = random_bytes(rng, kPageSize / 5);
    space.write(id, rng.uniform_u64(kPageSize - edit.size()), edit);
  }
  std::vector<delta::DirtyPage> dirty;
  for (auto id : space.dirty_pages())
    dirty.push_back({id, space.page_bytes(id)});
  delta::PageAlignedCompressor pa;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pa.compress(dirty, prev));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(pages * kPageSize));
}
BENCHMARK(BM_PageAlignedCompress)->Arg(64)->Arg(512);

/// Shared setup for the thread-scaling benchmarks: a previous snapshot plus
/// a dirty set whose pages all carry `dissimilarity` fraction rewritten.
struct ScalingWorkload {
  mem::AddressSpace space;
  mem::Snapshot prev;
  std::vector<delta::DirtyPage> dirty;

  ScalingWorkload(std::size_t pages, double dissimilarity, Rng& rng) {
    space.allocate_range(0, pages);
    for (mem::PageId id = 0; id < pages; ++id) {
      space.mutate(id, [&](std::span<std::uint8_t> b) {
        for (auto& x : b) x = std::uint8_t(rng());
      });
    }
    prev = mem::Snapshot::capture(space);
    space.protect_all();
    for (mem::PageId id = 0; id < pages; ++id) {
      const std::size_t len = std::size_t(dissimilarity * double(kPageSize));
      if (len == 0) {
        // Conservatively write-protected page, rewritten with identical
        // bytes: dirty, but the memcmp fast path should skip the codec.
        Bytes same(space.page_bytes(id).begin(), space.page_bytes(id).end());
        space.write(id, 0, same);
        continue;
      }
      Bytes edit = random_bytes(rng, len);
      space.write(id, rng.uniform_u64(kPageSize - len + 1), edit);
    }
    for (auto id : space.dirty_pages())
      dirty.push_back({id, space.page_bytes(id)});
  }
};

/// Thread scaling at a fixed per-page dissimilarity: workers x dissim%.
/// 64 pages = the 256 KiB working set of the acceptance criterion.
void BM_ParallelPageCompress(benchmark::State& state) {
  Rng rng(14);
  const unsigned workers = unsigned(state.range(0));
  const double dissim = double(state.range(1)) / 100.0;
  ScalingWorkload wl(64, dissim, rng);
  delta::ParallelPageCompressor pc(
      {.workers = workers, .min_shard_pages = 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(pc.compress(wl.dirty, wl.prev));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(wl.dirty.size() * kPageSize));
  state.counters["workers"] = double(workers);
}
BENCHMARK(BM_ParallelPageCompress)
    ->ArgsProduct({{1, 2, 4, 8}, {10, 50, 90}})
    ->UseRealTime();

/// Mixed-dissimilarity 256 KiB checkpoint: a quarter of the pages each at
/// unchanged / light-edit / half-rewritten / fully-rewritten — the workload
/// the >= 2.5x @ 4 workers acceptance criterion is measured on.
void BM_ParallelPageCompressMixed(benchmark::State& state) {
  Rng rng(15);
  const unsigned workers = unsigned(state.range(0));
  mem::AddressSpace space;
  const std::size_t pages = 64;  // 256 KiB
  space.allocate_range(0, pages);
  for (mem::PageId id = 0; id < pages; ++id) {
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  mem::Snapshot prev = mem::Snapshot::capture(space);
  space.protect_all();
  const double levels[] = {0.0, 0.1, 0.5, 1.0};
  for (mem::PageId id = 0; id < pages; ++id) {
    const double dissim = levels[id % 4];
    const std::size_t len = std::size_t(dissim * double(kPageSize));
    Bytes edit = len == 0 ? Bytes(space.page_bytes(id).begin(),
                                  space.page_bytes(id).end())
                          : random_bytes(rng, len);
    space.write(id, len == 0 ? 0 : rng.uniform_u64(kPageSize - len + 1),
                edit);
  }
  std::vector<delta::DirtyPage> dirty;
  for (auto id : space.dirty_pages())
    dirty.push_back({id, space.page_bytes(id)});
  delta::ParallelPageCompressor pc(
      {.workers = workers, .min_shard_pages = 1});
  for (auto _ : state) {
    benchmark::DoNotOptimize(pc.compress(dirty, prev));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(dirty.size() * kPageSize));
  state.counters["workers"] = double(workers);
}
BENCHMARK(BM_ParallelPageCompressMixed)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime();

// ---- moved-block workloads: the correcting coder's target case ----

/// kind 0: memmove the middle half forward by ~1 page + 17 bytes.
/// kind 1: memmove backward by ~2 pages + 101 bytes.
/// kind 2: splice/insert/delete churn (16 random edits changing length).
/// kind 3: permutation of 48-byte chunks (sub-block moves, the greedy
///         coder's blind spot).
Bytes moved_target(const Bytes& source, int kind, Rng& rng) {
  Bytes t = source;
  switch (kind) {
    case 0: {
      const std::size_t shift = kPageSize + 17;
      const std::size_t len = t.size() / 2 - shift;
      std::memmove(t.data() + t.size() / 4 + shift,
                   source.data() + t.size() / 4, len);
      return t;
    }
    case 1: {
      const std::size_t shift = 2 * kPageSize + 101;
      const std::size_t len = t.size() / 2 - shift;
      std::memmove(t.data() + t.size() / 4,
                   source.data() + t.size() / 4 + shift, len);
      return t;
    }
    case 2: {
      for (int e = 0; e < 16; ++e) {
        const std::size_t at = rng.uniform_u64(t.size());
        if (rng.bernoulli(0.5)) {
          Bytes ins(1 + rng.uniform_u64(64));
          for (auto& x : ins) x = std::uint8_t(rng());
          t.insert(t.begin() + at, ins.begin(), ins.end());
        } else {
          const std::size_t len =
              std::min<std::size_t>(1 + rng.uniform_u64(64), t.size() - at);
          t.erase(t.begin() + at, t.begin() + at + len);
        }
      }
      return t;
    }
    default: {
      const std::size_t chunk = 48;
      const std::size_t chunks = t.size() / chunk;
      std::vector<std::size_t> order(chunks);
      for (std::size_t i = 0; i < chunks; ++i) order[i] = i;
      for (std::size_t i = chunks - 1; i > 0; --i)
        std::swap(order[i], order[rng.uniform_u64(i + 1)]);
      Bytes out;
      out.reserve(t.size());
      for (std::size_t c : order)
        out.insert(out.end(), source.begin() + c * chunk,
                   source.begin() + (c + 1) * chunk);
      out.insert(out.end(), source.begin() + chunks * chunk, source.end());
      return out;
    }
  }
}

/// Encode latency + compression ratio of both whole-buffer coders on the
/// moved-block workloads. Same workload per Arg, so
/// BM_CorrectingEncodeMoved/<k> vs BM_XDelta3EncodeMoved/<k> is the
/// ratio-at-equal-latency comparison, and each is tracked by benchdiff.
template <typename Codec>
void moved_encode_bench(benchmark::State& state) {
  Rng rng(0x717 + std::uint64_t(state.range(0)));
  const Bytes src = random_bytes(rng, 256 * kKiB);
  const Bytes tgt = moved_target(src, int(state.range(0)), rng);
  const Codec codec;
  std::size_t delta_size = 0;
  for (auto _ : state) {
    Bytes d = codec.encode(src, tgt);
    delta_size = d.size();
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(tgt.size()));
  state.counters["ratio"] = double(delta_size) / double(tgt.size());
}

void BM_XDelta3EncodeMoved(benchmark::State& state) {
  moved_encode_bench<delta::XDelta3Codec>(state);
}
BENCHMARK(BM_XDelta3EncodeMoved)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_CorrectingEncodeMoved(benchmark::State& state) {
  moved_encode_bench<delta::CorrectingDeltaCodec>(state);
}
BENCHMARK(BM_CorrectingEncodeMoved)->Arg(0)->Arg(1)->Arg(2)->Arg(3);

void BM_CorrectingDecode(benchmark::State& state) {
  Rng rng(0x718);
  const Bytes src = random_bytes(rng, 256 * kKiB);
  const Bytes tgt = moved_target(src, 3, rng);
  const delta::CorrectingDeltaCodec codec;
  const Bytes d = codec.encode(src, tgt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(codec.decode(src, d));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(tgt.size()));
}
BENCHMARK(BM_CorrectingDecode);

/// Page-level correcting compressor on a moved-pages checkpoint: half the
/// dirty pages are whole-page moves (cdelta records), half partial edits.
void BM_CorrectingPagesCompress(benchmark::State& state) {
  Rng rng(0x719);
  const std::size_t pages = std::size_t(state.range(0));
  mem::AddressSpace space;
  space.allocate_range(0, pages);
  for (mem::PageId id = 0; id < pages; ++id) {
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  mem::Snapshot prev = mem::Snapshot::capture(space);
  space.protect_all();
  for (mem::PageId id = 0; id < pages; ++id) {
    if (id % 2 == 0 && id + 4 < pages) {
      Bytes img(prev.page_bytes(id + 4).begin(),
                prev.page_bytes(id + 4).end());
      space.write(id, 0, img);
    } else {
      Bytes edit = random_bytes(rng, kPageSize / 5);
      space.write(id, rng.uniform_u64(kPageSize - edit.size()), edit);
    }
  }
  std::vector<delta::DirtyPage> dirty;
  for (auto id : space.dirty_pages())
    dirty.push_back({id, space.page_bytes(id)});
  delta::PageAlignedCompressor pa({}, /*correcting=*/true);
  std::uint64_t out_bytes = 0;
  for (auto _ : state) {
    auto res = pa.compress(dirty, prev);
    out_bytes = res.stats.output_bytes;
    benchmark::DoNotOptimize(res);
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(pages * kPageSize));
  state.counters["ratio"] =
      double(out_bytes) / double(pages * kPageSize);
}
BENCHMARK(BM_CorrectingPagesCompress)->Arg(64)->Arg(512);

// ---- the put path's byte layers: record CRC and RAID-5 striping ----
// Sizes: a page, a median ckpt-milc incremental record (perfbench) and a
// full 8 MiB image.

void BM_Crc32c(benchmark::State& state) {
  Rng rng(5);
  const Bytes data = random_bytes(rng, std::size_t(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32c(data));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Crc32c)->Arg(4096)->Arg(360912)->Arg(8388608);

void BM_Raid5Put(benchmark::State& state) {
  // MultiLevelStore's group: 4 members, 64 KiB stripe unit. put() takes
  // its object by value, so each iteration also times one copy of it.
  Rng rng(6);
  const Bytes data = random_bytes(rng, std::size_t(state.range(0)));
  storage::Raid5Group group(4, 400.0e6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(group.put("obj", data));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Raid5Put)->Arg(4096)->Arg(360912)->Arg(8388608);

// ---- the restart path's byte layers: record parse ----

/// A record with a payload of `payload_bytes`, serialized.
Bytes serialized_record(std::size_t payload_bytes) {
  Rng rng(7);
  ckpt::CheckpointFile f;
  f.kind = ckpt::CheckpointKind::kIncrementalDelta;
  f.sequence = 9;
  f.cpu_state = random_bytes(rng, 64);
  f.freed_pages = {3, 5, 8};
  f.payload = random_bytes(rng, payload_bytes);
  return f.serialize();
}

void BM_ParseCheckpoint(benchmark::State& state) {
  // The span entry, as fsck parses a record: one pass copies the record
  // into a buffer of its own and checksums it, then the fields are read
  // in that copy.
  const Bytes wire = serialized_record(std::size_t(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ckpt::CheckpointFile::parse(wire));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(wire.size()));
}
BENCHMARK(BM_ParseCheckpoint)->Arg(4096)->Arg(360912)->Arg(8388608);

void BM_ParseCheckpointInPlace(benchmark::State& state) {
  // The shared-buffer entry, as recover() parses a record of one segment
  // in the buffer it was read into: the checksum and the field reads, no
  // copy. (A larger record comes with its register, combined from the
  // segments' checksums, and its parse reads only the header.)
  const SharedBytes wire(serialized_record(std::size_t(state.range(0))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ckpt::CheckpointFile::parse(wire));
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(wire.size()));
}
BENCHMARK(BM_ParseCheckpointInPlace)->Arg(4096)->Arg(360912)->Arg(8388608);

// ---- restart reconstruction: wall time and peak heap per mode ----

/// A chain whose incrementals touch every page (the worst case for
/// out-of-place restore): tiny full, then an incremental allocating the
/// rest, then one editing all pages.
std::unique_ptr<ckpt::CheckpointChain> restore_chain(std::size_t pages) {
  Rng rng(0x71A);
  mem::AddressSpace space;
  space.allocate_range(0, 4);
  for (mem::PageId id = 0; id < 4; ++id) {
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  ckpt::CheckpointChain::Config cfg;
  cfg.correcting = true;
  auto chain = std::make_unique<ckpt::CheckpointChain>(cfg);
  chain->capture(space, {}, 0.0);
  space.protect_all();
  space.allocate_range(4, pages);
  for (mem::PageId id = 4; id < pages; ++id) {
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  chain->capture(space, {}, 1.0);
  space.protect_all();
  for (mem::PageId id = 0; id < pages; ++id) {
    Bytes edit = random_bytes(rng, 16);
    space.write(id, rng.uniform_u64(kPageSize - edit.size()), edit);
  }
  chain->capture(space, {}, 2.0);
  return chain;
}

/// The greedy coder's chain: a full of `pages` random pages, then an
/// incremental whose records are all deltas (a 16-byte edit per page).
std::unique_ptr<ckpt::CheckpointChain> greedy_chain(std::size_t pages) {
  Rng rng(0x71B);
  mem::AddressSpace space;
  space.allocate_range(0, pages);
  for (mem::PageId id = 0; id < pages; ++id) {
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  auto chain = std::make_unique<ckpt::CheckpointChain>();
  chain->capture(space, {}, 0.0);
  space.protect_all();
  for (mem::PageId id = 0; id < pages; ++id) {
    Bytes edit = random_bytes(rng, 16);
    space.write(id, rng.uniform_u64(kPageSize - edit.size()), edit);
  }
  chain->capture(space, {}, 1.0);
  return chain;
}

void restore_bench(benchmark::State& state,
                   const ckpt::CheckpointChain& chain,
                   ckpt::RestartEngine::Mode mode) {
  const std::size_t pages = std::size_t(state.range(0));
  const std::vector<ckpt::CheckpointFile>& files = chain.files();
  const delta::PageAlignedCompressor pa({}, /*correcting=*/true);
  std::uint64_t peak = 0;
  for (auto _ : state) {
    const std::uint64_t live0 = reset_heap_peak();
    auto restored = ckpt::RestartEngine::restore(files, pa, mode);
    peak = std::max(peak, heap_peak() - live0);
    benchmark::DoNotOptimize(restored);
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(pages * kPageSize));
  state.counters["peak_heap_kib"] = double(peak) / 1024.0;
}

void BM_RestoreInPlace(benchmark::State& state) {
  restore_bench(state, *restore_chain(std::size_t(state.range(0))),
                ckpt::RestartEngine::Mode::kInPlace);
}
BENCHMARK(BM_RestoreInPlace)->Arg(64)->Arg(512);

void BM_RestoreOutOfPlace(benchmark::State& state) {
  restore_bench(state, *restore_chain(std::size_t(state.range(0))),
                ckpt::RestartEngine::Mode::kOutOfPlace);
}
BENCHMARK(BM_RestoreOutOfPlace)->Arg(64)->Arg(512);

void BM_RestoreGreedy(benchmark::State& state) {
  restore_bench(state, *greedy_chain(std::size_t(state.range(0))),
                ckpt::RestartEngine::Mode::kInPlace);
}
// 2048 pages is restart-libquantum's image: RestartEngine::restore
// replays it by page range on the shared pool (64 and 512 stay serial).
BENCHMARK(BM_RestoreGreedy)->Arg(64)->Arg(512)->Arg(2048);

/// A node-loss recovery at perfbench's shape: a greedy chain of a
/// 2048-page full and 47 incrementals (64 edited pages each, 16 of them
/// rewritten unchanged), stored through a MultiLevelStore whose node then
/// fails at level 2 (L1 gone, one RAID member rebuilt), read back with
/// recover(): the RAID reassembly, the checksum of every record (the
/// full one by segment, on the pool) and the in-place parse of each.
void BM_Recover(benchmark::State& state) {
  constexpr std::size_t kPages = 2048, kRecords = 48;
  Rng rng(0x71C);
  mem::AddressSpace space;
  space.allocate_range(0, kPages);
  for (mem::PageId id = 0; id < kPages; ++id) {
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  ckpt::CheckpointChain chain;
  storage::MultiLevelStore store;
  for (std::size_t i = 0; i < kRecords; ++i) {
    if (i > 0) {
      space.protect_all();
      for (int e = 0; e < 64; ++e) {
        const mem::PageId id = rng.uniform_u64(kPages);
        const Bytes edit = random_bytes(rng, e < 16 ? 0 : 16);
        space.write(id, rng.uniform_u64(kPageSize - 16), edit);
      }
    }
    chain.capture(space, {}, double(i));
    store.put_checkpoint(chain.files().back());
  }
  Rng failure(42);
  store.apply_failure(2, failure);
  std::uint64_t bytes = 0;
  for (const ckpt::CheckpointFile& f : chain.files())
    bytes += f.serialized_size();
  for (auto _ : state) {
    auto rec = store.recover();
    benchmark::DoNotOptimize(rec);
  }
  state.SetBytesProcessed(std::int64_t(state.iterations()) *
                          std::int64_t(bytes));
}
BENCHMARK(BM_Recover);

/// What a common::parallel_for of two participants costs up to the start
/// of its pool task's item, with the pool's threads parked: the wake a
/// pool user pays per dispatch. The time is the call to that item's first
/// instruction (the caller's item waits for it); the threads are given
/// 200 us to park again between iterations, outside the clock.
void BM_ThreadPoolWake(benchmark::State& state) {
  const std::thread::id caller = std::this_thread::get_id();
  std::atomic<std::uint64_t> started{0};
  common::parallel_for(2, 2, [](std::size_t) {});  // start the pool
  for (auto _ : state) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    started.store(0, std::memory_order_relaxed);
    const std::uint64_t t0 = obs::wall_now_ns();
    common::parallel_for(2, 2, [&](std::size_t) {
      if (std::this_thread::get_id() != caller) {
        started.store(obs::wall_now_ns(), std::memory_order_release);
        return;
      }
      while (started.load(std::memory_order_acquire) == 0) {
      }
    });
    state.SetIterationTime(double(started.load() - t0) * 1e-9);
  }
}
BENCHMARK(BM_ThreadPoolWake)->UseManualTime();

// ---- mem: the halt's tracking and capture, and the restart's materialize
// Both report wall ns per page over the measured steps only (the snapshot
// or space each iteration builds is destroyed outside the clock).

mem::AddressSpace random_space(std::size_t pages, Rng& rng) {
  mem::AddressSpace space;
  space.allocate_range(0, pages);
  for (mem::PageId id = 0; id < pages; ++id) {
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  return space;
}

/// One checkpoint halt with every page dirty: protect_all, a write sweep
/// that faults each page once, dirty_pages + live_pages, capture_pages.
void BM_HaltCapture(benchmark::State& state) {
  const std::size_t pages = std::size_t(state.range(0));
  Rng rng(0x4A17);
  mem::AddressSpace space = random_space(pages, rng);
  const Bytes edit = random_bytes(rng, 16);
  std::uint64_t ns = 0;
  for (auto _ : state) {
    const std::uint64_t t0 = obs::wall_now_ns();
    space.protect_all();
    for (mem::PageId id = 0; id < pages; ++id)
      space.write(id, (id * 64) % (kPageSize - edit.size()), edit);
    const std::vector<mem::PageId> dirty = space.dirty_pages();
    const std::vector<mem::PageId> live = space.live_pages();
    const mem::Snapshot snap = mem::Snapshot::capture_pages(space, dirty);
    ns += obs::wall_now_ns() - t0;
    benchmark::DoNotOptimize(live.data());
    benchmark::DoNotOptimize(snap.page_count());
  }
  state.counters["ns_per_page"] =
      double(ns) / double(std::uint64_t(state.iterations()) * pages);
}
BENCHMARK(BM_HaltCapture)->Arg(2048);

/// The last step of a restart: a fresh AddressSpace from the image. In a
/// restart the replay has started the shared pool, which materialize
/// then copies on; it is started here too, so the figure does not depend
/// on which benchmarks ran before.
void BM_Materialize(benchmark::State& state) {
  const std::size_t pages = std::size_t(state.range(0));
  Rng rng(0x4A18);
  const mem::Snapshot image = mem::Snapshot::capture(random_space(pages, rng));
  common::parallel_for(2, 2, [](std::size_t) {});
  std::uint64_t ns = 0;
  for (auto _ : state) {
    const std::uint64_t t0 = obs::wall_now_ns();
    const mem::AddressSpace space = image.materialize();
    ns += obs::wall_now_ns() - t0;
    benchmark::DoNotOptimize(space.page_count());
  }
  state.counters["ns_per_page"] =
      double(ns) / double(std::uint64_t(state.iterations()) * pages);
}
BENCHMARK(BM_Materialize)->Arg(2048);

}  // namespace

int main(int argc, char** argv) {
  // perfbench's heap policy: freed memory stays mapped, so a benchmark's
  // repeated operations reuse pages already faulted in and time the code,
  // not the kernel zeroing pages that glibc trimmed after the last one.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  return aic::bench::run_gbench_main("micro_delta", argc, argv);
}
