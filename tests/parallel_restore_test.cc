// Tests for the parallel restart path: calls of the shared pool
// (common::parallel_for) that overlap, among them a compress and a
// restore, replay by page range (ckpt::detail::restore_ranges at 1-8
// ranges, against the serial replay), the splice that joins the ranges
// (mem::Snapshot::splice over common::Slab::adopt), materialize on the
// pool, the ranged record read (StorageTarget::read_range) and a recovery
// large enough to use the pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cstring>
#include <future>
#include <latch>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ckpt/checkpoint_file.h"
#include "ckpt/checkpointer.h"
#include "common/bytes.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/slab.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "delta/page_delta.h"
#include "delta/parallel_page_delta.h"
#include "heap_guard.h"
#include "mem/address_space.h"
#include "mem/snapshot.h"
#include "storage/multilevel_store.h"
#include "storage/storage.h"

namespace aic {
namespace {

using ckpt::CheckpointChain;
using ckpt::CheckpointFile;
using ckpt::CheckpointKind;
using ckpt::RestartEngine;
using Mode = RestartEngine::Mode;

constexpr Mode kModes[] = {Mode::kInPlace, Mode::kOutOfPlace};

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes out(n);
  for (auto& x : out) x = std::uint8_t(rng());
  return out;
}

void randomize_page(mem::AddressSpace& space, mem::PageId id, Rng& rng) {
  space.write_page(id, random_bytes(rng, kPageSize));
}

void small_edit(mem::AddressSpace& space, mem::PageId id, Rng& rng) {
  space.write(id, rng.uniform_u64(kPageSize - 16), random_bytes(rng, 16));
}

/// Copies page `src`'s current image over page `dst`: a whole-page move,
/// which the correcting coder writes as a cdelta record naming `src`.
void move_page(mem::AddressSpace& space, mem::PageId src, mem::PageId dst) {
  const ByteSpan image = space.page_bytes(src);
  space.write_page(dst, Bytes(image.begin(), image.end()));
}

/// A chain over pages 0-63 and its live space: a full, then incrementals
/// with edits, rewrites (raw records), identical rewrites (same records),
/// frees, new pages inside and past the full's ids and, in correcting
/// mode, whole-page moves. Every cut at 1-8 ranges lies at or above page
/// 8 and below page 57, so a move between pages 0-7 or 57-63 stays inside
/// one range, and `cross_range` adds one from page 3 to page 60.
struct Fixture {
  mem::AddressSpace space;
  std::unique_ptr<CheckpointChain> chain;

  Fixture(bool correcting, bool cross_range, std::uint64_t seed) {
    Rng rng(seed);
    space.allocate_range(0, 64);
    for (mem::PageId id = 0; id < 64; ++id) randomize_page(space, id, rng);
    CheckpointChain::Config cfg;
    cfg.correcting = correcting;
    cfg.compress_workers = 1;
    chain = std::make_unique<CheckpointChain>(cfg);
    chain->capture(space, ByteSpan(random_bytes(rng, 24)), 0.0);
    for (int step = 1; step <= 6; ++step) {
      space.protect_all();
      for (mem::PageId id = 0; id < 64; id += 1 + rng.uniform_u64(4)) {
        if (space.contains(id)) small_edit(space, id, rng);
      }
      if (const mem::PageId id = 9 + rng.uniform_u64(40); space.contains(id))
        randomize_page(space, id, rng);
      move_page(space, 20, 20);  // identical rewrite: a same record
      if (step == 2) space.free_page(30);
      if (step == 3) {
        space.allocate(30);  // back, inside the full's ids
        randomize_page(space, 30, rng);
        space.allocate(100 + step);  // past them: the last range's
        randomize_page(space, 100 + step, rng);
      }
      if (step == 4) space.free_page(100 + 3);
      if (correcting && step >= 4) {
        move_page(space, 1, 6);
        move_page(space, 58, 62);
        if (cross_range) move_page(space, 3, 60);
      }
      chain->capture(space, ByteSpan(random_bytes(rng, 24)),
                     double(step) * 1.5);
    }
  }
  const std::vector<CheckpointFile>& files() const { return chain->files(); }
};

void expect_same(const RestartEngine::Restored& got,
                 const RestartEngine::Restored& want, const std::string& what) {
  ASSERT_EQ(got.memory.page_ids(), want.memory.page_ids()) << what;
  for (mem::PageId id : want.memory.page_ids()) {
    const ByteSpan a = got.memory.page_bytes(id);
    const ByteSpan b = want.memory.page_bytes(id);
    ASSERT_EQ(std::memcmp(a.data(), b.data(), kPageSize), 0)
        << what << ", page " << id;
  }
  EXPECT_EQ(got.cpu_state, want.cpu_state) << what;
  EXPECT_EQ(got.app_time, want.app_time) << what;
  EXPECT_EQ(got.sequence, want.sequence) << what;
}

RestartEngine::Restored restore_at(std::span<const CheckpointFile> chain,
                                   const delta::PageAlignedCompressor& pa,
                                   Mode mode, std::size_t ranges) {
  return ckpt::detail::restore_ranges(chain, pa, mode, ranges, ranges);
}

// ---- calls of the shared pool that overlap ----

TEST(ThreadPool, ACallReturnsWhileAnotherHoldsThePool) {
  // Call A's items wait for `release`, holding its caller and every pool
  // thread. Call B's tasks queue behind A's, so B's caller does all of B's
  // items; it returns without waiting for those tasks, which run after A
  // and find nothing left.
  const std::size_t workers = common::ThreadPool::default_workers();
  if (workers < 2) GTEST_SKIP() << "one participant: the pool never starts";
  std::atomic<std::size_t> started{0};
  std::atomic<bool> release{false};
  std::thread a([&] {
    common::parallel_for(workers, workers, [&](std::size_t) {
      ++started;
      while (!release.load())
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    });
  });
  while (started.load() < workers)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  std::vector<int> done(8, 0);
  std::future<void> b = std::async(std::launch::async, [&] {
    common::parallel_for(done.size(), workers,
                         [&](std::size_t i) { done[i] = 1; });
  });
  const bool returned =
      b.wait_for(std::chrono::seconds(20)) == std::future_status::ready;
  release = true;
  a.join();
  b.wait();
  EXPECT_TRUE(returned) << "B waited for its tasks behind A's";
  EXPECT_EQ(done, std::vector<int>(8, 1));
}

TEST(ThreadPool, ACompressAndARestoreAtOnceBothMatchSerial) {
  // A 4-worker compress on one thread and the restore of a 2048-page chain
  // (replayed by page range) on another, started together and repeated,
  // share the pool; each returns what its serial path returns.
  constexpr std::size_t kPages = 2048;
  Rng rng(0x5EF);
  mem::AddressSpace space;
  space.allocate_range(0, kPages);
  for (mem::PageId id = 0; id < kPages; ++id) randomize_page(space, id, rng);
  CheckpointChain::Config cfg;
  cfg.compress_workers = 1;
  CheckpointChain chain(cfg);
  chain.capture(space, {}, 0.0);
  for (int step = 1; step <= 3; ++step) {
    space.protect_all();
    for (int e = 0; e < 256; ++e)
      small_edit(space, rng.uniform_u64(kPages), rng);
    chain.capture(space, {}, double(step));
  }
  const delta::PageAlignedCompressor pa;
  const auto serial_restore = restore_at(chain.files(), pa, Mode::kInPlace, 1);

  const mem::Snapshot prev = mem::Snapshot::capture(space);
  std::vector<Bytes> images;
  for (mem::PageId id = 0; id < kPages; id += 3) {
    Bytes image(prev.page_bytes(id).begin(), prev.page_bytes(id).end());
    image[id % kPageSize] ^= 0x5A;
    images.push_back(std::move(image));
  }
  std::vector<delta::DirtyPage> dirty;
  for (std::size_t i = 0; i < images.size(); ++i)
    dirty.push_back({mem::PageId(3 * i), images[i]});
  const Bytes serial_payload = pa.compress(dirty, prev).payload;

  constexpr int kRounds = 4;
  std::vector<Bytes> payloads(kRounds);
  std::vector<RestartEngine::Restored> restored(kRounds);
  std::latch go(2);
  std::thread compressing([&] {
    delta::ParallelPageCompressor pc({.workers = 4, .min_shard_pages = 1});
    go.arrive_and_wait();
    for (int r = 0; r < kRounds; ++r)
      payloads[r] = pc.compress(dirty, prev).payload;
  });
  std::thread restoring([&] {
    go.arrive_and_wait();
    for (int r = 0; r < kRounds; ++r)
      restored[r] = RestartEngine::restore(chain.files(), pa);
  });
  compressing.join();
  restoring.join();
  for (int r = 0; r < kRounds; ++r) {
    EXPECT_EQ(payloads[r], serial_payload) << "compress " << r;
    expect_same(restored[r], serial_restore, "restore " + std::to_string(r));
  }
}

// ---- replay by page range ----

TEST(ParallelRestore, EveryRangeCountMatchesTheSerialReplay) {
  for (const bool correcting : {false, true}) {
    for (const bool cross : {false, true}) {
      if (cross && !correcting) continue;
      Fixture fx(correcting, cross, 0x5E1 + correcting + 2 * cross);
      const delta::PageAlignedCompressor pa({}, correcting);
      for (const Mode mode : kModes) {
        const auto serial = restore_at(fx.files(), pa, mode, 1);
        ASSERT_TRUE(serial.memory.equals_space(fx.space));
        for (std::size_t ranges = 2; ranges <= 8; ++ranges) {
          expect_same(restore_at(fx.files(), pa, mode, ranges), serial,
                      "correcting " + std::to_string(correcting) +
                          ", cross " + std::to_string(cross) + ", mode " +
                          std::to_string(int(mode)) + ", ranges " +
                          std::to_string(ranges));
        }
      }
    }
  }
}

TEST(ParallelRestore, EveryPrefixOfTheChainMatches) {
  // Restoring each prefix ends the replay at each kind of record.
  Fixture fx(/*correcting=*/true, /*cross_range=*/false, 0x5E5);
  const delta::PageAlignedCompressor pa({}, true);
  const std::span<const CheckpointFile> files(fx.files());
  for (std::size_t n = 1; n <= files.size(); ++n) {
    const auto serial = restore_at(files.first(n), pa, Mode::kInPlace, 1);
    for (const std::size_t ranges : {std::size_t{3}, std::size_t{8}}) {
      expect_same(restore_at(files.first(n), pa, Mode::kInPlace, ranges),
                  serial, "prefix " + std::to_string(n));
    }
  }
}

TEST(ParallelRestore, TwoThreadsRestoringAtOnceBothMatch) {
  Fixture fx(/*correcting=*/false, /*cross_range=*/false, 0x5E6);
  const delta::PageAlignedCompressor pa;
  const auto serial = restore_at(fx.files(), pa, Mode::kInPlace, 1);
  std::vector<RestartEngine::Restored> got(2 * 8);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      for (std::size_t i = 0; i < 8; ++i)
        got[t * 8 + i] = restore_at(fx.files(), pa, Mode::kInPlace, 2 + i % 7);
    });
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < got.size(); ++i)
    expect_same(got[i], serial, "restore " + std::to_string(i));
}

// ---- every malformed chain fails through the serial replay's message ----

std::string restore_error(std::span<const CheckpointFile> chain,
                          const delta::PageAlignedCompressor& pa, Mode mode,
                          std::size_t ranges) {
  try {
    (void)restore_at(chain, pa, mode, ranges);
  } catch (const CheckError& e) {
    return e.what();
  }
  return {};
}

/// A greedy delta record for `pages` of `prev`, each with one byte
/// flipped.
CheckpointFile edited_record(const mem::Snapshot& prev,
                             const std::vector<mem::PageId>& pages,
                             std::uint64_t sequence) {
  std::vector<Bytes> images;
  for (mem::PageId id : pages) {
    Bytes image(prev.page_bytes(id).begin(), prev.page_bytes(id).end());
    image[id % kPageSize] ^= 0x5A;
    images.push_back(std::move(image));
  }
  std::vector<delta::DirtyPage> dirty;
  for (std::size_t i = 0; i < pages.size(); ++i)
    dirty.push_back({pages[i], images[i]});
  CheckpointFile f;
  f.kind = CheckpointKind::kIncrementalDelta;
  f.sequence = sequence;
  f.payload = delta::PageAlignedCompressor().compress(dirty, prev).payload;
  return f;
}

TEST(ParallelRestore, MalformedChainsThrowTheSerialMessage) {
  Fixture fx(/*correcting=*/false, /*cross_range=*/false, 0x5E7);
  const std::vector<CheckpointFile>& good = fx.files();
  const mem::Snapshot full_state = RestartEngine::restore(
      std::span(good).first(1), delta::PageAlignedCompressor()).memory;

  std::vector<std::pair<std::string, std::vector<CheckpointFile>>> cases;
  auto with = [&](const std::string& name, auto edit) {
    std::vector<CheckpointFile> chain = good;
    edit(chain);
    cases.emplace_back(name, std::move(chain));
  };
  with("missing middle", [](auto& c) { c.erase(c.begin() + 2); });
  with("repeated sequence", [](auto& c) { c[3].sequence = 2; });
  with("no leading full", [](auto& c) { c.erase(c.begin()); });
  with("empty", [](auto& c) { c.clear(); });
  with("garbage delta", [](auto& c) { c[4].payload = Bytes(48, 0xC3); });
  with("garbage full", [](auto& c) {
    Bytes payload(c[0].payload.begin(), c[0].payload.end());
    payload.resize(5000);
    c[0].payload = std::move(payload);
  });
  with("truncated delta", [](auto& c) {
    Bytes payload(c[2].payload.begin(), c[2].payload.end());
    payload.pop_back();
    c[2].payload = std::move(payload);
  });
  with("page named twice", [&](auto& c) {
    c.resize(1);
    c.push_back(edited_record(full_state, {0, 0}, 1));
  });
  with("page named twice out of order", [&](auto& c) {
    c.resize(1);
    c.push_back(edited_record(full_state, {3, 1, 3}, 1));
  });
  with("hostile delta body in one range", [&](auto& c) {
    c.resize(1);
    CheckpointFile f = edited_record(full_state, {5, 40}, 1);
    // The record for page 40 ends the payload: overwrite its delta body
    // with bytes no XDelta3 stream starts with.
    Bytes payload(f.payload.begin(), f.payload.end());
    for (std::size_t i = payload.size() - 6; i < payload.size(); ++i)
      payload[i] = 0xFF;
    f.payload = std::move(payload);
    c.push_back(std::move(f));
  });
  with("delta for a page not in the image", [&](auto& c) {
    c.resize(1);
    CheckpointFile f = edited_record(full_state, {12}, 1);
    f.payload = edited_record(full_state, {12}, 1).payload;
    c[0].payload = ckpt::encode_raw_pages({});
    c.push_back(std::move(f));
  });

  with("move from a page not in the image", [&](auto& c) {
    // Pages 62 and 63 share the last range at every range count, so this
    // fails inside one participant.
    c.resize(1);
    std::vector<delta::DirtyPage> kept;
    for (mem::PageId id = 0; id < 63; ++id)
      kept.push_back({id, full_state.page_bytes(id)});
    c[0].payload = ckpt::encode_raw_pages(kept);
    CheckpointFile f;
    f.kind = CheckpointKind::kIncrementalCorrecting;
    f.sequence = 1;
    Bytes payload;
    ByteWriter w(payload);
    w.varint(1);
    w.varint(62);
    w.u8(3);  // cdelta
    w.varint(63);
    w.varint(4);
    w.raw(Bytes{1, 2, 3, 4});
    f.payload = std::move(payload);
    c.push_back(std::move(f));
  });

  const delta::PageAlignedCompressor pa;
  for (const auto& [name, chain] : cases) {
    for (const Mode mode : kModes) {
      const std::string want = restore_error(chain, pa, mode, 1);
      ASSERT_FALSE(want.empty()) << name << ": serial replay accepted it";
      for (std::size_t ranges = 2; ranges <= 8; ++ranges)
        EXPECT_EQ(restore_error(chain, pa, mode, ranges), want)
            << name << ", " << ranges << " ranges";
    }
  }
}

TEST(ParallelRestore, AllocationsStayPerBlockAndPerRange) {
  // A full of N pages and three greedy incrementals, replayed in R
  // ranges. Measured at N = 1024 after a warm-up restore: 206 allocations
  // at R = 4 and 258 at R = 8, where the serial replay makes 154. Besides
  // the N / 8 frame blocks, each range reserves its snapshot (id list,
  // block list, the list of reserved frames and the free list's
  // doublings, about log2(N / R)), decodes each incremental's deltas into
  // a scratch page and may end on a partial block; the chain read adds a
  // page list per record, the splice an id list and block list doublings
  // and the pool call its shared state. The bound restates that with two
  // spare per range.
  constexpr std::size_t n = 1024, ranges = 4, incrementals = 3;
  Rng rng(0x5E8);
  mem::AddressSpace space;
  space.allocate_range(0, n);
  for (mem::PageId id = 0; id < n; ++id) randomize_page(space, id, rng);
  CheckpointChain::Config cfg;
  cfg.compress_workers = 1;
  CheckpointChain chain(cfg);
  chain.capture(space, {}, 0.0);
  for (std::size_t i = 1; i <= incrementals; ++i) {
    space.protect_all();
    for (mem::PageId id = 0; id < n; id += 3) small_edit(space, id, rng);
    chain.capture(space, {}, double(i));
  }
  const delta::PageAlignedCompressor pa;
  (void)restore_at(chain.files(), pa, Mode::kInPlace, ranges);  // warm-up

  const std::uint64_t before = testing::heap_stats().allocations;
  const auto restored = restore_at(chain.files(), pa, Mode::kInPlace, ranges);
  const std::uint64_t allocations =
      testing::heap_stats().allocations - before;
  ASSERT_TRUE(restored.memory.equals_space(space));
  const std::size_t per_range =
      std::bit_width(n / ranges) + incrementals + 4;
  EXPECT_LE(allocations, n / mem::kFramesPerBlock + ranges * per_range +
                             2 * (incrementals + 1) + 8)
      << allocations << " allocations";
}

// ---- the splice and the slab under it ----

TEST(Slab, AdoptKeepsEveryObjectWhereItSits) {
  common::Slab<std::uint64_t, 4> a, b;
  std::vector<std::uint64_t*> from_a, from_b;
  for (int i = 0; i < 5; ++i) from_a.push_back(a.acquire());
  for (int i = 0; i < 6; ++i) from_b.push_back(b.acquire());
  for (std::size_t i = 0; i < from_b.size(); ++i) *from_b[i] = 100 + i;
  b.release(from_b[1]);
  a.adopt(b);
  EXPECT_EQ(a.capacity(), 4u * 4u);
  EXPECT_EQ(b.capacity(), 0u);
  for (std::size_t i = 0; i < from_b.size(); ++i) {
    if (i != 1) {
      EXPECT_EQ(*from_b[i], 100 + i);
    }
  }
  // The released object, a's unused three and b's unused two come back
  // before a new block is taken; b starts over with a block of its own.
  std::vector<std::uint64_t*> again;
  for (int i = 0; i < 6; ++i) again.push_back(a.acquire());
  EXPECT_EQ(a.capacity(), 16u);
  EXPECT_NE(std::find(again.begin(), again.end(), from_b[1]), again.end());
  (void)a.acquire();
  EXPECT_EQ(a.capacity(), 20u);
  EXPECT_NE(b.acquire(), nullptr);
  EXPECT_EQ(b.capacity(), 4u);
}

TEST(Snapshot, SpliceJoinsRangesWithoutCopyingAPage) {
  Rng rng(0x5E9);
  std::vector<mem::Snapshot> parts(3);
  std::vector<std::pair<mem::PageId, const std::uint8_t*>> frames;
  mem::Snapshot want;
  for (std::size_t p = 0; p < parts.size(); ++p) {
    for (mem::PageId id = p * 100; id < p * 100 + 9 + p; id += 1 + p) {
      const Bytes image = random_bytes(rng, kPageSize);
      parts[p].put_page(id, image);
      want.put_page(id, image);
      frames.emplace_back(id, parts[p].page_bytes(id).data());
    }
  }
  mem::Snapshot joined = mem::Snapshot::splice(parts);
  EXPECT_EQ(joined.page_ids(), want.page_ids());
  for (const auto& [id, frame] : frames) {
    EXPECT_EQ(joined.page_bytes(id).data(), frame) << "page " << id;
    EXPECT_EQ(std::memcmp(frame, want.page_bytes(id).data(), kPageSize), 0);
  }
  for (const mem::Snapshot& part : parts) EXPECT_EQ(part.page_count(), 0u);
  // The joined snapshot owns its frames: it frees and reuses them.
  joined.erase_page(100);
  joined.put_page(7, random_bytes(rng, kPageSize));
  EXPECT_TRUE(joined.contains(7));
  EXPECT_FALSE(joined.contains(100));

  std::vector<mem::Snapshot> overlapping(2);
  overlapping[0].put_page(5, random_bytes(rng, kPageSize));
  overlapping[1].put_page(5, random_bytes(rng, kPageSize));
  EXPECT_THROW((void)mem::Snapshot::splice(overlapping), CheckError);
}

TEST(Snapshot, MaterializeOnThePoolMatchesAndNeverStartsIt) {
  Rng rng(0x5EA);
  mem::AddressSpace space;
  space.allocate_range(0, 3000);
  for (mem::PageId id = 0; id < 3000; id += 2) space.free_page(id);
  for (mem::PageId id = 1; id < 3000; id += 2) randomize_page(space, id, rng);
  const mem::Snapshot image = mem::Snapshot::capture(space);
  const std::size_t threads = common::pool_threads();
  EXPECT_TRUE(image.equals_space(image.materialize()));
  EXPECT_EQ(common::pool_threads(), threads);
  // Start the pool the way a restore does, then copy on it.
  common::parallel_for(4, 4, [](std::size_t) {});
  EXPECT_GE(common::pool_threads(), 3u);
  const mem::AddressSpace rebuilt = image.materialize();
  EXPECT_TRUE(image.equals_space(rebuilt));
  EXPECT_EQ(rebuilt.dirty_pages(), rebuilt.live_pages());
}

// ---- the ranged record read ----

TEST(Raid5, ReadRangeMatchesGetWithAndWithoutAMember) {
  Rng rng(0x5EC);
  storage::Raid5Group group(4, 400.0e6, /*stripe_unit=*/1000);
  const Bytes object = random_bytes(rng, 3 * 1000 * 7 + 1234);
  group.put("obj", object);
  group.put("empty", Bytes{});
  auto check = [&](const std::string& what) {
    ASSERT_EQ(group.object_size("obj"), object.size()) << what;
    ASSERT_EQ(group.object_size("empty"), 0u) << what;
    EXPECT_EQ(*group.get("obj"), object) << what;
    for (int i = 0; i < 50; ++i) {
      const std::size_t at = rng.uniform_u64(object.size() + 1);
      const std::size_t len = rng.uniform_u64(object.size() - at + 1);
      Bytes out(len);
      group.read_range("obj", at, out);
      EXPECT_TRUE(std::equal(out.begin(), out.end(), object.begin() + at))
          << what << ": [" << at << ", " << at + len << ")";
    }
    Bytes past(2);
    EXPECT_THROW(group.read_range("obj", object.size() - 1, past),
                 CheckError);
  };
  check("healthy");
  group.fail_node(2);
  check("member 2 down");
  group.rebuild_node(2);
  check("member 2 rebuilt");
  group.fail_node(1);
  group.put("late", object);  // written without member 1's share
  Bytes late(object.size());
  group.read_range("late", 0, late);
  EXPECT_EQ(late, object);
  group.fail_node(3);  // two members down: nothing is readable
  EXPECT_EQ(group.object_size("late"), std::nullopt);
  EXPECT_EQ(group.get("late"), std::nullopt);
  EXPECT_EQ(group.object_size("missing"), std::nullopt);
}

TEST(MultiLevelStore, LargeRecoveryOnThePoolMatchesTheStoredRecords) {
  // A 600-page full (2.4 MB, four read segments) and 40 small records:
  // large enough that recover() fetches and parses on the shared pool.
  storage::MultiLevelStore store;
  Rng rng(0x5EE);
  mem::AddressSpace space;
  space.allocate_range(0, 600);
  for (mem::PageId id = 0; id < 600; ++id) randomize_page(space, id, rng);
  CheckpointChain chain;
  for (int i = 0; i <= 40; ++i) {
    if (i > 0) {
      for (int e = 0; e < 20; ++e) small_edit(space, rng.uniform_u64(600), rng);
    }
    chain.capture(space, {}, double(i));
    space.protect_all();
    store.put_checkpoint(chain.files().back());
  }
  auto expect_chain = [&](int level) {
    const auto rec = store.recover();
    ASSERT_TRUE(rec.has_value());
    EXPECT_EQ(rec->level_used, level);
    ASSERT_EQ(rec->chain.size(), chain.files().size());
    for (std::size_t i = 0; i < rec->chain.size(); ++i)
      EXPECT_EQ(rec->chain[i].serialize(), chain.files()[i].serialize()) << i;
  };
  expect_chain(1);
  Rng fail(3);
  store.apply_failure(2, fail);
  expect_chain(2);
  store.apply_failure(3, fail);
  expect_chain(3);
}

}  // namespace
}  // namespace aic
