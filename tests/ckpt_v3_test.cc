// Tests for checkpoint format v3 (the correcting-coder chain kind) and
// in-place restart reconstruction: capture/serialize/parse round trips,
// version-flip hardening (the v3 CRC covers the magic), in-place vs
// out-of-place restore equivalence over evolving chains, and the
// restart-memory claim — in-place restore must peak at no more than 55%
// of the out-of-place heap high-water mark (measured by the binary-wide
// allocation guard in tests/heap_guard.h) — the per-page allocation bound
// of a greedy replay, and the duplicate-page rule both decoders share.
#include <gtest/gtest.h>

#include <bit>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "ckpt/checkpoint_file.h"
#include "ckpt/checkpointer.h"
#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"
#include "delta/page_delta.h"
#include "mem/address_space.h"
#include "heap_guard.h"

namespace aic::ckpt {
namespace {

void randomize_page(mem::AddressSpace& space, mem::PageId id, Rng& rng) {
  space.mutate(id, [&](std::span<std::uint8_t> b) {
    for (auto& x : b) x = std::uint8_t(rng());
  });
}

void small_edit(mem::AddressSpace& space, mem::PageId id, Rng& rng) {
  Bytes data(16);
  for (auto& x : data) x = std::uint8_t(rng());
  space.write(id, rng.uniform_u64(kPageSize - data.size()), data);
}

/// Random churn for chain tests: edits, whole-page moves (the workload
/// cdelta records exist for), frees and allocations.
void evolve(mem::AddressSpace& space, Rng& rng, std::size_t id_range) {
  space.protect_all();
  const int edits = 2 + int(rng.uniform_u64(6));
  for (int e = 0; e < edits; ++e) {
    const mem::PageId id = rng.uniform_u64(id_range);
    if (!space.contains(id)) {
      space.allocate(id);
    } else if (rng.bernoulli(0.1)) {
      space.free_page(id);
    } else if (rng.bernoulli(0.25)) {
      // Whole-page move: copy another live page's current image.
      const auto live = space.live_pages();
      const mem::PageId src = live[rng.uniform_u64(live.size())];
      if (src == id) continue;
      Bytes img(space.page_bytes(src).begin(), space.page_bytes(src).end());
      space.write(id, 0, img);
    } else if (rng.bernoulli(0.3)) {
      randomize_page(space, id, rng);
    } else {
      small_edit(space, id, rng);
    }
  }
}

TEST(CheckpointV3, CorrectingChainRoundTripsThroughSerialize) {
  Rng rng(0x33);
  mem::AddressSpace space;
  space.allocate_range(0, 16);
  for (mem::PageId id = 0; id < 16; ++id) randomize_page(space, id, rng);

  CheckpointChain::Config cfg;
  cfg.correcting = true;
  CheckpointChain chain(cfg);
  for (int interval = 0; interval < 6; ++interval) {
    if (interval > 0) evolve(space, rng, 20);
    const Bytes cpu = {std::uint8_t(interval)};
    CaptureStats st = chain.capture(space, cpu, double(interval));
    if (interval > 0) {
      EXPECT_EQ(st.kind, CheckpointKind::kIncrementalCorrecting);
    }
  }

  // Serialize + parse every record; correcting incrementals must carry the
  // v3 magic, and the parsed copy must be field-identical.
  bool saw_v3 = false;
  std::vector<CheckpointFile> reloaded;
  for (const CheckpointFile& f : chain.files()) {
    const Bytes wire = f.serialize();
    EXPECT_EQ(wire.size(), f.serialized_size());
    const CheckpointFile g = CheckpointFile::parse(wire);
    EXPECT_EQ(g.kind, f.kind);
    EXPECT_EQ(g.sequence, f.sequence);
    EXPECT_EQ(g.cpu_state, f.cpu_state);
    EXPECT_EQ(g.freed_pages, f.freed_pages);
    EXPECT_EQ(g.payload, f.payload);
    if (f.kind == CheckpointKind::kIncrementalCorrecting) {
      saw_v3 = true;
      EXPECT_EQ(g.version, CheckpointFile::kVersionV3);
      EXPECT_EQ(0, std::memcmp(wire.data(), "AAICCKT3", 8));
    } else {
      // Non-correcting kinds keep the v2 framing byte-for-byte: a chain
      // that never uses the coder is unchanged on disk.
      EXPECT_EQ(0, std::memcmp(wire.data(), "AAICCKT2", 8));
    }
  }
  ASSERT_TRUE(saw_v3);

  // A restore from the reloaded records matches the live space.
  for (const CheckpointFile& f : chain.files())
    reloaded.push_back(CheckpointFile::parse(f.serialize()));
  delta::PageAlignedCompressor pa({}, /*correcting=*/true);
  EXPECT_TRUE(RestartEngine::restore(reloaded, pa).memory.equals_space(space));
}

TEST(CheckpointV3, VersionDigitFlipsCannotForgeAnotherVersion) {
  // The v2 CRC only covered the body, so flipping the version digit used
  // to re-frame a record under another version's rules. The v3 CRC covers
  // the magic too: '3' -> '2' must die on the checksum, and '3' -> '7'
  // must surface as the typed unsupported-version error, never parse.
  Rng rng(0x34);
  mem::AddressSpace space;
  space.allocate_range(0, 4);
  for (mem::PageId id = 0; id < 4; ++id) randomize_page(space, id, rng);
  CheckpointChain::Config cfg;
  cfg.correcting = true;
  CheckpointChain chain(cfg);
  chain.capture(space, {}, 0.0);
  space.protect_all();
  small_edit(space, 1, rng);
  chain.capture(space, {}, 1.0);
  ASSERT_EQ(chain.files()[1].kind, CheckpointKind::kIncrementalCorrecting);
  const Bytes wire = chain.files()[1].serialize();
  ASSERT_EQ(wire[7], std::uint8_t('3'));

  Bytes to_v2 = wire;
  to_v2[7] = std::uint8_t('2');
  EXPECT_THROW((void)CheckpointFile::parse(to_v2), CheckError);

  Bytes to_v7 = wire;
  to_v7[7] = std::uint8_t('7');
  EXPECT_THROW((void)CheckpointFile::parse(to_v7), UnsupportedFormatError);
}

TEST(CheckpointV3, InPlaceRestoreMatchesOutOfPlaceAcrossChainLife) {
  Rng rng(0x35);
  mem::AddressSpace space;
  space.allocate_range(0, 16);
  for (mem::PageId id = 0; id < 16; ++id) randomize_page(space, id, rng);
  CheckpointChain::Config cfg;
  cfg.correcting = true;
  CheckpointChain chain(cfg);
  for (int interval = 0; interval < 8; ++interval) {
    if (interval > 0) evolve(space, rng, 20);
    chain.capture(space, {}, double(interval));
    auto in_place = chain.restore(RestartEngine::Mode::kInPlace);
    auto out_of_place = chain.restore(RestartEngine::Mode::kOutOfPlace);
    ASSERT_TRUE(in_place.memory.equals_space(space))
        << "in-place diverged at interval " << interval;
    ASSERT_TRUE(out_of_place.memory.equals_space(space));
    // Byte-exact across modes, page by page.
    const auto ids = in_place.memory.page_ids();
    ASSERT_EQ(ids, out_of_place.memory.page_ids());
    for (mem::PageId id : ids)
      ASSERT_EQ(0, std::memcmp(in_place.memory.page_bytes(id).data(),
                               out_of_place.memory.page_bytes(id).data(),
                               kPageSize))
          << "page " << id << " interval " << interval;
  }
}

TEST(CheckpointV3, GreedyChainInPlaceRestoreAlsoMatches) {
  // Mode is orthogonal to the coder: greedy (v2) chains restore in place
  // too, since kIncrementalDelta payloads replay through the same
  // dispatcher.
  Rng rng(0x36);
  mem::AddressSpace space;
  space.allocate_range(0, 12);
  for (mem::PageId id = 0; id < 12; ++id) randomize_page(space, id, rng);
  CheckpointChain chain;  // defaults: greedy delta
  for (int interval = 0; interval < 6; ++interval) {
    if (interval > 0) evolve(space, rng, 16);
    chain.capture(space, {}, double(interval));
    ASSERT_TRUE(chain.restore(RestartEngine::Mode::kInPlace)
                    .memory.equals_space(space));
    ASSERT_TRUE(chain.restore(RestartEngine::Mode::kOutOfPlace)
                    .memory.equals_space(space));
  }
}

TEST(CheckpointV3, InPlaceRestorePeakHeapAtMostHalfOfOutOfPlace) {
  // The memory claim behind in-place reconstruction (ISSUE 6 acceptance):
  // restoring a checkpoint whose incrementals touch every page must not
  // materialize a second image. Out-of-place decodes the dirty set into a
  // scratch snapshot before overlaying (peak ~= 2 images); in-place
  // rebuilds inside the accumulated state (peak ~= 1 image + one page).
  //
  // The chain is built so incrementals dominate: a tiny full (4 pages),
  // then an incremental that allocates and fills 60 more, then one that
  // edits all 64 — so the biggest single decode equals the whole image.
  Rng rng(0x37);
  mem::AddressSpace space;
  space.allocate_range(0, 4);
  for (mem::PageId id = 0; id < 4; ++id) randomize_page(space, id, rng);
  CheckpointChain::Config cfg;
  cfg.correcting = true;
  CheckpointChain chain(cfg);
  chain.capture(space, {}, 0.0);

  space.protect_all();
  space.allocate_range(4, 64);
  for (mem::PageId id = 4; id < 64; ++id) randomize_page(space, id, rng);
  chain.capture(space, {}, 1.0);

  space.protect_all();
  for (mem::PageId id = 0; id < 64; ++id) small_edit(space, id, rng);
  chain.capture(space, {}, 2.0);

  // Restore through RestartEngine directly: CheckpointChain::restore would
  // work, but the point is to measure the engine, not the chain wrapper.
  const std::vector<CheckpointFile>& files = chain.files();
  const delta::PageAlignedCompressor pa({}, /*correcting=*/true);

  aic::testing::reset_heap_peak();
  std::uint64_t live0 = aic::testing::heap_stats().live_bytes;
  auto out_of_place =
      RestartEngine::restore(files, pa, RestartEngine::Mode::kOutOfPlace);
  const std::uint64_t peak_out =
      aic::testing::heap_stats().peak_bytes - live0;

  aic::testing::reset_heap_peak();
  live0 = aic::testing::heap_stats().live_bytes;
  auto in_place =
      RestartEngine::restore(files, pa, RestartEngine::Mode::kInPlace);
  const std::uint64_t peak_in = aic::testing::heap_stats().peak_bytes - live0;

  // Same bytes out of both paths, and both match the live space.
  ASSERT_TRUE(in_place.memory.equals_space(space));
  ASSERT_TRUE(out_of_place.memory.equals_space(space));

  // Each restore must at least hold one image (64 pages), and the
  // in-place peak must be at most 55% of the out-of-place peak.
  EXPECT_GE(peak_out, 64u * kPageSize);
  EXPECT_GE(peak_in, 64u * kPageSize);
  EXPECT_LE(peak_in * 100, peak_out * 55)
      << "in-place peak " << peak_in << " vs out-of-place " << peak_out;
}

TEST(CheckpointV3, GreedyReplayAllocatesPerPageOnlyForTheFull) {
  // A full of N pages plus one incremental whose N records are all greedy
  // deltas. The full costs one allocation per block of frames, plus the
  // doublings of the snapshot's id list and block list (log2 N each); the
  // deltas decode into one reused scratch page and are copied into their
  // frames, so the whole restore stays within that plus a few per file.
  for (const std::size_t n : {std::size_t{64}, std::size_t{512}}) {
    Rng rng(0x38 + n);
    mem::AddressSpace space;
    space.allocate_range(0, n);
    for (mem::PageId id = 0; id < n; ++id) randomize_page(space, id, rng);
    CheckpointChain::Config cfg;
    cfg.compress_workers = 1;
    CheckpointChain chain(cfg);
    chain.capture(space, {}, 0.0);
    space.protect_all();
    for (mem::PageId id = 0; id < n; ++id) small_edit(space, id, rng);
    ASSERT_EQ(chain.capture(space, {}, 1.0).pages_delta, n);

    const delta::PageAlignedCompressor pa;
    const std::uint64_t before = aic::testing::heap_stats().allocations;
    const auto restored = RestartEngine::restore(chain.files(), pa);
    const std::uint64_t allocations =
        aic::testing::heap_stats().allocations - before;
    ASSERT_TRUE(restored.memory.equals_space(space));
    EXPECT_LE(allocations, n / mem::kFramesPerBlock +
                               2 * std::bit_width(n) + 4)
        << n << " pages";
  }
}

TEST(CheckpointV3, PageNamedTwiceIsRejectedInBothModes) {
  // A writer bug behind a valid checksum: one payload carries two records
  // for one page. Both decoders read payloads through one record reader,
  // so in-place and out-of-place restore reject it alike, whether the ids
  // repeat in order (0, 0) or out of it (3, 1, 3).
  Rng rng(0x39);
  mem::AddressSpace space;
  space.allocate_range(0, 4);
  for (mem::PageId id = 0; id < 4; ++id) randomize_page(space, id, rng);
  CheckpointChain chain;
  chain.capture(space, {}, 0.0);
  const mem::Snapshot& prev = chain.last_state();
  const delta::PageAlignedCompressor pa;
  for (const std::vector<mem::PageId>& ids :
       {std::vector<mem::PageId>{0, 0}, std::vector<mem::PageId>{3, 1, 3}}) {
    std::vector<Bytes> images;
    for (mem::PageId id : ids) {
      Bytes image(prev.page_bytes(id).begin(), prev.page_bytes(id).end());
      image[rng.uniform_u64(kPageSize)] ^= 0x5A;
      images.push_back(std::move(image));
    }
    std::vector<delta::DirtyPage> dirty;
    for (std::size_t i = 0; i < ids.size(); ++i)
      dirty.push_back({ids[i], images[i]});
    CheckpointFile incremental;
    incremental.kind = CheckpointKind::kIncrementalDelta;
    incremental.sequence = 1;
    incremental.payload = pa.compress(dirty, prev).payload;
    const std::vector<CheckpointFile> files = {chain.files()[0], incremental};
    for (const RestartEngine::Mode mode :
         {RestartEngine::Mode::kInPlace, RestartEngine::Mode::kOutOfPlace}) {
      try {
        (void)RestartEngine::restore(files, pa, mode);
        ADD_FAILURE() << "restored a payload naming page " << ids.back()
                      << " twice";
      } catch (const CheckError& e) {
        EXPECT_NE(std::string(e.what()).find("page " +
                                             std::to_string(ids.back()) +
                                             " appears twice"),
                  std::string::npos)
            << e.what();
      }
    }
  }
}

}  // namespace
}  // namespace aic::ckpt
