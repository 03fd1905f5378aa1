// Unit + property tests for delta/: rolling hash identities, XDelta3 and
// XOR codec round trips, compression effectiveness, and the page-aligned /
// whole-file checkpoint compressors.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "common/units.h"
#include "delta/correcting.h"
#include "delta/page_delta.h"
#include "delta/rolling_hash.h"
#include "delta/xdelta3.h"
#include "delta/xor_delta.h"
#include "mem/address_space.h"
#include "mem/snapshot.h"

namespace aic::delta {
namespace {

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (auto& x : b) x = std::uint8_t(rng());
  return b;
}

TEST(RollingHash, RollMatchesRecompute) {
  Rng rng(1);
  Bytes data = random_bytes(rng, 256);
  const std::size_t w = 16;
  RollingHash rh(data.data(), w);
  for (std::size_t pos = 0; pos + w < data.size(); ++pos) {
    RollingHash fresh(data.data() + pos, w);
    ASSERT_EQ(rh.digest(), fresh.digest()) << "at pos " << pos;
    rh.roll(data[pos], data[pos + w]);
  }
}

TEST(RollingHash, EqualBlocksEqualDigests) {
  Bytes a = {1, 2, 3, 4, 5, 6, 7, 8};
  Bytes b = a;
  EXPECT_EQ(RollingHash::of(a), RollingHash::of(b));
  b[3] ^= 0xFF;
  EXPECT_NE(RollingHash::of(a), RollingHash::of(b));
}

TEST(RollingHash, Fnv1aKnownVector) {
  // FNV-1a("a") = 0xAF63DC4C8601EC8C
  Bytes a = {'a'};
  EXPECT_EQ(fnv1a64(a), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(fnv1a64(ByteSpan{}), 0xCBF29CE484222325ULL);
}

class CodecRoundTrip : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<DeltaCodec> make() const {
    if (GetParam() == 0) return std::make_unique<XDelta3Codec>();
    if (GetParam() == 1) return std::make_unique<XorDeltaCodec>();
    return std::make_unique<CorrectingDeltaCodec>();
  }
};

TEST_P(CodecRoundTrip, IdenticalBuffers) {
  Rng rng(2);
  auto codec = make();
  Bytes src = random_bytes(rng, 4096);
  CodecStats st;
  Bytes delta = codec->encode(src, src, &st);
  EXPECT_LT(delta.size(), 64u);  // near-total compression
  Bytes back = codec->decode(src, delta);
  EXPECT_EQ(back, src);
}

TEST_P(CodecRoundTrip, EmptyTarget) {
  Rng rng(3);
  auto codec = make();
  Bytes src = random_bytes(rng, 512);
  Bytes delta = codec->encode(src, {});
  EXPECT_EQ(codec->decode(src, delta), Bytes{});
}

TEST_P(CodecRoundTrip, EmptySource) {
  Rng rng(4);
  auto codec = make();
  Bytes tgt = random_bytes(rng, 512);
  Bytes delta = codec->encode({}, tgt);
  EXPECT_EQ(codec->decode({}, delta), tgt);
}

TEST_P(CodecRoundTrip, RandomUnrelatedBuffers) {
  Rng rng(5);
  auto codec = make();
  for (int trial = 0; trial < 10; ++trial) {
    Bytes src = random_bytes(rng, 1 + rng.uniform_u64(8192));
    Bytes tgt = random_bytes(rng, 1 + rng.uniform_u64(8192));
    Bytes delta = codec->encode(src, tgt);
    EXPECT_EQ(codec->decode(src, delta), tgt);
  }
}

TEST_P(CodecRoundTrip, SmallEdits) {
  Rng rng(6);
  auto codec = make();
  Bytes src = random_bytes(rng, 16384);
  Bytes tgt = src;
  for (int e = 0; e < 10; ++e) tgt[rng.uniform_u64(tgt.size())] ^= 0x5A;
  CodecStats st;
  Bytes delta = codec->encode(src, tgt, &st);
  EXPECT_EQ(codec->decode(src, delta), tgt);
  EXPECT_LT(st.ratio(), 0.2) << "few edits must compress well";
}

TEST_P(CodecRoundTrip, WrongSourceRejected) {
  Rng rng(7);
  auto codec = make();
  Bytes src = random_bytes(rng, 1024);
  Bytes tgt = random_bytes(rng, 1024);
  Bytes delta = codec->encode(src, tgt);
  Bytes other = random_bytes(rng, 777);
  EXPECT_THROW((void)codec->decode(other, delta), CheckError);
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecRoundTrip,
                         ::testing::Values(0, 1, 2),
                         [](const auto& info) {
                           switch (info.param) {
                             case 0:
                               return std::string("XDelta3");
                             case 1:
                               return std::string("XorRle");
                             default:
                               return std::string("Correcting");
                           }
                         });

TEST(XDelta3, FindsShiftedContent) {
  Rng rng(8);
  Bytes src = random_bytes(rng, 8192);
  // Target = source shifted by 100 bytes with a new prefix: XOR can't see
  // it, block matching must.
  Bytes tgt = random_bytes(rng, 100);
  tgt.insert(tgt.end(), src.begin(), src.end());

  XDelta3Codec xd;
  XorDeltaCodec xr;
  CodecStats xd_st, xr_st;
  Bytes d1 = xd.encode(src, tgt, &xd_st);
  Bytes d2 = xr.encode(src, tgt, &xr_st);
  EXPECT_EQ(xd.decode(src, d1), tgt);
  EXPECT_EQ(xr.decode(src, d2), tgt);
  EXPECT_LT(xd_st.ratio(), 0.1);
  EXPECT_GT(xr_st.ratio(), 0.9);  // XOR sees nothing aligned
}

TEST(XDelta3, RepeatedBlocksBoundedProbes) {
  // All-identical source blocks put every offset in one bucket; encoding
  // must still terminate quickly and round-trip.
  Bytes src(64 * 1024, 0x42);
  Bytes tgt(64 * 1024, 0x42);
  tgt[1000] = 0x43;
  XDelta3Codec xd;
  CodecStats st;
  Bytes delta = xd.encode(src, tgt, &st);
  EXPECT_EQ(xd.decode(src, delta), tgt);
  EXPECT_LT(st.ratio(), 0.05);
}

TEST(XDelta3, TargetShorterThanBlock) {
  XDelta3Codec xd(XDelta3Config{.block_size = 64});
  Bytes src(256, 1);
  Bytes tgt = {9, 9, 9};
  Bytes delta = xd.encode(src, tgt);
  EXPECT_EQ(xd.decode(src, delta), tgt);
}

TEST(XDelta3, StatsAccounting) {
  Rng rng(9);
  Bytes src = random_bytes(rng, 4096);
  Bytes tgt = src;
  XDelta3Codec xd;
  CodecStats st;
  Bytes delta = xd.encode(src, tgt, &st);
  EXPECT_EQ(st.input_bytes, tgt.size());
  EXPECT_EQ(st.source_bytes, src.size());
  EXPECT_EQ(st.output_bytes, delta.size());
  EXPECT_GT(st.work_units, src.size());  // at least the hashing pass
  EXPECT_GE(st.copy_ops, 1u);
}

// Hostile deltas: a checkpoint record with a valid CRC can carry any
// header and any op, so decode must throw CheckError — never over-read
// the source or trust the header's target size with an allocation.
Bytes delta_header(std::uint64_t source_size, std::uint64_t target_size) {
  Bytes d;
  ByteWriter w(d);
  w.varint(source_size);
  w.varint(target_size);
  return d;
}

TEST(XDelta3, DecodeRejectsWrappingCopy) {
  const Bytes src(4096, 7);
  const XDelta3Codec xd;
  // off + len wraps past 2^64 to a value inside the source.
  const std::pair<std::uint64_t, std::uint64_t> copies[] = {
      {~0ull, 2}, {~0ull - (1ull << 40) + 1, (1ull << 40) + 1}};
  for (const auto& [off, len] : copies) {
    Bytes d = delta_header(src.size(), len);
    ByteWriter w(d);
    w.u8(0x01);
    w.varint(off);
    w.varint(len);
    EXPECT_THROW((void)xd.decode(src, d), CheckError) << "off " << off;
  }
}

TEST(XDelta3, DecodeRejectsHugeTargetSize) {
  const Bytes src(4096, 7);
  Bytes d = delta_header(src.size(), 1ull << 62);
  ByteWriter w(d);
  w.u8(0x00);
  w.varint(3);
  w.raw(Bytes{1, 2, 3});
  EXPECT_THROW((void)XDelta3Codec().decode(src, d), CheckError);
}

/// Decoding `delta` must stop at the op that overruns the header's
/// target size, not after writing it.
void expect_rejected_past_target(const DeltaCodec& codec, ByteSpan src,
                                 const Bytes& delta) {
  try {
    (void)codec.decode(src, delta);
    ADD_FAILURE() << codec.name() << " decoded an op past its target size";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("past its target size"),
              std::string::npos)
        << e.what();
  }
}

TEST(XDelta3, DecodeRejectsOpsPastTargetSize) {
  const Bytes src(4096, 7);
  Bytes add = delta_header(src.size(), 4);
  ByteWriter aw(add);
  aw.u8(0x00);
  aw.varint(8);
  aw.raw(Bytes(8, 1));
  expect_rejected_past_target(XDelta3Codec(), src, add);
  Bytes copy = delta_header(src.size(), 4);
  ByteWriter cw(copy);
  cw.u8(0x01);
  cw.varint(0);
  cw.varint(8);
  expect_rejected_past_target(XDelta3Codec(), src, copy);
}

TEST(XorDelta, DecodeRejectsHugeTargetSize) {
  const Bytes src(100, 7);
  Bytes d = delta_header(src.size(), 1ull << 62);
  ByteWriter w(d);
  w.u8(0x01);
  w.varint(3);
  w.raw(Bytes{1, 2, 3});
  EXPECT_THROW((void)XorDeltaCodec().decode(src, d), CheckError);
}

TEST(XorDelta, DecodeRejectsOpsPastTargetSize) {
  const Bytes src(100, 7);
  Bytes d = delta_header(src.size(), 4);
  ByteWriter w(d);
  w.u8(0x00);
  w.varint(1ull << 24);  // a zero run needs no payload bytes
  expect_rejected_past_target(XorDeltaCodec(), src, d);
}

TEST(XorDelta, ZeroRunEncoding) {
  Bytes src(1024, 7);
  Bytes tgt = src;
  tgt[512] = 8;
  XorDeltaCodec xr;
  CodecStats st;
  Bytes delta = xr.encode(src, tgt, &st);
  EXPECT_EQ(xr.decode(src, delta), tgt);
  EXPECT_LT(delta.size(), 32u);
}

TEST(XorDelta, TargetLongerThanSource) {
  Rng rng(10);
  Bytes src = random_bytes(rng, 100);
  Bytes tgt = src;
  Bytes tail = random_bytes(rng, 300);
  tgt.insert(tgt.end(), tail.begin(), tail.end());
  XorDeltaCodec xr;
  Bytes delta = xr.encode(src, tgt);
  EXPECT_EQ(xr.decode(src, delta), tgt);
}

// ---- page-aligned and whole-file checkpoint compressors ----

class PageCompressorFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    space_.allocate_range(0, 16);
    Rng rng(11);
    for (mem::PageId id = 0; id < 16; ++id) {
      space_.mutate(id, [&](std::span<std::uint8_t> b) {
        for (auto& x : b) x = std::uint8_t(rng());
      });
    }
    prev_ = mem::Snapshot::capture(space_);
  }

  std::vector<DirtyPage> dirty_views(const std::vector<mem::PageId>& ids) {
    std::vector<DirtyPage> out;
    for (auto id : ids) out.push_back({id, space_.page_bytes(id)});
    return out;
  }

  mem::AddressSpace space_;
  mem::Snapshot prev_;
};

TEST_F(PageCompressorFixture, PageAlignedRoundTrip) {
  // Lightly edit pages 2, 5; allocate new page 20.
  space_.protect_all();
  Bytes edit = {0xAA, 0xBB};
  space_.write(2, 100, edit);
  space_.write(5, 2000, edit);
  space_.allocate(20);

  PageAlignedCompressor pa;
  auto dirty = dirty_views(space_.dirty_pages());
  DeltaResult res = pa.compress(dirty, prev_);
  EXPECT_EQ(res.pages_total, 3u);
  EXPECT_EQ(res.pages_delta, 2u);  // pages 2, 5 had previous versions
  EXPECT_EQ(res.pages_raw, 1u);    // page 20 is new

  mem::Snapshot restored = pa.decompress(res.payload, prev_);
  for (auto id : space_.dirty_pages()) {
    ASSERT_TRUE(restored.contains(id));
    auto live = space_.page_bytes(id);
    auto got = restored.page_bytes(id);
    EXPECT_EQ(0, std::memcmp(live.data(), got.data(), kPageSize));
  }
}

TEST_F(PageCompressorFixture, PageAlignedCompressesHotPages) {
  space_.protect_all();
  Bytes edit = {1, 2, 3};
  for (mem::PageId id = 0; id < 8; ++id) space_.write(id, 64, edit);
  PageAlignedCompressor pa;
  DeltaResult res = pa.compress(dirty_views(space_.dirty_pages()), prev_);
  EXPECT_LT(res.stats.ratio(), 0.2);
}

TEST_F(PageCompressorFixture, PageAlignedDissimilarPageFallsBackToRaw) {
  space_.protect_all();
  Rng rng(12);
  space_.mutate(3, [&](std::span<std::uint8_t> b) {
    for (auto& x : b) x = std::uint8_t(rng());  // fully rewritten page
  });
  PageAlignedCompressor pa;
  DeltaResult res = pa.compress(dirty_views({3}), prev_);
  // Either encoded as raw (expansion guard) or as a delta barely smaller
  // than the page; payload must never blow past page + header slack.
  EXPECT_LE(res.payload.size(), kPageSize + 64);
  mem::Snapshot restored = pa.decompress(res.payload, prev_);
  EXPECT_EQ(0, std::memcmp(restored.page_bytes(3).data(),
                           space_.page_bytes(3).data(), kPageSize));
}

TEST_F(PageCompressorFixture, WholeFileRoundTrip) {
  space_.protect_all();
  Bytes edit = {0xCC};
  space_.write(1, 0, edit);
  space_.write(7, 128, edit);
  space_.allocate(30);

  WholeFileCompressor wf;
  auto dirty = dirty_views(space_.dirty_pages());
  DeltaResult res = wf.compress(dirty, prev_);
  mem::Snapshot restored = wf.decompress(res.payload, prev_);
  for (auto id : space_.dirty_pages()) {
    ASSERT_TRUE(restored.contains(id));
    EXPECT_EQ(0, std::memcmp(restored.page_bytes(id).data(),
                             space_.page_bytes(id).data(), kPageSize));
  }
}

TEST_F(PageCompressorFixture, WholeFileRequiresSortedIds) {
  space_.protect_all();
  Bytes edit = {1};
  space_.write(1, 0, edit);
  space_.write(7, 0, edit);
  WholeFileCompressor wf;
  auto dirty = dirty_views({7, 1});  // wrong order
  EXPECT_THROW((void)wf.compress(dirty, prev_), CheckError);
}

TEST_F(PageCompressorFixture, EmptyDirtySet) {
  PageAlignedCompressor pa;
  DeltaResult res = pa.compress({}, prev_);
  mem::Snapshot restored = pa.decompress(res.payload, prev_);
  EXPECT_EQ(restored.page_count(), 0u);
}

// Property: arbitrary random interval evolution round-trips through the
// page-aligned compressor.
TEST(PageAlignedProperty, RandomEvolutionRoundTrips) {
  Rng rng(13);
  for (int trial = 0; trial < 5; ++trial) {
    mem::AddressSpace space;
    space.allocate_range(0, 32);
    for (mem::PageId id = 0; id < 32; ++id) {
      space.mutate(id, [&](std::span<std::uint8_t> b) {
        for (auto& x : b) x = std::uint8_t(rng());
      });
    }
    mem::Snapshot prev = mem::Snapshot::capture(space);
    space.protect_all();
    // Random edits: some partial, some full rewrites, some new pages.
    for (int e = 0; e < 20; ++e) {
      mem::PageId id = rng.uniform_u64(40);
      if (!space.contains(id)) {
        space.allocate(id);
        continue;
      }
      std::size_t len = 1 + rng.uniform_u64(512);
      std::size_t off = rng.uniform_u64(kPageSize - len);
      Bytes data(len);
      for (auto& x : data) x = std::uint8_t(rng());
      space.write(id, off, data);
    }
    PageAlignedCompressor pa;
    std::vector<DirtyPage> dirty;
    for (auto id : space.dirty_pages())
      dirty.push_back({id, space.page_bytes(id)});
    DeltaResult res = pa.compress(dirty, prev);
    mem::Snapshot restored = pa.decompress(res.payload, prev);
    ASSERT_EQ(restored.page_count(), dirty.size());
    for (auto& d : dirty) {
      ASSERT_EQ(0, std::memcmp(restored.page_bytes(d.id).data(),
                               d.bytes.data(), kPageSize));
    }
  }
}

}  // namespace
}  // namespace aic::delta
