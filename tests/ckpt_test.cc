// Tests for ckpt/: file format round trips, full/incremental/delta capture,
// restart replay, and the chain manager invariant — restoring after any
// mutation history reproduces the address space exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <optional>
#include <sstream>
#include <string>

#include "ckpt/checkpoint_file.h"
#include "ckpt/checkpointer.h"
#include "common/check.h"
#include "common/crc32c.h"
#include "common/rng.h"
#include "mem/address_space.h"
#include "verify/chain_verifier.h"

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

TEST(CheckpointFile, SerializeParseRoundTrip) {
  CheckpointFile f;
  f.kind = CheckpointKind::kIncrementalDelta;
  f.sequence = 42;
  f.app_time = 123.456;
  f.cpu_state = {1, 2, 3, 4};
  f.freed_pages = {7, 9, 1000};
  f.payload = {9, 8, 7, 6, 5};
  Bytes wire = f.serialize();
  EXPECT_EQ(wire.size(), f.serialized_size());
  CheckpointFile g = CheckpointFile::parse(wire);
  EXPECT_EQ(g.kind, f.kind);
  EXPECT_EQ(g.sequence, 42u);
  EXPECT_DOUBLE_EQ(g.app_time, 123.456);
  EXPECT_EQ(g.cpu_state, f.cpu_state);
  EXPECT_EQ(g.freed_pages, f.freed_pages);
  EXPECT_EQ(g.payload, f.payload);
}

TEST(CheckpointFile, BadMagicRejected) {
  CheckpointFile f;
  Bytes wire = f.serialize();
  wire[0] ^= 0xFF;
  EXPECT_THROW((void)CheckpointFile::parse(wire), CheckError);
}

TEST(CheckpointFile, TruncationRejected) {
  CheckpointFile f;
  f.payload = {1, 2, 3};
  Bytes wire = f.serialize();
  wire.pop_back();
  EXPECT_THROW((void)CheckpointFile::parse(wire), CheckError);
}

TEST(CheckpointFile, UnsortedFreedPagesRejected) {
  CheckpointFile f;
  f.freed_pages = {9, 3};
  EXPECT_THROW((void)f.serialize(), CheckError);
}

TEST(CheckpointFile, RawPagesRoundTrip) {
  Rng rng(1);
  Bytes a(kPageSize), b(kPageSize);
  for (auto& x : a) x = std::uint8_t(rng());
  for (auto& x : b) x = std::uint8_t(rng());
  Bytes payload = encode_raw_pages({{3, a}, {17, b}});
  auto pages = decode_raw_pages(payload);
  ASSERT_EQ(pages.size(), 2u);
  EXPECT_EQ(pages[0].first, 3u);
  EXPECT_TRUE(std::ranges::equal(pages[0].second, a));
  EXPECT_EQ(pages[1].first, 17u);
  EXPECT_TRUE(std::ranges::equal(pages[1].second, b));
}

TEST(Checkpointer, FullCaptureAndRestore) {
  Rng rng(2);
  mem::AddressSpace space;
  space.allocate_range(0, 8);
  for (mem::PageId id = 0; id < 8; ++id) randomize_page(space, id, rng);
  Bytes cpu = {1, 2, 3};
  CheckpointChain chain;
  const CaptureStats stats = chain.capture(space, cpu, 10.0);
  EXPECT_EQ(stats.kind, CheckpointKind::kFull);
  EXPECT_EQ(stats.pages_written, 8u);
  EXPECT_EQ(stats.uncompressed_bytes, 8 * kPageSize + 3);

  delta::PageAlignedCompressor pa;
  auto restored = RestartEngine::restore(chain.files(), pa);
  EXPECT_TRUE(restored.memory.equals_space(space));
  EXPECT_EQ(restored.cpu_state, cpu);
  EXPECT_DOUBLE_EQ(restored.app_time, 10.0);
}

TEST(Checkpointer, IncrementalChainRestore) {
  Rng rng(3);
  mem::AddressSpace space;
  space.allocate_range(0, 8);
  for (mem::PageId id = 0; id < 8; ++id) randomize_page(space, id, rng);

  CheckpointChain chain;
  chain.capture(space, {}, 0.0);

  // Interval 1: edit pages 1 and 4, free page 6, allocate page 9.
  space.protect_all();
  small_edit(space, 1, rng);
  small_edit(space, 4, rng);
  space.free_page(6);
  space.allocate(9);
  const CaptureStats stats = chain.capture(space, {}, 1.0);
  EXPECT_EQ(stats.kind, CheckpointKind::kIncrementalDelta);
  EXPECT_EQ(chain.files().back().freed_pages, std::vector<PageId>{6});

  delta::PageAlignedCompressor pa;
  auto restored = RestartEngine::restore(chain.files(), pa);
  EXPECT_TRUE(restored.memory.equals_space(space));
  EXPECT_FALSE(restored.memory.contains(6));
  EXPECT_TRUE(restored.memory.contains(9));
}

/// A full checkpoint of a two-page space followed by one delta incremental.
std::vector<CheckpointFile> two_file_chain() {
  mem::AddressSpace space;
  space.allocate_range(0, 2);
  CheckpointChain chain;
  chain.capture(space, {}, 0.0);
  space.protect_all();
  space.write(1, 0, Bytes{1, 2, 3});
  chain.capture(space, {}, 1.0);
  return chain.files();
}

TEST(RestartEngine, RejectsChainNotStartingWithFull) {
  const auto files = two_file_chain();
  delta::PageAlignedCompressor pa;
  EXPECT_THROW((void)RestartEngine::restore(std::span(&files[1], 1), pa),
               CheckError);
}

TEST(RestartEngine, RejectsNonMonotoneSequence) {
  auto files = two_file_chain();
  files[1].sequence = files[0].sequence;
  delta::PageAlignedCompressor pa;
  EXPECT_THROW((void)RestartEngine::restore(files, pa), CheckError);
}

// Older builds wrote plain (raw, undelta'd) incrementals; this build only
// reads them. A chain mixing one in must still replay byte-exact.
TEST(RestartEngine, ReplaysRawIncrementalRecords) {
  Rng rng(9);
  mem::AddressSpace space;
  space.allocate_range(0, 6);
  for (mem::PageId id = 0; id < 6; ++id) randomize_page(space, id, rng);
  CheckpointChain chain;
  chain.capture(space, {}, 0.0);

  space.protect_all();
  small_edit(space, 2, rng);
  space.free_page(4);
  space.allocate(7);
  CheckpointFile raw;
  raw.kind = CheckpointKind::kIncremental;
  raw.sequence = 1;
  raw.app_time = 1.0;
  raw.freed_pages = {4};
  std::vector<delta::DirtyPage> dirty;
  for (PageId id : space.dirty_pages())
    dirty.push_back({id, space.page_bytes(id)});
  raw.payload = encode_raw_pages(dirty);

  const std::vector<Bytes> records = {chain.files()[0].serialize(),
                                      raw.serialize()};
  const verify::Report report =
      verify::ChainVerifier().verify_serialized(records);
  EXPECT_EQ(report.error_count(), 0u) << report.summary();
  EXPECT_TRUE(report.replay_complete);

  std::vector<CheckpointFile> files;
  for (const Bytes& r : records) files.push_back(CheckpointFile::parse(r));
  delta::PageAlignedCompressor pa;
  EXPECT_TRUE(RestartEngine::restore(files, pa).memory.equals_space(space));
}

class ChainFixture : public ::testing::Test {
 protected:
  void evolve(mem::AddressSpace& space, Rng& rng) {
    space.protect_all();
    const int edits = 1 + int(rng.uniform_u64(6));
    for (int e = 0; e < edits; ++e) {
      const mem::PageId id = rng.uniform_u64(24);
      if (!space.contains(id)) {
        space.allocate(id);
      } else if (rng.bernoulli(0.1)) {
        space.free_page(id);
      } else if (rng.bernoulli(0.3)) {
        randomize_page(space, id, rng);
      } else {
        small_edit(space, id, rng);
      }
    }
  }
};

TEST_F(ChainFixture, DeltaChainRestoresAfterEveryInterval) {
  Rng rng(4);
  mem::AddressSpace space;
  space.allocate_range(0, 12);
  for (mem::PageId id = 0; id < 12; ++id) randomize_page(space, id, rng);

  ckpt::CheckpointChain chain;
  for (int interval = 0; interval < 10; ++interval) {
    Bytes cpu = {std::uint8_t(interval)};
    chain.capture(space, cpu, double(interval));
    auto restored = chain.restore();
    ASSERT_TRUE(restored.memory.equals_space(space))
        << "divergence at interval " << interval;
    EXPECT_EQ(restored.cpu_state, cpu);
    evolve(space, rng);
  }
}

TEST_F(ChainFixture, PeriodicFullBoundsChainAndStillRestores) {
  Rng rng(5);
  mem::AddressSpace space;
  space.allocate_range(0, 12);
  CheckpointChain::Config cfg;
  cfg.full_period = 3;
  CheckpointChain chain(cfg);
  for (int interval = 0; interval < 12; ++interval) {
    if (interval > 0) evolve(space, rng);
    chain.capture(space, {}, double(interval));
    ASSERT_TRUE(chain.restore().memory.equals_space(space));
  }
  // Expect fulls at 0, 4, 8 (every 3 incrementals).
  int fulls = 0;
  for (const auto& f : chain.files())
    fulls += (f.kind == CheckpointKind::kFull);
  EXPECT_EQ(fulls, 3);

  const std::uint64_t reclaimed = chain.truncate_before_last_full();
  EXPECT_GT(reclaimed, 0u);
  EXPECT_TRUE(chain.restore().memory.equals_space(space));
}

TEST(CheckpointChain, IsFullIsAFunctionOfTheSequenceNumber) {
  const auto full = [](std::uint32_t period, std::uint64_t sequence) {
    return CheckpointChain::is_full({.full_period = period}, sequence);
  };
  EXPECT_TRUE(full(0, 0));
  EXPECT_FALSE(full(0, 1));
  EXPECT_FALSE(full(0, 4));
  EXPECT_TRUE(full(3, 4));
  EXPECT_FALSE(full(3, 5));
  EXPECT_TRUE(full(3, 8));
  // The period is full_period + 1, computed without 32-bit wrap-around.
  const std::uint32_t max = std::numeric_limits<std::uint32_t>::max();
  EXPECT_FALSE(full(max, 1));
  EXPECT_TRUE(full(max, std::uint64_t(max) + 1));
}

TEST_F(ChainFixture, CaptureStatsReflectDirtyPages) {
  Rng rng(8);
  mem::AddressSpace space;
  space.allocate_range(0, 10);
  CheckpointChain chain;
  chain.capture(space, {}, 0.0);
  space.protect_all();
  small_edit(space, 2, rng);
  small_edit(space, 5, rng);
  CaptureStats st = chain.capture(space, {}, 1.0);
  EXPECT_EQ(st.kind, CheckpointKind::kIncrementalDelta);
  EXPECT_EQ(st.pages_written, 2u);
  EXPECT_EQ(st.pages_delta, 2u);
  EXPECT_EQ(st.uncompressed_bytes, 2 * kPageSize);
  EXPECT_LT(st.file_bytes, st.uncompressed_bytes / 4);
  EXPECT_GT(st.delta_work_units, 0u);
}

TEST_F(ChainFixture, RestoreOnEmptyChainThrows) {
  CheckpointChain chain;
  EXPECT_THROW((void)chain.restore(), CheckError);
}

// capture() reads the live space; capture_pages() reads a pre-copied
// snapshot (the checkpointing core's path). Over the same mutation script
// they must write the same records and the same accounting.
TEST_F(ChainFixture, CaptureAndCapturePagesWriteIdenticalFiles) {
  const auto stat_fields = [](const CaptureStats& s) {
    return std::vector<std::uint64_t>{
        std::uint64_t(s.kind), s.pages_written, s.freed_pages,
        s.uncompressed_bytes,  s.file_bytes,    s.delta_work_units,
        s.pages_delta,         s.pages_raw,     s.pages_same,
        s.pages_moved};
  };
  for (std::uint32_t full_period : {0u, 3u}) {
    for (bool correcting : {false, true}) {
      const auto run = [&](bool from_snapshot) {
        Rng rng(31);
        mem::AddressSpace space;
        space.allocate_range(0, 16);
        for (mem::PageId id = 0; id < 16; ++id) randomize_page(space, id, rng);
        CheckpointChain::Config cfg;
        cfg.full_period = full_period;
        cfg.correcting = correcting;
        cfg.compress_workers = 2;
        CheckpointChain chain(cfg);
        std::vector<std::pair<Bytes, std::vector<std::uint64_t>>> out;
        for (int i = 0; i < 12; ++i) {
          const Bytes cpu = {std::uint8_t(i), std::uint8_t(7 * i)};
          CaptureStats st;
          if (from_snapshot) {
            const auto live = space.live_pages();
            const auto pages = mem::Snapshot::capture_pages(
                space,
                chain.next_capture_is_full() ? live : space.dirty_pages());
            st = chain.capture_pages(pages, live, cpu, double(i));
          } else {
            st = chain.capture(space, cpu, double(i));
          }
          out.emplace_back(chain.files().back().serialize(), stat_fields(st));
          evolve(space, rng);
          // A whole-page move (a correcting-coder move record) each interval.
          const auto live = space.live_pages();
          const mem::PageId src = live[rng.uniform_u64(live.size())];
          const mem::PageId dst = live[rng.uniform_u64(live.size())];
          const Bytes image(space.page_bytes(src).begin(),
                            space.page_bytes(src).end());
          space.write(dst, 0, image);
        }
        return out;
      };
      const auto live_path = run(false);
      const auto snapshot_path = run(true);
      ASSERT_EQ(live_path.size(), snapshot_path.size());
      for (std::size_t i = 0; i < live_path.size(); ++i) {
        EXPECT_EQ(live_path[i].first, snapshot_path[i].first)
            << "full_period " << full_period << " correcting " << correcting
            << " file " << i;
        EXPECT_EQ(live_path[i].second, snapshot_path[i].second)
            << "full_period " << full_period << " correcting " << correcting
            << " file " << i;
      }
    }
  }
}

// ---------- on-disk format v2 (AICCKPT2, CRC-32C) ----------

namespace format {
constexpr std::uint64_t kMagicV1 = 0x31544B4343494141ULL;  // "AICCKPT1"
constexpr std::uint64_t kMagicV2 = 0x32544B4343494141ULL;  // "AICCKPT2"
constexpr std::uint64_t kMagicV3 = 0x33544B4343494141ULL;  // "AICCKPT3"
}  // namespace format

/// Wraps a hand-built body in the v1 framing (no checksum) — the easiest
/// way to feed parse() a hostile body without forging a CRC.
Bytes v1_wrap(const Bytes& body) {
  Bytes out;
  ByteWriter w(out);
  w.u64(format::kMagicV1);
  w.raw(body);
  return out;
}

/// Wraps a hand-built body in the v2 framing with a *valid* CRC, proving
/// the field bounds checks run even when the checksum passes.
Bytes v2_wrap(const Bytes& body) {
  Bytes out;
  ByteWriter w(out);
  w.u64(format::kMagicV2);
  w.u32(crc32c(body));
  w.raw(body);
  return out;
}

/// A minimal valid body up to (not including) the cpu_state length field.
void write_preamble(ByteWriter& w, std::uint64_t sequence = 1) {
  w.u8(std::uint8_t(CheckpointKind::kIncremental));
  w.varint(sequence);
  w.f64(1.0);
}

TEST(CheckpointFileV2, SerializeEmitsChecksummedV2) {
  CheckpointFile f;
  f.kind = CheckpointKind::kIncremental;
  f.sequence = 3;
  f.payload = {1, 2, 3};
  Bytes wire = f.serialize();
  ByteReader r(wire);
  EXPECT_EQ(r.u64(), format::kMagicV2);
  const std::uint32_t stored = r.u32();
  EXPECT_EQ(stored, crc32c(ByteSpan(wire).subspan(12)));
  EXPECT_EQ(wire.size(), f.serialized_size());
  EXPECT_EQ(CheckpointFile::parse(wire).version, CheckpointFile::kVersionV2);
}

TEST(CheckpointFileV2, SerializeChecksumsMagicAndBodyOfV3Records) {
  // v3's CRC-32C runs over the magic and then the body, skipping the CRC
  // field: pinned to that definition, not to what parse() accepts.
  CheckpointFile f;
  f.kind = CheckpointKind::kIncrementalCorrecting;
  f.sequence = 3;
  f.payload = {1, 2, 3};
  const Bytes wire = f.serialize();
  ByteReader r(wire);
  EXPECT_EQ(r.u64(), format::kMagicV3);
  const std::uint32_t magic =
      crc32c_update(kCrc32cInit, ByteSpan(wire).first(8));
  EXPECT_EQ(r.u32(), crc32c_finalize(
                         crc32c_update(magic, ByteSpan(wire).subspan(12))));
}

TEST(CheckpointFileV2, ParsesV1Records) {
  // A v1 record as the seed wrote them: body with no checksum field.
  Bytes body;
  ByteWriter w(body);
  w.u8(std::uint8_t(CheckpointKind::kIncrementalDelta));
  w.varint(9);
  w.f64(2.5);
  w.varint(2);  // cpu_state
  w.raw(Bytes{0xAA, 0xBB});
  w.varint(2);  // freed pages 4, 7 (delta-coded)
  w.varint(4);
  w.varint(3);
  w.varint(3);  // payload
  w.raw(Bytes{9, 9, 9});
  CheckpointFile f = CheckpointFile::parse(v1_wrap(body));
  EXPECT_EQ(f.version, CheckpointFile::kVersionV1);
  EXPECT_EQ(f.kind, CheckpointKind::kIncrementalDelta);
  EXPECT_EQ(f.sequence, 9u);
  EXPECT_DOUBLE_EQ(f.app_time, 2.5);
  EXPECT_EQ(f.cpu_state, (Bytes{0xAA, 0xBB}));
  EXPECT_EQ(f.freed_pages, (std::vector<mem::PageId>{4, 7}));
  EXPECT_EQ(f.payload, (Bytes{9, 9, 9}));
}

/// A v2 and a v3 record, each with a CPU state, freed pages and a payload
/// longer than one checksum-and-copy block (one round of the CRC's three
/// streams), so a flip or a cut can land in any field, in the first
/// payload block or in the one after it.
std::vector<Bytes> checksummed_records() {
  Rng rng(21);
  std::vector<Bytes> wires;
  for (CheckpointKind kind : {CheckpointKind::kIncrementalDelta,
                              CheckpointKind::kIncrementalCorrecting}) {
    CheckpointFile f;
    f.kind = kind;
    f.sequence = 42;
    f.cpu_state = {1, 2, 3};
    f.freed_pages = {5, 6, 300};
    Bytes payload(3 * kCrc32cStreamBlock + 1000);
    for (auto& b : payload) b = std::uint8_t(rng());
    f.payload = std::move(payload);
    wires.push_back(f.serialize());
  }
  return wires;
}

/// The CheckError message parse() throws, or "parsed" if it throws none.
std::string parse_error(ByteSpan wire) {
  try {
    (void)CheckpointFile::parse(wire);
  } catch (const CheckError& e) {
    return e.what();
  }
  return "parsed";
}

// The checksum speaks first, whatever a flip or a cut does to the fields
// behind it: the parse that copies the payload while checksumming it must
// report exactly what a checksum-first parse reports.
TEST(CheckpointFileV2, EveryBodyBitFlipFailsTheChecksum) {
  for (Bytes wire : checksummed_records()) {
    ASSERT_EQ(parse_error(wire), "parsed");
    for (std::size_t off = 12; off < wire.size(); ++off) {
      for (int bit = 0; bit < 8; ++bit) {
        wire[off] ^= std::uint8_t(1u << bit);
        const std::string what = parse_error(wire);
        ASSERT_NE(what.find("checksum mismatch at offset 8"), std::string::npos)
            << "offset " << off << " bit " << bit << ": " << what;
        wire[off] ^= std::uint8_t(1u << bit);
      }
    }
  }
}

TEST(CheckpointFileV2, EveryTruncationPastTheHeaderFailsTheChecksum) {
  for (const Bytes& wire : checksummed_records()) {
    for (std::size_t keep = 12; keep < wire.size(); ++keep) {
      const std::string what = parse_error(ByteSpan(wire).first(keep));
      ASSERT_NE(what.find("checksum mismatch at offset 8"), std::string::npos)
          << "truncated to " << keep << " bytes: " << what;
    }
  }
}

TEST(CheckpointFileV2, ChecksumErrorNamesOffsetAndSequence) {
  CheckpointFile f;
  f.sequence = 42;
  f.payload = {1, 2, 3};
  Bytes wire = f.serialize();
  wire.back() ^= 0x01;
  try {
    (void)CheckpointFile::parse(wire);
    FAIL() << "corrupt record parsed";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("checksum mismatch at offset 8"), std::string::npos)
        << what;
    EXPECT_NE(what.find("claims sequence 42"), std::string::npos) << what;
  }
}

// ---------- the span parse and the shared-buffer parse agree ----------

/// The fields a parse returned, or the type and message of what it threw.
template <class Parse>
std::string parse_outcome(Parse parse) {
  try {
    const CheckpointFile f = parse();
    std::ostringstream out;
    out << 'v' << int(f.version) << ' ' << to_string(f.kind) << " sequence "
        << f.sequence << " time " << std::bit_cast<std::uint64_t>(f.app_time)
        << " cpu " << std::string(f.cpu_state.begin(), f.cpu_state.end())
        << " freed";
    for (mem::PageId id : f.freed_pages) out << ' ' << id;
    out << " payload " << std::string(f.payload.begin(), f.payload.end());
    return out.str();
  } catch (const UnsupportedFormatError& e) {
    return std::string("UnsupportedFormatError: ") + e.what();
  } catch (const CheckError& e) {
    return std::string("CheckError: ") + e.what();
  }
}

/// crc32c_update(0, record) as a reader computes it piecewise: `segment`
/// bytes at a time, each from zero, joined with crc32c_combine.
std::uint32_t register_by_segment(ByteSpan record, std::size_t segment) {
  std::uint32_t crc = 0;
  for (std::size_t at = 0; at < record.size(); at += segment) {
    const ByteSpan piece =
        record.subspan(at, std::min(segment, record.size() - at));
    crc = crc32c_combine(crc, crc32c_update(0, piece), piece.size());
  }
  return crc;
}

/// Whether parse(ByteSpan), the shared-buffer parse computing its own
/// register and the shared-buffer parse given the register combined
/// `segment` bytes at a time return the same fields, or throw the same
/// exception type with the same message.
::testing::AssertionResult entries_agree(ByteSpan wire, std::size_t segment) {
  const std::string want =
      parse_outcome([&] { return CheckpointFile::parse(wire); });
  const SharedBytes shared(Bytes(wire.begin(), wire.end()));
  const std::uint32_t crc = register_by_segment(wire, segment);
  for (const std::optional<std::uint32_t> given :
       {std::optional<std::uint32_t>(), std::optional<std::uint32_t>(crc)}) {
    const std::string got =
        parse_outcome([&] { return CheckpointFile::parse(shared, given); });
    if (got != want) {
      return ::testing::AssertionFailure()
             << (given ? "given the register" : "computing the register")
             << "\n got:  " << got.substr(0, 300)
             << "\n want: " << want.substr(0, 300);
    }
  }
  return ::testing::AssertionSuccess();
}

/// A record of the given kind (v2 for a delta, v3 for a correcting one)
/// with a CPU state, freed pages and a payload of `payload_bytes`.
Bytes record_of(CheckpointKind kind, std::size_t payload_bytes, Rng& rng) {
  CheckpointFile f;
  f.kind = kind;
  f.sequence = 300;
  f.app_time = 4.25;
  f.cpu_state = {7, 8, 9};
  f.freed_pages = {5, 6, 300};
  Bytes payload(payload_bytes);
  for (auto& b : payload) b = std::uint8_t(rng());
  f.payload = std::move(payload);
  return f.serialize();
}

TEST(CheckpointFileShared, EntriesAgreeOnEveryFlipAndCutOfASmallRecord) {
  Rng rng(31);
  for (CheckpointKind kind : {CheckpointKind::kIncrementalDelta,
                              CheckpointKind::kIncrementalCorrecting}) {
    const Bytes wire = record_of(kind, 20, rng);
    ASSERT_TRUE(entries_agree(wire, 5));
    Bytes bad = wire;
    for (std::size_t off = 0; off < wire.size(); ++off) {
      for (const unsigned flip : {1, 2, 4, 8, 16, 32, 64, 128, 255}) {
        bad[off] ^= std::uint8_t(flip);
        ASSERT_TRUE(entries_agree(bad, 5))
            << "offset " << off << " flip " << flip;
        bad[off] ^= std::uint8_t(flip);
      }
    }
    for (std::size_t keep = 0; keep < wire.size(); ++keep)
      ASSERT_TRUE(entries_agree(ByteSpan(wire).first(keep), 5))
          << "truncated to " << keep;
  }
}

TEST(CheckpointFileShared, EntriesAgreeOnALargeRecordBySegment) {
  // Four 768 KiB segments, as a recovery reads a record this large: flips
  // in every header byte (the version digit, the CRC field and each
  // varint) and in the first and last byte of every segment.
  constexpr std::size_t kSegment = 768 * 1024;
  Rng rng(32);
  for (CheckpointKind kind :
       {CheckpointKind::kFull, CheckpointKind::kIncrementalCorrecting}) {
    const Bytes wire = record_of(kind, 3 * kSegment + 1000, rng);
    ASSERT_GE(wire.size(), 3 * kSegment);
    ASSERT_TRUE(entries_agree(wire, kSegment));
    ByteReader r(wire);
    (void)r.raw(13);           // magic, CRC, kind
    (void)r.varint();          // sequence
    (void)r.f64();             // app time
    (void)r.raw(r.varint());   // CPU state
    for (std::uint64_t n = r.varint(); n > 0; --n) (void)r.varint();  // freed
    (void)r.varint();          // payload length
    std::vector<std::pair<std::size_t, unsigned>> flips;
    for (std::size_t off = 0; off < r.pos(); ++off) {
      flips.emplace_back(off, 0x01);
      flips.emplace_back(off, 0xFF);
    }
    for (unsigned bit = 1; bit < 7; ++bit) flips.emplace_back(7, 1u << bit);
    for (std::size_t at = 0; at < wire.size(); at += kSegment) {
      flips.emplace_back(at, 0xFF);
      flips.emplace_back(std::min(at + kSegment, wire.size()) - 1, 0xFF);
    }
    Bytes bad = wire;
    for (const auto& [off, flip] : flips) {
      bad[off] ^= std::uint8_t(flip);
      ASSERT_TRUE(entries_agree(bad, kSegment))
          << "offset " << off << " flip " << flip;
      bad[off] ^= std::uint8_t(flip);
    }
  }
}

// ---------- hostile-input hardening: every length field bounds-checked ----

TEST(CheckpointFileHostile, OversizedCpuStateLengthRejected) {
  Bytes body;
  ByteWriter w(body);
  write_preamble(w);
  w.varint(std::uint64_t(1) << 60);  // cpu_state "length"
  try {
    (void)CheckpointFile::parse(v1_wrap(body));
    FAIL() << "hostile cpu length parsed";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("cpu_state length"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckpointFileHostile, OversizedFreedCountRejected) {
  Bytes body;
  ByteWriter w(body);
  write_preamble(w);
  w.varint(0);                       // cpu_state empty
  w.varint(std::uint64_t(1) << 61);  // freed-page "count"
  EXPECT_THROW((void)CheckpointFile::parse(v1_wrap(body)), CheckError);
}

TEST(CheckpointFileHostile, OversizedPayloadLengthRejected) {
  Bytes body;
  ByteWriter w(body);
  write_preamble(w);
  w.varint(0);                       // cpu_state empty
  w.varint(0);                       // no freed pages
  w.varint(std::uint64_t(1) << 62);  // payload "length"
  try {
    (void)CheckpointFile::parse(v1_wrap(body));
    FAIL() << "hostile payload length parsed";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("payload length"), std::string::npos)
        << e.what();
  }
}

TEST(CheckpointFileHostile, FreedPageIdOverflowRejected) {
  Bytes body;
  ByteWriter w(body);
  write_preamble(w);
  w.varint(0);               // cpu_state empty
  w.varint(2);               // two freed pages...
  w.varint(~std::uint64_t{0});  // first lands on the max id
  w.varint(2);               // second wraps around
  w.varint(0);               // payload empty
  try {
    (void)CheckpointFile::parse(v1_wrap(body));
    FAIL() << "freed-page id overflow parsed";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("freed-page id overflow"),
              std::string::npos)
        << e.what();
  }
}

TEST(CheckpointFileHostile, BoundsCheckedEvenBehindAValidChecksum) {
  Bytes body;
  ByteWriter w(body);
  write_preamble(w);
  w.varint(std::uint64_t(1) << 60);  // hostile cpu length, valid CRC
  EXPECT_THROW((void)CheckpointFile::parse(v2_wrap(body)), CheckError);
}

TEST(CheckpointFileHostile, TruncatedAtEveryPrefixRejected) {
  CheckpointFile f;
  f.kind = CheckpointKind::kIncremental;
  f.sequence = 5;
  f.cpu_state = {1};
  f.freed_pages = {2};
  f.payload = {3, 4};
  const Bytes wire = f.serialize();
  for (std::size_t keep = 0; keep < wire.size(); ++keep) {
    Bytes bad(wire.begin(), wire.begin() + keep);
    EXPECT_THROW((void)CheckpointFile::parse(bad), CheckError)
        << "prefix " << keep;
  }
}

TEST(CheckpointFileHostile, HostileRawPageCountRejected) {
  Bytes payload;
  ByteWriter w(payload);
  w.varint(std::uint64_t(1) << 55);  // "page count"
  EXPECT_THROW((void)decode_raw_pages(payload), CheckError);
}

// ---------- chain-restore error paths name the bad sequence ----------

class RestoreErrorPaths : public ::testing::Test {
 protected:
  /// full(0) + two delta incrementals (1, 2) over real edits.
  std::vector<CheckpointFile> make_chain() {
    Rng rng(77);
    space_.allocate_range(0, 6);
    for (mem::PageId id = 0; id < 6; ++id) randomize_page(space_, id, rng);
    CheckpointChain chain;
    chain.capture(space_, {}, 0.0);
    for (std::uint64_t seq = 1; seq <= 2; ++seq) {
      space_.protect_all();
      small_edit(space_, seq, rng);
      small_edit(space_, seq + 2, rng);
      chain.capture(space_, {}, double(seq));
    }
    return chain.files();
  }

  static std::string restore_error(const std::vector<CheckpointFile>& chain) {
    delta::PageAlignedCompressor pa;
    try {
      (void)RestartEngine::restore(chain, pa);
    } catch (const CheckError& e) {
      return e.what();
    }
    return {};
  }

  mem::AddressSpace space_;
};

TEST_F(RestoreErrorPaths, MissingMiddleIncrementalNamesTheGap) {
  auto chain = make_chain();
  chain.erase(chain.begin() + 1);  // drop sequence 1
  const std::string what = restore_error(chain);
  ASSERT_FALSE(what.empty()) << "restore accepted a gapped chain";
  EXPECT_NE(what.find("missing checkpoint"), std::string::npos) << what;
  EXPECT_NE(what.find("sequence 2 follows 0"), std::string::npos) << what;
}

TEST_F(RestoreErrorPaths, WrongSequenceRecordNamesBothSequences) {
  auto chain = make_chain();
  chain[2].sequence = 1;  // duplicates its predecessor
  const std::string what = restore_error(chain);
  ASSERT_FALSE(what.empty()) << "restore accepted a non-monotone chain";
  EXPECT_NE(what.find("sequence 1 follows 1"), std::string::npos) << what;
}

TEST_F(RestoreErrorPaths, BadCrcRecordFailsNamingTheSequence) {
  const auto chain = make_chain();
  // Store and re-load the chain the way a restart from disk would.
  std::vector<Bytes> stored;
  for (const CheckpointFile& f : chain) stored.push_back(f.serialize());
  stored[1][stored[1].size() - 1] ^= 0x10;  // corrupt sequence 1's body
  try {
    std::vector<CheckpointFile> reloaded;
    for (const Bytes& b : stored) reloaded.push_back(CheckpointFile::parse(b));
    FAIL() << "corrupt record parsed";
  } catch (const CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("checksum mismatch"), std::string::npos) << what;
    EXPECT_NE(what.find("claims sequence 1"), std::string::npos) << what;
  }
}

TEST_F(RestoreErrorPaths, UndecodableDeltaNamesTheSequence) {
  auto chain = make_chain();
  chain[2].payload = Bytes(48, 0xC3);  // garbage delta body
  const std::string what = restore_error(chain);
  ASSERT_FALSE(what.empty()) << "restore accepted a garbage delta";
  EXPECT_NE(what.find("restoring sequence 2"), std::string::npos) << what;
}

}  // namespace
}  // namespace aic::ckpt
