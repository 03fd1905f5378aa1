// Fault-injection tests for verify/ChainVerifier (the aic_fsck engine):
// every injected corruption — bit flips at arbitrary offsets, truncations,
// duplicated / reordered / missing records, garbage payloads hiding behind
// a valid checksum, freed-page lies — must surface as a typed diagnostic,
// never as a crash and never as a silently wrong replay.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "ckpt/checkpointer.h"
#include "common/check.h"
#include "common/rng.h"
#include "verify/chain_verifier.h"

namespace aic::verify {
namespace {

using ckpt::CheckpointChain;
using ckpt::CheckpointFile;
using ckpt::CheckpointKind;

/// Builds a realistic chain — full checkpoint, then delta incrementals with
/// edits, frees and allocations — and returns the serialized records.
std::vector<Bytes> build_chain(int checkpoints, std::uint64_t seed,
                               std::uint32_t full_period = 0,
                               bool correcting = false) {
  Rng rng(seed);
  mem::AddressSpace space;
  space.allocate_range(0, 10);
  for (mem::PageId id = 0; id < 10; ++id) {
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  CheckpointChain::Config cfg;
  cfg.full_period = full_period;
  cfg.correcting = correcting;
  CheckpointChain chain(cfg);
  for (int i = 0; i < checkpoints; ++i) {
    Bytes cpu = {std::uint8_t(i), 0x5A};
    chain.capture(space, cpu, double(i));
    space.protect_all();
    const int edits = 1 + int(rng.uniform_u64(4));
    for (int e = 0; e < edits; ++e) {
      const mem::PageId id = rng.uniform_u64(14);
      if (!space.contains(id)) {
        space.allocate(id);
      } else if (rng.bernoulli(0.15)) {
        space.free_page(id);
      } else {
        Bytes data(24);
        for (auto& x : data) x = std::uint8_t(rng());
        space.write(id, rng.uniform_u64(kPageSize - data.size()), data);
      }
    }
  }
  std::vector<Bytes> records;
  records.reserve(chain.files().size());
  for (const CheckpointFile& f : chain.files())
    records.push_back(f.serialize());
  return records;
}

bool has_code(const Report& report, CheckCode code) {
  for (const Diagnostic& d : report.diagnostics)
    if (d.code == code) return true;
  return false;
}

/// Runs the verifier asserting no exception escapes — corruption must be
/// reported, not thrown.
Report verify_never_throws(const std::vector<Bytes>& records,
                           ChainVerifier::Options options = {}) {
  const ChainVerifier verifier(options);
  Report report;
  EXPECT_NO_THROW(report = verifier.verify_serialized(records));
  return report;
}

TEST(ChainVerifier, CleanChainIsClean) {
  const auto records = build_chain(6, 1);
  const Report report = verify_never_throws(records);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.replay_complete);
  EXPECT_EQ(report.records_checked, records.size());
  EXPECT_EQ(report.warning_count(), 0u);
  EXPECT_GT(report.bytes_checked, 0u);
}

TEST(ChainVerifier, CleanChainWithMidChainFullIsClean) {
  const auto records = build_chain(8, 2, /*full_period=*/3);
  const Report report = verify_never_throws(records);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.replay_complete);
}

TEST(ChainVerifier, BitFlipAtEveryOffsetIsCaught) {
  auto records = build_chain(4, 3);
  // Exhaustive over a whole (small) record, sampled over the rest: a v2
  // record must have no unprotected byte.
  for (std::size_t rec = 0; rec < records.size(); ++rec) {
    const std::size_t stride = rec == 0 ? 1 : 37;
    for (std::size_t off = 0; off < records[rec].size(); off += stride) {
      for (std::uint8_t bit : {std::uint8_t(1), std::uint8_t(0x80)}) {
        auto corrupted = records;
        corrupted[rec][off] ^= bit;
        const Report report = verify_never_throws(corrupted);
        ASSERT_FALSE(report.ok())
            << "bit flip survived at record " << rec << " offset " << off;
        ASSERT_TRUE(has_code(report, CheckCode::kParseError))
            << "record " << rec << " offset " << off;
      }
    }
  }
}

TEST(ChainVerifier, TruncationAtAnyLengthIsCaught) {
  const auto records = build_chain(4, 4);
  const std::size_t rec = records.size() - 1;
  const std::size_t full = records[rec].size();
  for (std::size_t keep : {std::size_t{0}, std::size_t{7}, std::size_t{11},
                           full / 2, full - 1}) {
    auto corrupted = records;
    corrupted[rec].resize(keep);
    const Report report = verify_never_throws(corrupted);
    ASSERT_FALSE(report.ok()) << "truncation to " << keep << " survived";
    ASSERT_TRUE(has_code(report, CheckCode::kParseError)) << keep;
  }
}

TEST(ChainVerifier, AppendedTrailingBytesAreCaught) {
  auto records = build_chain(3, 5);
  records.back().push_back(0xEE);
  const Report report = verify_never_throws(records);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, CheckCode::kParseError));
}

TEST(ChainVerifier, DuplicatedRecordIsCaught) {
  auto records = build_chain(5, 6);
  records.insert(records.begin() + 2, records[2]);
  const Report report = verify_never_throws(records);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, CheckCode::kDuplicateSequence));
}

TEST(ChainVerifier, ReorderedRecordsAreCaught) {
  auto records = build_chain(5, 7);
  std::swap(records[2], records[3]);
  const Report report = verify_never_throws(records);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, CheckCode::kSequenceNotMonotone));
}

TEST(ChainVerifier, MissingMiddleIncrementalIsCaught) {
  auto records = build_chain(5, 8);
  records.erase(records.begin() + 2);
  const Report report = verify_never_throws(records);
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(has_code(report, CheckCode::kSequenceGap));
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == CheckCode::kSequenceGap) {
      EXPECT_EQ(d.sequence, 3u);  // the record after the removed seq 2
      EXPECT_NE(d.message.find("1 checkpoint(s) missing"), std::string::npos);
    }
  }
}

TEST(ChainVerifier, MissingLeadingFullIsCaught) {
  auto records = build_chain(4, 9);
  records.erase(records.begin());
  const Report report = verify_never_throws(records);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, CheckCode::kBadChainStart));
}

TEST(ChainVerifier, GarbagePayloadBehindValidCrcIsCaught) {
  // A buggy writer can checksum garbage correctly; replay must catch it.
  auto records = build_chain(4, 10);
  Rng rng(99);
  for (std::size_t rec = 1; rec < records.size(); ++rec) {
    auto corrupted = records;
    CheckpointFile f = CheckpointFile::parse(corrupted[rec]);
    Bytes garbage(f.payload.size());
    for (auto& b : garbage) b = std::uint8_t(rng());
    f.payload = std::move(garbage);
    corrupted[rec] = f.serialize();  // recomputes a *valid* checksum
    const Report report = verify_never_throws(corrupted);
    ASSERT_FALSE(report.ok()) << "garbage payload survived at " << rec;
    ASSERT_TRUE(has_code(report, CheckCode::kDeltaUndecodable) ||
                has_code(report, CheckCode::kPayloadCorrupt))
        << "record " << rec;
  }
}

TEST(ChainVerifier, PayloadNamingAPageTwiceIsUndecodable) {
  // A writer bug behind a valid checksum: the last incremental's payload
  // carries two delta records for page 0. Restore rejects it in place and
  // out of place, so fsck must reject it too.
  auto records = build_chain(3, 12);
  std::vector<CheckpointFile> before;
  for (std::size_t i = 0; i + 1 < records.size(); ++i)
    before.push_back(CheckpointFile::parse(records[i]));
  const delta::PageAlignedCompressor pa;
  const mem::Snapshot prev = ckpt::RestartEngine::restore(before, pa).memory;
  ASSERT_TRUE(prev.contains(0));
  Bytes first(prev.page_bytes(0).begin(), prev.page_bytes(0).end());
  Bytes second = first;
  first[5] ^= 0x01;
  second[9] ^= 0x01;
  CheckpointFile f = CheckpointFile::parse(records.back());
  f.payload = pa.compress({{0, first}, {0, second}}, prev).payload;
  records.back() = f.serialize();

  const Report report = verify_never_throws(records);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, CheckCode::kDeltaUndecodable))
      << report.summary();
  bool named = false;
  for (const Diagnostic& d : report.diagnostics)
    named = named || d.message.find("page 0 appears twice") != std::string::npos;
  EXPECT_TRUE(named) << report.summary();
}

TEST(ChainVerifier, GarbageFullPayloadIsCaught) {
  auto records = build_chain(3, 11);
  CheckpointFile f = CheckpointFile::parse(records[0]);
  f.payload = Bytes(100, 0xAB);
  records[0] = f.serialize();
  const Report report = verify_never_throws(records);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, CheckCode::kPayloadCorrupt));
}

TEST(ChainVerifier, UnknownFreedPageIsCaught) {
  auto records = build_chain(4, 12);
  CheckpointFile f = CheckpointFile::parse(records[1]);
  f.freed_pages.push_back(100000);  // never lived
  records[1] = f.serialize();
  const Report report = verify_never_throws(records);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, CheckCode::kFreedPageUnknown));
}

TEST(ChainVerifier, FreedPagesInFullRecordAreCaught) {
  auto records = build_chain(3, 13);
  CheckpointFile f = CheckpointFile::parse(records[0]);
  f.freed_pages = {1, 2};
  records[0] = f.serialize();
  const Report report = verify_never_throws(records);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, CheckCode::kFreedInFull));
}

TEST(ChainVerifier, ChecksContinuePastTheFirstFault) {
  auto records = build_chain(6, 14);
  records.erase(records.begin() + 1);     // gap
  std::swap(records[2], records[3]);      // and a reorder later
  const Report report = verify_never_throws(records);
  EXPECT_TRUE(has_code(report, CheckCode::kSequenceGap));
  EXPECT_TRUE(has_code(report, CheckCode::kSequenceNotMonotone));
  EXPECT_GE(report.records_checked, records.size());
}

TEST(ChainVerifier, MidChainFullReanchorsReplayAfterFault) {
  auto records = build_chain(8, 15, /*full_period=*/3);
  // Corrupt an early incremental's payload behind a valid checksum; the
  // next full must re-anchor replay so later records are fully checked.
  CheckpointFile f = CheckpointFile::parse(records[1]);
  Rng rng(7);
  Bytes garbage(f.payload.size());
  for (auto& b : garbage) b = std::uint8_t(rng());
  f.payload = std::move(garbage);
  records[1] = f.serialize();
  const Report report = verify_never_throws(records);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.replay_complete)
      << "a later full checkpoint must restore replay validity";
}

TEST(ChainVerifier, StructuralModeSkipsReplayButCatchesStructure) {
  auto records = build_chain(5, 16);
  records.erase(records.begin() + 2);
  ChainVerifier::Options options;
  options.replay = false;
  const Report report = verify_never_throws(records, options);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_code(report, CheckCode::kSequenceGap));
  EXPECT_FALSE(report.replay_complete);
}

TEST(ChainVerifier, V1RecordWarnsButVerifies) {
  auto records = build_chain(3, 17);
  // Re-encode record 1 as v1: magic AICCKPT1 + the body (no checksum).
  const Bytes& v2 = records[1];
  Bytes v1;
  ByteWriter w(v1);
  w.u64(0x31544B4343494141ULL);
  w.raw(ByteSpan(v2).subspan(12));
  records[1] = v1;
  const Report report = verify_never_throws(records);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(has_code(report, CheckCode::kUncheckedV1));
  EXPECT_EQ(report.warning_count(), 1u);

  ChainVerifier::Options options;
  options.warn_v1 = false;
  EXPECT_EQ(verify_never_throws(records, options).warning_count(), 0u);
}

// ---------- v3 (correcting-coder) chains ----------

TEST(ChainVerifier, CorrectingChainIsCleanAndReplays) {
  const auto records = build_chain(6, 40, 0, /*correcting=*/true);
  bool saw_correcting = false;
  for (const Bytes& b : records) {
    const CheckpointFile f = CheckpointFile::parse(b);
    if (f.kind == CheckpointKind::kIncrementalCorrecting) {
      saw_correcting = true;
      EXPECT_EQ(f.version, CheckpointFile::kVersionV3);
    }
  }
  ASSERT_TRUE(saw_correcting) << "workload produced no cdelta incrementals";
  const Report report = verify_never_throws(records);
  EXPECT_TRUE(report.ok()) << report.summary();
  EXPECT_TRUE(report.replay_complete);
}

TEST(ChainVerifier, CorrectingChainBitFlipsAreCaught) {
  // Exhaustive over one v3 record, including the magic bytes the v3 CRC
  // now covers (bit 2 of the version digit would otherwise forge a
  // plausible future/past version). A flip may surface as a parse error
  // or — when it lands a digit in '4'..'9' — the typed unsupported-version
  // diagnostic; either way the chain must not verify.
  auto records = build_chain(4, 41, 0, /*correcting=*/true);
  std::size_t rec = 0;
  while (CheckpointFile::parse(records[rec]).kind !=
         CheckpointKind::kIncrementalCorrecting)
    ++rec;
  for (std::size_t off = 0; off < records[rec].size(); ++off) {
    for (std::uint8_t bit :
         {std::uint8_t(1), std::uint8_t(4), std::uint8_t(0x80)}) {
      auto corrupted = records;
      corrupted[rec][off] ^= bit;
      const Report report = verify_never_throws(corrupted);
      ASSERT_FALSE(report.ok())
          << "bit flip survived at v3 record " << rec << " offset " << off;
      ASSERT_TRUE(has_code(report, CheckCode::kParseError) ||
                  has_code(report, CheckCode::kUnsupportedVersion))
          << "record " << rec << " offset " << off;
    }
  }
}

TEST(ChainVerifier, CorrectingGarbagePayloadBehindValidCrcIsCaught) {
  auto records = build_chain(5, 42, 0, /*correcting=*/true);
  Rng rng(43);
  for (std::size_t rec = 1; rec < records.size(); ++rec) {
    auto corrupted = records;
    CheckpointFile f = CheckpointFile::parse(corrupted[rec]);
    Bytes garbage(f.payload.size());
    for (auto& b : garbage) b = std::uint8_t(rng());
    f.payload = std::move(garbage);
    corrupted[rec] = f.serialize();  // valid v3 checksum over garbage
    const Report report = verify_never_throws(corrupted);
    ASSERT_FALSE(report.ok()) << "garbage cdelta survived at " << rec;
    ASSERT_TRUE(has_code(report, CheckCode::kDeltaUndecodable) ||
                has_code(report, CheckCode::kPayloadCorrupt))
        << "record " << rec;
  }
}

TEST(ChainVerifier, UnsupportedFutureVersionIsTypedNotCorrupt) {
  auto records = build_chain(3, 44);
  Bytes future;
  for (char c : std::string("AAICCKT7"))  // LE image of a v7 magic
    future.push_back(std::uint8_t(c));
  future.insert(future.end(), 24, std::uint8_t(0));
  records.push_back(future);
  const Report report = verify_never_throws(records);
  EXPECT_FALSE(report.ok());
  ASSERT_TRUE(has_code(report, CheckCode::kUnsupportedVersion))
      << report.summary();
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code != CheckCode::kUnsupportedVersion) continue;
    EXPECT_NE(d.message.find("newer than this build"), std::string::npos)
        << d.message;
    EXPECT_NE(d.render().find("unsupported-version"), std::string::npos);
  }
}

TEST(ChainVerifier, ParsedChainOverloadMatchesSerialized) {
  const auto records = build_chain(5, 18);
  std::vector<CheckpointFile> parsed;
  parsed.reserve(records.size());
  for (const Bytes& r : records) parsed.push_back(CheckpointFile::parse(r));
  const ChainVerifier verifier;
  const Report from_parsed = verifier.verify(parsed);
  const Report from_bytes = verifier.verify_serialized(records);
  EXPECT_TRUE(from_parsed.ok());
  EXPECT_EQ(from_parsed.diagnostics.size(), from_bytes.diagnostics.size());
  EXPECT_EQ(from_parsed.records_checked, from_bytes.records_checked);
}

TEST(ChainVerifier, DiagnosticRenderAndSummaryNameTheFault) {
  auto records = build_chain(4, 19);
  records.erase(records.begin() + 2);
  const Report report = verify_never_throws(records);
  ASSERT_FALSE(report.ok());
  bool saw_gap = false;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code != CheckCode::kSequenceGap) continue;
    saw_gap = true;
    const std::string line = d.render();
    EXPECT_NE(line.find("ERROR"), std::string::npos);
    EXPECT_NE(line.find("sequence-gap"), std::string::npos);
    EXPECT_NE(line.find("seq 3"), std::string::npos);
  }
  EXPECT_TRUE(saw_gap);
  EXPECT_NE(report.summary().find("error(s)"), std::string::npos);
}

// The acceptance matrix: every fault class x a fresh chain, asserting the
// global contract — fsck reports, restore never silently succeeds with
// wrong bytes, and nothing crashes.
TEST(ChainVerifier, InjectionMatrixNeverCrashesNeverFalseAccepts) {
  enum class Fault { kBitFlip, kTruncate, kDuplicate, kReorder, kDrop,
                     kGarbagePayload };
  Rng rng(20);
  for (Fault fault : {Fault::kBitFlip, Fault::kTruncate, Fault::kDuplicate,
                      Fault::kReorder, Fault::kDrop,
                      Fault::kGarbagePayload}) {
    for (std::uint64_t seed = 30; seed < 36; ++seed) {
      auto records = build_chain(5, seed);
      switch (fault) {
        case Fault::kBitFlip: {
          const std::size_t rec = rng.uniform_u64(records.size());
          const std::size_t off = rng.uniform_u64(records[rec].size());
          records[rec][off] ^= std::uint8_t(1u << rng.uniform_u64(8));
          break;
        }
        case Fault::kTruncate: {
          const std::size_t rec = rng.uniform_u64(records.size());
          records[rec].resize(rng.uniform_u64(records[rec].size()));
          break;
        }
        case Fault::kDuplicate: {
          const std::size_t rec = rng.uniform_u64(records.size());
          records.insert(records.begin() + rec, records[rec]);
          break;
        }
        case Fault::kReorder: {
          const std::size_t rec = 1 + rng.uniform_u64(records.size() - 2);
          std::swap(records[rec], records[rec + 1]);
          break;
        }
        case Fault::kDrop: {
          records.erase(records.begin() +
                        1 + rng.uniform_u64(records.size() - 1));
          break;
        }
        case Fault::kGarbagePayload: {
          const std::size_t rec = rng.uniform_u64(records.size());
          CheckpointFile f = CheckpointFile::parse(records[rec]);
          Bytes garbage(64 + rng.uniform_u64(256));
          for (auto& b : garbage) b = std::uint8_t(rng());
          f.payload = std::move(garbage);
          records[rec] = f.serialize();
          break;
        }
      }
      const Report report = verify_never_throws(records);
      ASSERT_FALSE(report.ok())
          << "fault " << int(fault) << " seed " << seed
          << " not detected: " << report.summary();
    }
  }
}

TEST(PartialTransferName, RecognizesStagingSuffix) {
  EXPECT_TRUE(is_partial_transfer_name("ckpt-3.partial"));
  EXPECT_TRUE(is_partial_transfer_name("x.partial"));
  EXPECT_FALSE(is_partial_transfer_name("ckpt-3"));
  EXPECT_FALSE(is_partial_transfer_name(".partial"))
      << "a bare suffix names no object";
  EXPECT_FALSE(is_partial_transfer_name("ckpt-3.partial.bak"));
  EXPECT_FALSE(is_partial_transfer_name("partial"));
  EXPECT_FALSE(is_partial_transfer_name(""));
}

}  // namespace
}  // namespace aic::verify
