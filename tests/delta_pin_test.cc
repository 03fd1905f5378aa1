// Golden pin for the greedy delta coder: the encoded bytes and every
// CodecStats field, folded into one FNV-1a digest per configuration.
// Any change to match selection, probe order, extension or accounting
// moves a digest — so a faster encoder must reproduce the old one
// bit for bit (payloads, work_units and every figure derived from them).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "delta/page_delta.h"
#include "delta/xdelta3.h"
#include "fnv1a.h"
#include "mem/snapshot.h"

namespace aic::delta {
namespace {

Bytes random_bytes(Rng& rng, std::size_t n) {
  Bytes b(n);
  for (auto& x : b) x = std::uint8_t(rng());
  return b;
}

/// `src` with each byte independently rewritten with probability `p`.
Bytes scatter_edits(Rng& rng, const Bytes& src, double p) {
  Bytes out = src;
  for (auto& x : out)
    if (rng.uniform() < p) x = std::uint8_t(rng());
  return out;
}

/// `src` with each 64-byte run independently rewritten with probability `p`.
Bytes run_edits(Rng& rng, const Bytes& src, double p) {
  Bytes out = src;
  for (std::size_t i = 0; i < out.size(); i += 64) {
    if (rng.uniform() >= p) continue;
    for (std::size_t k = i; k < std::min(out.size(), i + 64); ++k)
      out[k] = std::uint8_t(rng());
  }
  return out;
}

Bytes concat(std::initializer_list<ByteSpan> parts) {
  Bytes out;
  for (ByteSpan p : parts) out.insert(out.end(), p.begin(), p.end());
  return out;
}

struct Case {
  Bytes source;
  Bytes target;
};

std::vector<Case> pinned_cases() {
  Rng rng(16);
  std::vector<Case> cases;
  // Dense-random page against a canonical (structured) page: the raw
  // fall-back's full miss scan.
  Bytes canonical(kPageSize);
  for (std::size_t i = 0; i < canonical.size(); ++i)
    canonical[i] = std::uint8_t((i * 31) ^ (i >> 7));
  cases.push_back({canonical, random_bytes(rng, kPageSize)});
  // Edits at 1/10/50/90/100%, scattered bytes and 64-byte runs.
  const Bytes base = random_bytes(rng, 4 * kPageSize);
  for (double p : {0.01, 0.10, 0.50, 0.90, 1.00}) {
    cases.push_back({base, scatter_edits(rng, base, p)});
    cases.push_back({base, run_edits(rng, base, p)});
  }
  // Shifted content: new prefix, a deleted span, an inserted span.
  const Bytes shift_src = random_bytes(rng, 2 * kPageSize);
  const ByteSpan s(shift_src);
  cases.push_back({shift_src, concat({random_bytes(rng, 100), s.first(4000),
                                      random_bytes(rng, 50), s.subspan(4100),
                                      random_bytes(rng, 7)})});
  // All-identical blocks: every offset lands in one bucket, so the probe
  // cap and the bucket order decide which copy wins (and ties abound).
  cases.push_back({Bytes(4 * kPageSize, 0x42), Bytes(kPageSize, 0x42)});
  Bytes flat_tgt(16 * kPageSize, 0x42);
  flat_tgt[1000] = 0x43;
  cases.push_back({Bytes(16 * kPageSize, 0x42), flat_tgt});
  const Bytes period = random_bytes(rng, 32);
  Bytes periodic;
  for (int i = 0; i < 256; ++i)
    periodic.insert(periodic.end(), period.begin(), period.end());
  cases.push_back({periodic, scatter_edits(rng, periodic, 0.005)});
  // Source not a multiple of the block size; matches reach its tail.
  const Bytes ragged = random_bytes(rng, kPageSize + 17);
  cases.push_back({ragged, concat({random_bytes(rng, 5),
                                   scatter_edits(rng, ragged, 0.02)})});
  // Target shorter than a block, and a source shorter than a block.
  const Bytes small_src = random_bytes(rng, 256);
  cases.push_back({small_src, Bytes{9, 9, 9}});
  const ByteSpan small(small_src);
  cases.push_back({small_src, Bytes(small.begin(), small.begin() + 31)});
  cases.push_back({Bytes(small.begin(), small.begin() + 20), small_src});
  // Empty inputs.
  cases.push_back({Bytes{}, Bytes{}});
  cases.push_back({Bytes{}, random_bytes(rng, 100)});
  cases.push_back({random_bytes(rng, 100), Bytes{}});
  return cases;
}

void fold_stats(testing::Fnv1a& h, const CodecStats& st) {
  h.u64(st.input_bytes);
  h.u64(st.source_bytes);
  h.u64(st.output_bytes);
  h.u64(st.work_units);
  h.u64(st.copy_ops);
  h.u64(st.add_ops);
}

std::uint64_t codec_digest(const XDelta3Config& config) {
  const XDelta3Codec codec(config);
  testing::Fnv1a h;
  for (const Case& c : pinned_cases()) {
    CodecStats st;
    const Bytes delta = codec.encode(c.source, c.target, &st);
    EXPECT_EQ(codec.decode(c.source, delta), c.target);
    h.u64(delta.size());
    h.bytes(delta);
    fold_stats(h, st);
  }
  return h.value();
}

/// Target `kind` of the scan-boundary sweep, `len` bytes long, against
/// `source`. The shifted copy puts its first match at target offset
/// len % 10 and, after a gap of 1..9 random bytes, a second one that
/// starts on a block of the source's second half: with the scan testing
/// windows pos+1..pos+8 together, these land on every lane of a group,
/// the first and the last included.
Bytes scan_target(Rng& rng, int kind, const Bytes& source,
                  const Bytes& period_bs, const Bytes& period8,
                  std::size_t bs, std::size_t len) {
  Bytes out;
  out.reserve(len);
  switch (kind) {
    case 0:  // dense random, unrelated to the source
      return random_bytes(rng, len);
    case 1:  // all zero
      return Bytes(len, 0);
    case 2:  // period bs, starting at a phase the length picks
      for (std::size_t i = 0; i < len; ++i)
        out.push_back(period_bs[(i + len) % bs]);
      return out;
    case 3:  // period 8
      for (std::size_t i = 0; i < len; ++i)
        out.push_back(period8[(i + len) % 8]);
      return out;
    default: {  // shifted copy
      const std::size_t half = source.size() / 2 / bs * bs;
      const ByteSpan s(source);
      out = concat({random_bytes(rng, len % 10), s.first(half),
                    random_bytes(rng, 1 + len % 9), s.subspan(half)});
      while (out.size() < len) out.push_back(std::uint8_t(rng()));
      out.resize(len);
      return out;
    }
  }
}

/// The greedy coder at one configuration over block-size edges: targets
/// of bs-1..bs+17 and 4096-9..4096+9 bytes against sources of 0, bs-1,
/// bs and 4096+17 bytes, in five kinds of content.
std::uint64_t scan_boundary_digest(const XDelta3Config& config) {
  const XDelta3Codec codec(config);
  const std::size_t bs = config.block_size;
  Rng rng(bs * 131 + config.max_probes);
  const Bytes period_bs = random_bytes(rng, bs);
  const Bytes period8 = random_bytes(rng, 8);
  std::vector<std::size_t> lengths;
  for (std::size_t n = bs - 1; n <= bs + 17; ++n) lengths.push_back(n);
  for (std::size_t n = kPageSize - 9; n <= kPageSize + 9; ++n)
    lengths.push_back(n);
  testing::Fnv1a h;
  for (const std::size_t src_len : {std::size_t{0}, bs - 1, bs,
                                    kPageSize + 17}) {
    for (int kind = 0; kind < 5; ++kind) {
      Bytes source;
      if (kind == 1) source.assign(src_len, 0);
      for (std::size_t i = 0; kind == 2 && i < src_len; ++i)
        source.push_back(period_bs[i % bs]);
      for (std::size_t i = 0; kind == 3 && i < src_len; ++i)
        source.push_back(period8[i % 8]);
      if (kind == 0 || kind == 4) source = random_bytes(rng, src_len);
      for (const std::size_t len : lengths) {
        const Bytes target =
            scan_target(rng, kind, source, period_bs, period8, bs, len);
        CodecStats st;
        const Bytes delta = codec.encode(source, target, &st);
        EXPECT_EQ(codec.decode(source, delta), target)
            << "bs=" << bs << " src=" << src_len << " kind=" << kind
            << " len=" << len;
        h.u64(delta.size());
        h.bytes(delta);
        fold_stats(h, st);
      }
    }
  }
  return h.value();
}

/// One mixed dirty set against a previous checkpoint: unchanged, lightly
/// and heavily edited, shifted, dense-random, moved and new pages.
struct MixedDirtySet {
  mem::Snapshot prev;
  std::vector<Bytes> images;
  std::vector<DirtyPage> dirty;

  MixedDirtySet() {
    Rng rng(17);
    std::vector<Bytes> old;
    std::vector<mem::PageId> ids;
    for (mem::PageId id = 0; id < 24; ++id) {
      old.push_back(random_bytes(rng, kPageSize));
      prev.put_page(id, old.back());
    }
    const auto add = [&](mem::PageId id, Bytes image) {
      images.push_back(std::move(image));
      ids.push_back(id);
    };
    add(0, old[0]);                                // same
    add(1, scatter_edits(rng, old[1], 0.001));     // light edit
    add(2, run_edits(rng, old[2], 0.25));          // heavy runs
    add(3, random_bytes(rng, kPageSize));          // dense-random: raw
    add(4, concat({random_bytes(rng, 9),           // shifted in place
                   ByteSpan(old[4]).first(kPageSize - 9)}));
    add(5, old[11]);                               // whole-page move
    add(6, scatter_edits(rng, old[6], 0.5));       // half rewritten
    add(7, old[7]);                                // same
    add(30, random_bytes(rng, kPageSize));         // new page
    add(31, old[12]);                              // new id, moved content
    for (std::size_t i = 0; i < ids.size(); ++i)
      dirty.push_back({ids[i], images[i]});
  }
};

std::uint64_t compressor_digest(bool correcting) {
  const MixedDirtySet set;
  const PageAlignedCompressor pa(PageAlignedCompressor::page_config(),
                                 correcting);
  const DeltaResult r = pa.compress(set.dirty, set.prev);
  testing::Fnv1a h;
  h.u64(r.payload.size());
  h.bytes(r.payload);
  fold_stats(h, r.stats);
  h.u64(r.pages_total);
  h.u64(r.pages_delta);
  h.u64(r.pages_raw);
  h.u64(r.pages_same);
  h.u64(r.pages_moved);
  return h.value();
}

TEST(XDelta3, EncodingIsPinned) {
  EXPECT_EQ(codec_digest(PageAlignedCompressor::page_config()),
            0xc302f1ffc8d170c8ull);
  EXPECT_EQ(codec_digest(WholeFileCompressor::file_config()),
            0x6516e0cb0e71db20ull);
  EXPECT_EQ(codec_digest(XDelta3Config{}), 0x60103362715de5f5ull);
  EXPECT_EQ(compressor_digest(/*correcting=*/false), 0xf4644f96e6c3f785ull);
  EXPECT_EQ(compressor_digest(/*correcting=*/true), 0x98bdb2da7e618ad5ull);
}

TEST(XDelta3, ScanBoundariesArePinned) {
  // Block sizes on both sides of the multiples of 8 and 16 a vector scan
  // or digest steps in, and one probe cap of 1 over the all-zero and
  // periodic sources, where every block shares a digest.
  const std::uint64_t want[] = {
      0xd154aebd94341686ull, 0xee2fcfb077598a03ull, 0xa281a9cd43aaad5aull,
      0x348b259f29e54194ull, 0xb2cd094314ce8b03ull, 0x906daaba0f367e30ull,
      0xb5dd599b8eb7f99bull, 0x8158e7c1328fb527ull, 0xcdcbecf0136f8a65ull,
      0x1f388839d3ad8a2full, 0x842c723898f0cf3full};
  std::size_t i = 0;
  for (const std::size_t bs : {4, 5, 7, 8, 12, 17, 31, 33, 48, 100}) {
    EXPECT_EQ(scan_boundary_digest(XDelta3Config{.block_size = bs}),
              want[i++])
        << "block_size=" << bs;
  }
  EXPECT_EQ(scan_boundary_digest(
                XDelta3Config{.block_size = 32, .max_probes = 1}),
            want[i])
      << "block_size=32 max_probes=1";
}

}  // namespace
}  // namespace aic::delta
