// One-pass "correcting" differencing coder with in-place reconstruction.
//
// CorrectingDeltaCodec implements the Ajtai/Burns/Fagin/Long one-pass,
// constant-extra-space differencing family [JACM 2002]:
//
//   * Karp–Rabin fingerprints (mod 2^61-1, base 263) over a fixed seed
//     window index the source at a short stride, and the TARGET scan
//     rolls the same fingerprint one byte at a time — so moves of
//     arbitrary alignment are found (the greedy coder only matches runs
//     long enough to contain a whole aligned block). Candidates are
//     byte-verified, so fingerprint collisions cost time, never
//     correctness.
//   * The fingerprint table is a single-slot, keep-first open table whose
//     size is chosen from the input length (clamped to [2^8, 2^20]
//     slots): constant extra space independent of how the scan goes.
//   * The "correction" step: when a verified match surfaces mid-scan, it
//     is extended BACKWARD over the pending literal run, retroactively
//     replacing already-deferred literal bytes with the cheaper copy —
//     the one-pass equivalent of the corrections pass in the paper.
//
// The emitted stream (delta format v3) carries explicit target offsets
// per instruction and is ordered for in-place application using the
// Burns/Long/Stockmeyer construction: copy instructions are
// topologically sorted on write-after-read dependencies (a copy that
// reads a region another copy overwrites must run first), cycles are
// broken by demoting one copy of the cycle to a literal, and literals —
// which read nothing — run last. decode() rebuilds out-of-place like
// every other DeltaCodec; apply_in_place() rebuilds the target directly
// inside the buffer holding the source, which is what lets
// RestartEngine restore a chain in roughly half the peak memory.
//
// Wire format (after the shared varint source_size, varint target_size
// header):
//   0x02 COPY  varint tgt_off, varint src_off, varint len
//   0x03 ADD   varint tgt_off, varint len, raw bytes
// Instructions cover the target exactly once; the stream order IS the
// in-place execution order.
#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "delta/delta_codec.h"

namespace aic::delta {

struct CorrectingConfig {
  /// Fingerprint window. Matches shorter than this are invisible; larger
  /// seeds mean fewer false candidates but miss shorter moved chunks.
  /// The source is fingerprinted at seed_len spacing (non-overlapping
  /// windows); the target is rolled one byte at a time, so moves of any
  /// alignment are still found.
  std::size_t seed_len = 16;
};

class CorrectingDeltaCodec final : public DeltaCodec {
 public:
  explicit CorrectingDeltaCodec(CorrectingConfig config = {});

  std::string name() const override { return "correcting"; }

  Bytes encode(ByteSpan source, ByteSpan target,
               CodecStats* stats = nullptr) const override;

  Bytes decode(ByteSpan source, ByteSpan delta,
               CodecStats* stats = nullptr) const override;

  /// Applies `delta` to `buffer` in place: on entry the buffer holds the
  /// source image, on return it holds the target. The buffer is resized
  /// (grown before, shrunk after) when source and target lengths differ.
  /// Throws CheckError on malformed input, like decode().
  void apply_in_place(Bytes& buffer, ByteSpan delta,
                      CodecStats* stats = nullptr) const;

  /// Fixed-size in-place variant for page frames: source and target must
  /// both be exactly buffer.size() bytes (the page path's case).
  void apply_in_place(std::span<std::uint8_t> buffer, ByteSpan delta,
                      CodecStats* stats = nullptr) const;

  const CorrectingConfig& config() const { return config_; }

  /// Seed-config used by the page-aligned path: a shorter seed pays off
  /// inside 4 KiB frames where moved chunks are small.
  static CorrectingConfig page_config() { return {.seed_len = 12}; }

 private:
  CorrectingConfig config_;
};

}  // namespace aic::delta
