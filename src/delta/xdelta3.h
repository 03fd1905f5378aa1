// From-scratch rsync-style delta coder (the Xdelta3 stand-in).
//
// Encoding walks the target with a rolling weak hash over `block_size`
// windows, looks candidates up in a block index of the source, confirms
// with byte comparison, and extends confirmed matches forward (past the
// block) and backward (into pending literal bytes). Output is a compact
// varint instruction stream:
//
//   header:  varint source_size, varint target_size
//   ops:     0x00 ADD  <varint len> <len raw bytes>
//            0x01 COPY <varint source_offset> <varint len>
//
// Encoder hot path (delta/block_index.h). The block index is a flat
// open-addressed table sized from the source's block count (two slots per
// block, floor of 64), rebuilt in place per call and kept per thread,
// never shared; on x86-64 its block digests are taken 16 bytes at a time
// in SSE2. A filter of tagged one-byte entries, four per slot, sits in
// front of it, and the miss scan rolls eight windows per step in 16-bit
// lanes and tests them against the filter with two compares and a
// movemask. Each digest's blocks chain in ascending offset order, so
// max_probes cuts the same candidates whatever the table layout; matches
// are confirmed and extended eight bytes at a time in both directions.
// encode_to() appends straight into a caller's writer, which lets the
// page-aligned coder build records in the payload without a per-page
// buffer. None of this
// moves a byte or a work unit: the pinned encoding
// (XDelta3.EncodingIsPinned) and the deterministic latencies derived from
// CodecStats::work_units depend on that.
//
// Decoding replays the instructions; total reconstructed length must equal
// the header's target_size (checked). The header and every op are
// untrusted: a COPY must lie inside the source, no op may write past
// target_size, and the output buffer is never reserved beyond what the
// ops could produce, so a hostile delta throws CheckError.
#pragma once

#include <cstddef>

#include "delta/delta_codec.h"

namespace aic::delta {

struct XDelta3Config {
  /// Matching granularity. Smaller finds more matches but hashes more
  /// blocks; the page-aligned compressor uses a small block (pages are only
  /// 4 KiB), the whole-file codec a larger one, mirroring xdelta3 defaults.
  std::size_t block_size = 64;
  /// Cap on candidate offsets probed per weak-hash bucket (guards against
  /// adversarial inputs with many identical blocks).
  std::size_t max_probes = 16;
  /// Emitting a COPY shorter than this costs more than the literal bytes;
  /// matches below it are folded into ADDs.
  std::size_t min_match = 16;
};

class XDelta3Codec final : public DeltaCodec {
 public:
  explicit XDelta3Codec(XDelta3Config config = {});

  std::string name() const override { return "xdelta3"; }

  Bytes encode(ByteSpan source, ByteSpan target,
               CodecStats* stats = nullptr) const override;
  /// encode(), appending the delta to `w` instead of a fresh buffer;
  /// stats->output_bytes counts the appended bytes.
  void encode_to(ByteSpan source, ByteSpan target, ByteWriter& w,
                 CodecStats* stats = nullptr) const;
  Bytes decode(ByteSpan source, ByteSpan delta,
               CodecStats* stats = nullptr) const override;
  /// decode(), replacing the contents of `out` and keeping its capacity,
  /// so one buffer can serve many calls without reallocating. `out` must
  /// not alias `source`.
  void decode_to(ByteSpan source, ByteSpan delta, Bytes& out,
                 CodecStats* stats = nullptr) const;

  const XDelta3Config& config() const { return config_; }

 private:
  XDelta3Config config_;
};

}  // namespace aic::delta
