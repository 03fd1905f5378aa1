// Checkpoint-level delta compression: the page-aligned Xdelta3-PA coder of
// Section IV.C and the conventional whole-file Xdelta3 coder it is compared
// against (Table 3).
//
// Xdelta3-PA differences *each* dirty page against its previous version
// from the prior checkpoint, if one exists; new pages are stored raw. The
// page alignment is what lets the AIC predictor estimate compression cost
// per page (JD/DI metrics) — the whole-file coder cannot support online
// decision because its cost has no per-page decomposition.
//
// Payload formats (both varint-based, see common/bytes.h):
//   page-aligned: varint page_count, then per page:
//       varint page_id, u8 kind (0 raw | 1 delta | 2 same | 3 cdelta),
//       then for raw/delta: varint len, bytes (a "same" record is just the
//       id + kind — the page is bit-identical to its previous version, the
//       common case for conservatively write-protected pages, detected by a
//       memcmp fast path that skips the codec entirely); a cdelta record
//       is varint src_page_id, varint len, then a correcting-coder
//       (delta format v3) instruction stream applied against the previous
//       version of src_page_id — src_page_id == page_id for an in-frame
//       delta, a different id for a whole-page move (detected via the
//       MoveIndex content hash, the common case when a region of the
//       address space is memmoved by whole pages). cdelta records only
//       appear in correcting-mode payloads (checkpoint format v3), but
//       decompress() always understands all four kinds.
//   whole-file:   varint page_count, varint page_id deltas (ascending),
//       varint delta_len, delta bytes (XDelta3 over the concatenation of
//       the dirty pages against the concatenation of *all* pages of the
//       previous checkpoint in id order)
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "delta/correcting.h"
#include "delta/xdelta3.h"
#include "mem/snapshot.h"

namespace aic::delta {

using mem::PageId;

/// One dirty page to compress: id plus its current image.
struct DirtyPage {
  PageId id;
  ByteSpan bytes;  // exactly kPageSize bytes, owned by the caller
};

/// Aggregate accounting for one checkpoint compression.
struct DeltaResult {
  Bytes payload;
  CodecStats stats;
  std::uint64_t pages_total = 0;
  std::uint64_t pages_delta = 0;  // pages encoded as a delta (hot pages)
  std::uint64_t pages_raw = 0;    // new pages stored verbatim
  std::uint64_t pages_same = 0;   // unchanged pages (memcmp fast path)
  /// Subset of pages_delta encoded against a *different* previous page
  /// (whole-page moves found via the MoveIndex; correcting mode only).
  std::uint64_t pages_moved = 0;
};

/// Content index over the previous checkpoint's pages for whole-page move
/// detection: fnv1a64(page content) -> lowest page id with that content.
/// Built once per compress() call (correcting mode only) and shared
/// read-only across shards, so parallel output stays byte-identical to
/// serial. Candidates are memcmp-verified before use — a hash collision
/// costs one compare, never a wrong encoding.
class MoveIndex {
 public:
  /// Empty index: move detection off (greedy mode).
  MoveIndex() = default;
  explicit MoveIndex(const mem::Snapshot& prev);

  /// Lowest previous-page id whose content is bit-identical to `bytes`,
  /// or nullopt.
  std::optional<mem::PageId> find(ByteSpan bytes,
                                  const mem::Snapshot& prev) const;

 private:
  std::unordered_map<std::uint64_t, mem::PageId> by_content_;
};

/// Page-aligned delta compressor: Xdelta3-PA (greedy), or — in correcting
/// mode — the one-pass correcting coder with whole-page move detection
/// (payload kind cdelta, checkpoint format v3).
class PageAlignedCompressor {
 public:
  explicit PageAlignedCompressor(XDelta3Config per_page = page_config(),
                                 bool correcting = false);

  /// Default per-page coder tuning: 4 KiB inputs want small blocks.
  static XDelta3Config page_config() {
    return XDelta3Config{.block_size = 32, .max_probes = 8, .min_match = 12};
  }

  /// Compresses `dirty` against `prev` (the previous checkpoint's pages).
  DeltaResult compress(const std::vector<DirtyPage>& dirty,
                       const mem::Snapshot& prev) const;

  /// Inverse: reconstructs the dirty pages' images given the same `prev`.
  /// Decodes every record kind regardless of the compressor's encode mode.
  /// Both decoders read the payload through one record reader, so they
  /// reject the same malformed payloads — a page named twice included.
  mem::Snapshot decompress(ByteSpan payload, const mem::Snapshot& prev) const;

  /// Applies the payload directly onto `state` (the accumulated restart
  /// image), mutating page frames where they sit instead of materializing
  /// a second snapshot — the Burns/Long/Stockmeyer in-place restore. Page
  /// frames whose old content is still needed by a later whole-page-move
  /// record are stashed (copied once) until their last reader, so extra
  /// memory is one scratch page plus the transiently-stashed movers,
  /// rather than a full decoded snapshot. Equivalent to
  /// decompress() + overlay (tested byte-exact). Freed pages must be
  /// applied AFTER this call, exactly like the decompress() path.
  void decompress_in_place(ByteSpan payload, mem::Snapshot& state) const;

  /// Builds the move index for one compress() call: populated in
  /// correcting mode, empty (detection off) in greedy mode.
  MoveIndex move_index(const mem::Snapshot& prev) const;

  /// Encodes one dirty page (same/cdelta/delta/raw record) into `w`,
  /// merging its accounting into `acc` — everything except
  /// `stats.output_bytes`, which the caller sets from the finished
  /// payload. `moves` is the shared per-call MoveIndex (from
  /// move_index()). This is the single per-page encoder shared with
  /// ParallelPageCompressor: both compressors emit the exact same record
  /// stream, which is what makes parallel output byte-identical to serial
  /// output (a tested invariant).
  void encode_page(const DirtyPage& page, const mem::Snapshot& prev,
                   const MoveIndex& moves, ByteWriter& w,
                   DeltaResult& acc) const;

  bool correcting() const { return correcting_; }

 private:
  XDelta3Codec codec_;
  CorrectingDeltaCodec ccodec_{CorrectingDeltaCodec::page_config()};
  bool correcting_ = false;
};

/// Conventional whole-file delta compressor (plain Xdelta3 between two
/// successive checkpoints), for the Table 3 comparison.
class WholeFileCompressor {
 public:
  explicit WholeFileCompressor(XDelta3Config config = file_config());

  static XDelta3Config file_config() {
    return XDelta3Config{.block_size = 256, .max_probes = 8, .min_match = 32};
  }

  DeltaResult compress(const std::vector<DirtyPage>& dirty,
                       const mem::Snapshot& prev) const;
  mem::Snapshot decompress(ByteSpan payload, const mem::Snapshot& prev) const;

 private:
  XDelta3Codec codec_;
};

}  // namespace aic::delta
