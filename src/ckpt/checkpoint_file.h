// Checkpoint file format (the BLCR context-file stand-in).
//
// A checkpoint file carries: a small uncompressed "CPU state" blob (the
// paper notes CPU states / process linkage / fds are a minor fraction and
// are not delta-compressed), the list of pages freed since the previous
// checkpoint, and the page payload in one of three forms:
//
//   kFull                  — every live page, raw.
//   kIncremental           — dirty pages only, raw. Read (older builds
//                            wrote them) but no longer written.
//   kIncrementalDelta      — dirty pages, page-aligned delta against the
//                            previous checkpoint (delta/
//                            PageAlignedCompressor payload; decoding needs
//                            the accumulated previous state).
//   kIncrementalCorrecting — like kIncrementalDelta, but pages may carry
//                            correcting-coder (delta format v3) records,
//                            including whole-page-move records that
//                            reference a *different* previous page. Files
//                            of this kind serialize with the "AICCKPT3"
//                            magic so a pre-v3 reader rejects them up
//                            front instead of choking mid-payload.
//
// Restart needs the last full checkpoint plus *all* incremental checkpoints
// after it (Section II.A); RestartEngine replays exactly that. One silently
// corrupted record therefore poisons every restore that replays through it,
// which is why v2 carries integrity metadata and verify/ChainVerifier
// exists.
//
// Serialized layout v2 (little-endian, varints per common/bytes.h):
//   u64 magic "AICCKPT2"
//   u32 crc32c over the body (everything after this field)
//   body:
//     u8 kind | varint sequence | f64 app_time
//     varint cpu_state_len | cpu_state bytes
//     varint freed_count | freed page ids (ascending, delta-coded varints)
//     varint payload_len | payload bytes
//
// v1 ("AICCKPT1") is the same body with no checksum field; parse() still
// accepts it (reading old checkpoint stores). v3 ("AICCKPT3") is the v2
// layout — same CRC placement, same body fields — and exists to version
// the payload: the kIncrementalCorrecting kind (and with it
// delta-format-v3 page records) is legal only under the v3 magic.
// serialize() emits v2 for every pre-existing kind, so chains that never
// use the correcting coder are byte-identical to what older builds wrote.
// The CRC-32C (common/crc32c.h) covers every body byte — and, in v3, the
// magic as well, closing the v2 gap where a single bit flip in the version
// digit could turn a record into a "valid" one of another version — so any
// bit flip, truncation inside the body, or torn write is detected before
// the record's contents are believed; parse() reports the byte offset at
// which corruption was detected in the CheckError message.
//
// A record whose magic starts "AICCKPT" but carries a version digit this
// build does not understand throws UnsupportedFormatError (a CheckError
// subclass), so tools can distinguish "from the future" from "corrupt".
//
// Who owns the bytes: a parsed record's payload is a view into the buffer
// the record was read into, never a copy of it. The payload (common/
// bytes.h SharedBytes) holds a reference to that buffer, so the buffer
// lives as long as any copy of the record does, and copies of a record
// share it; nothing can write through it. A recovery therefore holds each
// record's read buffer, header bytes included, for as long as it holds
// the parsed chain.
//
// parse() is hardened against hostile input: every length/count field is
// bounds-checked against the bytes actually remaining before any
// allocation or read, so truncated or oversized-length records throw
// CheckError instead of over-reading or over-allocating.
//
// Invariants fsck (verify/chain_verifier.h) enforces across a *chain* of
// these records — beyond the per-record checks parse() does — are listed in
// that header: chain starts full, sequences contiguous, freed pages
// resolvable, payloads decodable by replay.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "delta/page_delta.h"
#include "mem/address_space.h"

namespace aic::ckpt {

using mem::PageId;

enum class CheckpointKind : std::uint8_t {
  kFull = 0,
  kIncremental = 1,
  kIncrementalDelta = 2,
  kIncrementalCorrecting = 3,
};

const char* to_string(CheckpointKind kind);

/// Thrown by CheckpointFile::parse() for a record with a well-formed
/// "AICCKPT" magic whose version digit is newer than this build — a
/// future-format record, as opposed to a corrupt one.
class UnsupportedFormatError : public CheckError {
 public:
  using CheckError::CheckError;
};

struct CheckpointFile {
  /// On-disk format version this record was parsed from (or will be
  /// written as; serialize() picks the lowest version that can carry the
  /// record's kind).
  static constexpr std::uint8_t kVersionV1 = 1;  // no checksum
  static constexpr std::uint8_t kVersionV2 = 2;  // CRC-32C over the body
  static constexpr std::uint8_t kVersionV3 = 3;  // + correcting records
  static constexpr std::uint8_t kCurrentVersion = kVersionV3;

  CheckpointKind kind = CheckpointKind::kFull;
  /// Monotone sequence number within a chain; full checkpoints restart
  /// nothing — the sequence keeps increasing across the whole job.
  std::uint64_t sequence = 0;
  /// Virtual application time at capture (seconds).
  double app_time = 0.0;
  /// Opaque processor/process state (registers, fds, ...) — small, raw.
  Bytes cpu_state;
  /// Pages freed since the previous checkpoint (empty for kFull).
  std::vector<PageId> freed_pages;
  /// Page payload; interpretation depends on `kind` (see header comment).
  /// Immutable, and shared by every copy of the file: a copy costs a
  /// reference count, not the payload. A parsed record's payload views the
  /// buffer its record was parsed from and keeps that buffer alive (see
  /// parse()); a record built in memory assigns a Bytes, which moves in.
  SharedBytes payload;
  /// Format version observed by parse(); kCurrentVersion for records built
  /// in memory.
  std::uint8_t version = kCurrentVersion;

  /// Serializes to the on-disk byte layout (checksummed; v3 for
  /// correcting records, v2 for everything else).
  Bytes serialize() const;
  /// Parses a serialized checkpoint (v1-v3); throws CheckError naming
  /// the offending byte offset on any corruption or hostile length field,
  /// and UnsupportedFormatError for a well-formed future-version magic.
  /// The record is parsed in place: the payload views `record`, which it
  /// keeps alive, and no payload byte is copied. `crc`, if given, is the
  /// register crc32c_update(0, record) over every byte of the record, as a
  /// reader that checksummed the record piece by piece while reading it
  /// combines it (common/crc32c.h); otherwise parse computes it. The
  /// record checksum is derived from it, so a caller needs no knowledge of
  /// the format.
  static CheckpointFile parse(SharedBytes record,
                              std::optional<std::uint32_t> crc = {});
  /// The same parse over a copy of `data`, which it makes and checksums in
  /// one pass; the payload views that copy.
  static CheckpointFile parse(ByteSpan data);

  /// Total serialized size without building the buffer (used for bandwidth
  /// accounting before the bytes are materialized remotely).
  std::uint64_t serialized_size() const;
};

/// Raw-page payload of full (and read-only kIncremental) files:
///   varint page_count, then per page: varint id, kPageSize raw bytes.
/// decode_raw_pages returns views into `payload`, valid while it lives.
Bytes encode_raw_pages(const std::vector<delta::DirtyPage>& pages);
std::vector<std::pair<PageId, ByteSpan>> decode_raw_pages(ByteSpan payload);

}  // namespace aic::ckpt
