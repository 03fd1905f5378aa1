#include "ckpt/checkpoint_file.h"

#include <algorithm>

#include "common/check.h"
#include "common/crc32c.h"
#include "common/units.h"

namespace aic::ckpt {
namespace {

// "AICCKPT1" / "AICCKPT2" / "AICCKPT3" little-endian: seven magic bytes
// plus an ASCII version digit in the top byte.
constexpr std::uint64_t kMagicV1 = 0x31544B4343494141ULL;
constexpr std::uint64_t kMagicV2 = 0x32544B4343494141ULL;
constexpr std::uint64_t kMagicV3 = 0x33544B4343494141ULL;
constexpr std::uint64_t kMagicPrefixMask = 0x00FFFFFFFFFFFFFFULL;
constexpr std::uint64_t kMagicPrefix = kMagicV1 & kMagicPrefixMask;

// v2/v3 prefix: u64 magic + u32 body checksum.
constexpr std::size_t kV2HeaderSize = 12;

/// Record checksum. v2 covers only the body (bytes 12..end) — frozen, every
/// stored v2 record computed it that way. v3 additionally covers the magic,
/// closing the v2 gap where a single bit flip in the version digit turned a
/// record into a "valid" one of another version (the CRC field itself stays
/// uncovered: a flip there mismatches by construction).
///
/// It is derived from `whole`, the register crc32c_update(0, data) over all
/// n bytes, which a reader can compute piecewise while it reads. The
/// register is linear, so with S0 the start the body's checksum continues
/// (kCrc32cInit, or the register after the magic for v3) and H the register
/// from zero over the 12-byte header, the body's register is
/// shift(S0 ^ H, n - 12) ^ whole: the header's bytes cancel out of `whole`.
std::uint32_t record_crc(ByteSpan data, bool cover_magic,
                         std::uint32_t whole) {
  const std::uint32_t start =
      cover_magic ? crc32c_update(kCrc32cInit, data.first(8)) : kCrc32cInit;
  const std::uint32_t header = crc32c_update(0, data.first(kV2HeaderSize));
  return crc32c_finalize(
      crc32c_shift(start ^ header, data.size() - kV2HeaderSize) ^ whole);
}

/// Reads a length/count field and proves it can be backed by the bytes
/// still in the stream (`per_item` ≥ serialized bytes per counted item)
/// before the caller allocates or reads anything — a hostile 2^60 length
/// must die here, not in an allocator or a span overrun.
std::uint64_t bounded_varint(ByteReader& r, const char* field,
                             std::uint64_t per_item = 1) {
  const std::size_t at = r.pos();
  const std::uint64_t v = r.varint();
  AIC_CHECK_MSG(per_item == 0 || v <= r.remaining() / per_item,
                "checkpoint " << field << " = " << v << " at offset " << at
                              << " exceeds the " << r.remaining()
                              << " bytes remaining");
  return v;
}

/// Reads the body fields after the magic and checksum into `f`, all but
/// the payload, whose bytes it returns as a view into the record. Checks
/// every field in record order, ending with the trailing-bytes check.
ByteSpan read_body(ByteReader& r, CheckpointFile& f) {
  std::size_t at = r.pos();
  const std::uint8_t kind = r.u8();
  // Correcting records are legal only under the v3 magic — a v1/v2
  // record claiming kind 3 is corrupt, not futuristic.
  const std::uint8_t max_kind =
      f.version >= CheckpointFile::kVersionV3
          ? std::uint8_t(CheckpointKind::kIncrementalCorrecting)
          : std::uint8_t(CheckpointKind::kIncrementalDelta);
  AIC_CHECK_MSG(kind <= max_kind, "bad checkpoint kind "
                                      << int(kind) << " at offset " << at
                                      << " for format v" << int(f.version));
  f.kind = CheckpointKind(kind);
  f.sequence = r.varint();
  f.app_time = r.f64();
  const std::uint64_t cpu_len = bounded_varint(r, "cpu_state length");
  ByteSpan cpu = r.raw(cpu_len);
  f.cpu_state.assign(cpu.begin(), cpu.end());
  const std::uint64_t freed = bounded_varint(r, "freed-page count");
  PageId last = 0;
  f.freed_pages.reserve(freed);
  for (std::uint64_t i = 0; i < freed; ++i) {
    at = r.pos();
    const std::uint64_t step = r.varint();
    AIC_CHECK_MSG(step <= ~PageId{0} - last,
                  "freed-page id overflow at offset " << at);
    last += step;
    f.freed_pages.push_back(last);
  }
  const std::uint64_t payload_len = bounded_varint(r, "payload length");
  const ByteSpan payload = r.raw(payload_len);
  AIC_CHECK_MSG(r.done(), "trailing bytes after checkpoint at offset "
                              << r.pos() << " (record claims to end there)");
  return payload;
}

/// Bytes per checksum-and-copy step: one round of the CRC's three streams,
/// small enough that the copy finds every byte still in L1.
constexpr std::size_t kParseBlock = 3 * kCrc32cStreamBlock;

/// Copies `record` into `out` block by block and returns its register from
/// zero, crc32c_update(0, record): each copy reads bytes the checksum has
/// just pulled into cache.
std::uint32_t checksum_and_copy(ByteSpan record, Bytes& out) {
  std::uint32_t crc = 0;
  out.reserve(record.size());
  for (std::size_t at = 0; at < record.size(); at += kParseBlock) {
    const ByteSpan block =
        record.subspan(at, std::min(kParseBlock, record.size() - at));
    crc = crc32c_update(crc, block);
    out.insert(out.end(), block.begin(), block.end());
  }
  return crc;
}

}  // namespace

const char* to_string(CheckpointKind kind) {
  switch (kind) {
    case CheckpointKind::kFull:
      return "full";
    case CheckpointKind::kIncremental:
      return "incremental";
    case CheckpointKind::kIncrementalDelta:
      return "incremental-delta";
    case CheckpointKind::kIncrementalCorrecting:
      return "incremental-correcting";
  }
  return "?";
}

Bytes CheckpointFile::serialize() const {
  Bytes out;
  out.reserve(payload.size() + cpu_state.size() + 64);
  ByteWriter w(out);
  // Lowest version that can carry the kind: correcting records need the
  // v3 magic; everything else stays byte-identical to the v2 writer.
  w.u64(kind == CheckpointKind::kIncrementalCorrecting ? kMagicV3
                                                       : kMagicV2);
  w.u32(0);  // checksum placeholder, patched below
  w.u8(std::uint8_t(kind));
  w.varint(sequence);
  w.f64(app_time);
  w.varint(cpu_state.size());
  w.raw(cpu_state);
  w.varint(freed_pages.size());
  PageId last = 0;
  for (PageId id : freed_pages) {
    AIC_CHECK_MSG(id >= last, "freed pages must be id-sorted");
    w.varint(id - last);
    last = id;
  }
  w.varint(payload.size());
  w.raw(payload);

  const std::uint32_t crc =
      record_crc(out, kind == CheckpointKind::kIncrementalCorrecting,
                 crc32c_update(0, out));
  for (int i = 0; i < 4; ++i) out[8 + i] = std::uint8_t(crc >> (8 * i));
  return out;
}

CheckpointFile CheckpointFile::parse(ByteSpan data) {
  Bytes record;
  const std::uint32_t crc = checksum_and_copy(data, record);
  return parse(SharedBytes(std::move(record)), crc);
}

CheckpointFile CheckpointFile::parse(SharedBytes record,
                                     std::optional<std::uint32_t> crc) {
  const ByteSpan data = record;
  ByteReader r(data);
  const std::uint64_t magic = r.u64();
  CheckpointFile f;
  const char version_digit = char(magic >> 56);
  if ((magic & kMagicPrefixMask) == kMagicPrefix && version_digit > '3' &&
      version_digit <= '9') {
    // Recognizably ours, but a version this build does not speak — a
    // future format, not corruption; tools surface this distinctly. A
    // non-digit top byte is plain corruption and falls through to the
    // bad-magic check instead.
    throw UnsupportedFormatError(
        "checkpoint format version '" + std::string(1, version_digit) +
        "' at offset 7 is newer than this build understands (reads v1-v" +
        std::to_string(kCurrentVersion) + ")");
  }
  if (magic == kMagicV2 || magic == kMagicV3) {
    f.version = magic == kMagicV3 ? kVersionV3 : kVersionV2;
    const std::uint32_t stored = r.u32();
    // The checksum is judged before anything the body says.
    const std::uint32_t computed = record_crc(
        data, magic == kMagicV3, crc ? *crc : crc32c_update(0, data));
    if (stored != computed) {
      // Best-effort peek at the (untrusted) sequence so the diagnostic can
      // say which chain position is corrupt; every read is bounds-checked.
      std::string claimed;
      try {
        ByteReader peek(data.subspan(kV2HeaderSize));
        (void)peek.u8();  // kind
        claimed = " (record claims sequence " +
                  std::to_string(peek.varint()) + ")";
      } catch (const CheckError&) {
      }
      AIC_CHECK_MSG(stored == computed,
                    "checkpoint body checksum mismatch at offset 8: stored "
                    "crc32c="
                        << stored << ", computed " << computed
                        << " over bytes [" << kV2HeaderSize << ", "
                        << data.size() << ")" << claimed);
    }
  } else {
    AIC_CHECK_MSG(magic == kMagicV1, "bad checkpoint magic at offset 0");
    f.version = kVersionV1;
  }
  const ByteSpan payload = read_body(r, f);
  f.payload = record.subspan(std::size_t(payload.data() - data.data()),
                             payload.size());
  return f;
}

std::uint64_t CheckpointFile::serialized_size() const {
  // Exact would require varint width math; serialize() is cheap relative to
  // page payloads, so measure precisely via a scratch buffer only when the
  // caller asks. Here: compute exactly with a writer over a small buffer
  // for the header and add payload sizes.
  Bytes scratch;
  ByteWriter w(scratch);
  w.u64(kind == CheckpointKind::kIncrementalCorrecting ? kMagicV3
                                                       : kMagicV2);
  w.u32(0);
  w.u8(std::uint8_t(kind));
  w.varint(sequence);
  w.f64(app_time);
  w.varint(cpu_state.size());
  w.varint(freed_pages.size());
  PageId last = 0;
  for (PageId id : freed_pages) {
    w.varint(id - last);
    last = id;
  }
  w.varint(payload.size());
  return scratch.size() + cpu_state.size() + payload.size();
}

Bytes encode_raw_pages(const std::vector<delta::DirtyPage>& pages) {
  Bytes out;
  out.reserve(pages.size() * (kPageSize + 4) + 8);
  ByteWriter w(out);
  w.varint(pages.size());
  for (const auto& [id, bytes] : pages) {
    AIC_CHECK(bytes.size() == kPageSize);
    w.varint(id);
    w.raw(bytes);
  }
  return out;
}

std::vector<std::pair<PageId, ByteSpan>> decode_raw_pages(ByteSpan payload) {
  ByteReader r(payload);
  const std::uint64_t count = r.varint();
  AIC_CHECK_MSG(count <= r.remaining() / kPageSize,
                "raw-page count " << count << " exceeds payload size");
  std::vector<std::pair<PageId, ByteSpan>> out;
  out.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    const PageId id = r.varint();
    out.emplace_back(id, r.raw(kPageSize));
  }
  AIC_CHECK_MSG(r.done(), "trailing bytes in raw-page payload");
  return out;
}

}  // namespace aic::ckpt
