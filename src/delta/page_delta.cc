#include "delta/page_delta.h"

#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "common/check.h"
#include "common/units.h"
#include "delta/rolling_hash.h"

namespace aic::delta {
namespace {

constexpr std::uint8_t kKindRaw = 0;
constexpr std::uint8_t kKindDelta = 1;
constexpr std::uint8_t kKindSame = 2;
constexpr std::uint8_t kKindCDelta = 3;

void merge_codec_stats(CodecStats& acc, const CodecStats& st) {
  acc.work_units += st.work_units;
  acc.copy_ops += st.copy_ops;
  acc.add_ops += st.add_ops;
}

void check_raw_body(const PageRecord& rec) {
  AIC_CHECK_MSG(rec.body.size() == kPageSize,
                "raw page " << rec.id << " body is " << rec.body.size()
                            << " bytes, expected " << kPageSize);
}

}  // namespace

// A second record for a page would overwrite the first's page, or decode
// against it. Encoders write ids in ascending order, so the duplicate
// check costs one compare per record; only an out-of-order payload pays
// for a set of ids.
std::vector<PageRecord> read_page_records(ByteSpan payload) {
  ByteReader r(payload);
  const std::uint64_t count = r.varint();
  // Each record costs at least two bytes (id varint + kind); a hostile
  // count must die here, not in the vector allocation below.
  AIC_CHECK_MSG(count <= r.remaining() / 2,
                "page-delta record count " << count
                                           << " exceeds payload size");
  std::vector<PageRecord> recs;
  recs.reserve(count);
  bool ascending = true;
  for (std::uint64_t i = 0; i < count; ++i) {
    PageRecord rec{};
    rec.id = r.varint();
    rec.kind = r.u8();
    rec.src = rec.id;
    ascending = ascending && (recs.empty() || rec.id > recs.back().id);
    if (rec.kind != kKindSame) {
      AIC_CHECK_MSG(rec.kind == kKindRaw || rec.kind == kKindDelta ||
                        rec.kind == kKindCDelta,
                    "bad page kind " << int(rec.kind));
      if (rec.kind == kKindCDelta) rec.src = r.varint();
      rec.body = r.raw(r.varint());
    }
    recs.push_back(rec);
  }
  AIC_CHECK_MSG(r.done(), "trailing bytes in page-delta payload");
  if (!ascending) {
    std::unordered_set<PageId> seen;
    seen.reserve(recs.size());
    for (const PageRecord& rec : recs)
      AIC_CHECK_MSG(seen.insert(rec.id).second,
                    "page " << rec.id << " appears twice in one payload");
  }
  return recs;
}

MoveIndex::MoveIndex(const mem::Snapshot& prev) {
  by_content_.reserve(prev.page_count());
  // page_ids() is ascending and emplace keeps the first insert, so a
  // content collision always resolves to the lowest id — deterministic
  // regardless of how compress() later shards the dirty set.
  for (mem::PageId id : prev.page_ids())
    by_content_.emplace(fnv1a64(prev.page_bytes(id)), id);
}

std::optional<mem::PageId> MoveIndex::find(ByteSpan bytes,
                                           const mem::Snapshot& prev) const {
  if (by_content_.empty()) return std::nullopt;
  auto it = by_content_.find(fnv1a64(bytes));
  if (it == by_content_.end()) return std::nullopt;
  ByteSpan cand = prev.page_bytes(it->second);
  if (std::memcmp(cand.data(), bytes.data(), kPageSize) != 0)
    return std::nullopt;
  return it->second;
}

PageAlignedCompressor::PageAlignedCompressor(XDelta3Config per_page,
                                             bool correcting)
    : codec_(per_page), correcting_(correcting) {}

MoveIndex PageAlignedCompressor::move_index(const mem::Snapshot& prev) const {
  return correcting_ ? MoveIndex(prev) : MoveIndex();
}

void PageAlignedCompressor::encode_page(const DirtyPage& page,
                                        const mem::Snapshot& prev,
                                        const MoveIndex& moves, ByteWriter& w,
                                        DeltaResult& acc) const {
  AIC_CHECK(page.bytes.size() == kPageSize);
  w.varint(page.id);
  acc.stats.input_bytes += kPageSize;
  const bool has_prev = prev.contains(page.id);
  if (has_prev) {
    ByteSpan prev_bytes = prev.page_bytes(page.id);
    acc.stats.source_bytes += kPageSize;
    // Fast path: conservatively write-protected pages are often rewritten
    // with identical content; one memcmp replaces the whole codec pass and
    // the record is just id + kind. Charged as one page of work (the
    // compare scan); a failed compare's partial scan is folded into the
    // encode cost below.
    if (std::memcmp(prev_bytes.data(), page.bytes.data(), kPageSize) == 0) {
      w.u8(kKindSame);
      acc.stats.work_units += kPageSize;
      ++acc.pages_same;
      return;
    }
  }
  if (correcting_) {
    // Whole-page move: this exact content lived at another id in the
    // previous checkpoint (memmove of page-aligned regions). The record
    // degenerates to a single COPY over that source — ~15 bytes where the
    // greedy coder, which only ever differences a page against itself,
    // would emit a 4 KiB raw record.
    if (auto src = moves.find(page.bytes, prev); src && *src != page.id) {
      CodecStats st;
      Bytes delta = ccodec_.encode(prev.page_bytes(*src), page.bytes, &st);
      merge_codec_stats(acc.stats, st);
      w.u8(kKindCDelta);
      w.varint(*src);
      w.varint(delta.size());
      w.raw(delta);
      ++acc.pages_delta;
      ++acc.pages_moved;
      return;
    }
    if (has_prev) {
      CodecStats st;
      Bytes delta = ccodec_.encode(prev.page_bytes(page.id), page.bytes, &st);
      merge_codec_stats(acc.stats, st);
      if (delta.size() < kPageSize) {
        w.u8(kKindCDelta);
        w.varint(page.id);
        w.varint(delta.size());
        w.raw(delta);
        ++acc.pages_delta;
        return;
      }
      // Delta expanded (dissimilar page): fall through to raw.
    }
  } else if (has_prev) {
    // Encoded in place behind a reserved length slot: no per-page buffer,
    // no copy, and the same bytes as writing the length up front.
    const std::size_t record = w.size();
    w.u8(kKindDelta);
    const std::size_t body = w.open_length_slot();
    CodecStats st;
    codec_.encode_to(prev.page_bytes(page.id), page.bytes, w, &st);
    merge_codec_stats(acc.stats, st);
    if (st.output_bytes < kPageSize) {
      w.close_length_slot(body);
      ++acc.pages_delta;
      return;
    }
    // Delta expanded (dissimilar page): drop it and fall through to raw.
    w.truncate(record);
  }
  w.u8(kKindRaw);
  w.varint(kPageSize);
  w.raw(page.bytes);
  acc.stats.work_units += kPageSize;
  ++acc.pages_raw;
}

DeltaResult PageAlignedCompressor::compress(
    const std::vector<DirtyPage>& dirty, const mem::Snapshot& prev) const {
  DeltaResult result;
  result.pages_total = dirty.size();
  // Worst case is every page raw plus small headers; reserving the dirty-set
  // size up front kills the repeated ByteWriter reallocation on big sets.
  result.payload.reserve(dirty.size() * (kPageSize + 16) + 10);
  ByteWriter w(result.payload);
  w.varint(dirty.size());
  const MoveIndex moves = move_index(prev);
  for (const DirtyPage& page : dirty) encode_page(page, prev, moves, w, result);
  result.stats.output_bytes = result.payload.size();
  return result;
}

mem::Snapshot PageAlignedCompressor::decompress(
    ByteSpan payload, const mem::Snapshot& prev) const {
  return decompress(read_page_records(payload), prev, PageRange{});
}

mem::Snapshot PageAlignedCompressor::decompress(
    std::span<const PageRecord> records, const mem::Snapshot& prev,
    PageRange range) const {
  mem::Snapshot out;
  for (const PageRecord& rec : records) {
    if (!range.contains(rec.id)) continue;
    switch (rec.kind) {
      case kKindSame:
        AIC_CHECK_MSG(prev.contains(rec.id),
                      "same page " << rec.id
                                   << " missing from previous snapshot");
        out.put_page(rec.id, prev.page_bytes(rec.id));
        break;
      case kKindRaw:
        check_raw_body(rec);
        out.put_page(rec.id, rec.body);
        break;
      case kKindDelta: {
        AIC_CHECK_MSG(prev.contains(rec.id),
                      "delta page " << rec.id
                                    << " missing from previous snapshot");
        Bytes page = codec_.decode(prev.page_bytes(rec.id), rec.body);
        AIC_CHECK(page.size() == kPageSize);
        out.put_page(rec.id, page);
        break;
      }
      case kKindCDelta: {
        AIC_CHECK_MSG(prev.contains(rec.src),
                      "cdelta page " << rec.id << " source page " << rec.src
                                     << " missing from previous snapshot");
        Bytes page = ccodec_.decode(prev.page_bytes(rec.src), rec.body);
        AIC_CHECK(page.size() == kPageSize);
        out.put_page(rec.id, page);
        break;
      }
    }
  }
  return out;
}

void PageAlignedCompressor::decompress_in_place(ByteSpan payload,
                                                mem::Snapshot& state) const {
  decompress_in_place(read_page_records(payload), state, PageRange{});
}

void PageAlignedCompressor::decompress_in_place(
    std::span<const PageRecord> recs, mem::Snapshot& state,
    PageRange range) const {
  // Pass 1: index the last cross-frame reader of every source page. A
  // frame whose old content is still needed by a later move record must
  // be stashed before it is overwritten — and can be dropped the moment
  // its last reader has run.
  std::unordered_map<PageId, std::size_t> last_reader;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    if (!range.contains(recs[i].id)) continue;
    if (recs[i].kind == kKindCDelta && recs[i].src != recs[i].id) {
      // `state` is pristine here, so this is the same "source must exist in
      // the previous image" rule decompress() enforces — checked now because
      // by the time pass 2 reaches the reader, an earlier record may have
      // legitimately created a page with that id.
      AIC_CHECK_MSG(state.contains(recs[i].src),
                    "cdelta page " << recs[i].id << " source page "
                                   << recs[i].src
                                   << " missing from restart image");
      last_reader[recs[i].src] = i;
    }
  }

  // Pass 2: apply in stream order, mutating frames where they sit. Extra
  // memory is one scratch page, reused by every greedy delta, plus
  // whatever mover sources are live in the stash at that instant.
  std::unordered_map<PageId, Bytes> stash;
  Bytes scratch;
  for (std::size_t i = 0; i < recs.size(); ++i) {
    const PageRecord& rec = recs[i];
    if (!range.contains(rec.id)) continue;
    if (auto lr = last_reader.find(rec.id);
        lr != last_reader.end() && lr->second > i && !stash.contains(rec.id) &&
        state.contains(rec.id)) {
      ByteSpan old = state.page_bytes(rec.id);
      stash.emplace(rec.id, Bytes(old.begin(), old.end()));
    }
    switch (rec.kind) {
      case kKindSame:
        AIC_CHECK_MSG(state.contains(rec.id),
                      "same page " << rec.id
                                   << " missing from restart image");
        break;
      case kKindRaw:
        check_raw_body(rec);
        state.put_page(rec.id, rec.body);
        break;
      case kKindDelta: {
        const std::span<std::uint8_t> frame = state.find_page(rec.id);
        AIC_CHECK_MSG(!frame.empty(), "delta page "
                                          << rec.id
                                          << " missing from restart image");
        // A greedy COPY may read any byte of the old frame, so the page
        // decodes into scratch and then replaces the frame whole.
        codec_.decode_to(frame, rec.body, scratch);
        AIC_CHECK(scratch.size() == kPageSize);
        copy_no_overlap(frame.data(), scratch.data(), kPageSize);
        break;
      }
      case kKindCDelta: {
        if (rec.src == rec.id) {
          const std::span<std::uint8_t> frame = state.find_page(rec.id);
          AIC_CHECK_MSG(!frame.empty(), "cdelta page "
                                            << rec.id
                                            << " missing from restart image");
          // The payoff case: the correcting stream rewrites the frame where
          // it sits — no decoded copy at all.
          ccodec_.apply_in_place(frame, rec.body);
          break;
        }
        ByteSpan source;
        if (auto st = stash.find(rec.src); st != stash.end()) {
          source = ByteSpan(st->second);
        } else {
          AIC_CHECK_MSG(state.contains(rec.src),
                        "cdelta page " << rec.id << " source page " << rec.src
                                       << " missing from restart image");
          source = state.page_bytes(rec.src);
        }
        Bytes page = ccodec_.decode(source, rec.body);
        AIC_CHECK(page.size() == kPageSize);
        state.put_page(rec.id, page);
        if (auto lr = last_reader.find(rec.src);
            lr != last_reader.end() && lr->second == i)
          stash.erase(rec.src);
        break;
      }
    }
  }
}

WholeFileCompressor::WholeFileCompressor(XDelta3Config config)
    : codec_(config) {}

DeltaResult WholeFileCompressor::compress(const std::vector<DirtyPage>& dirty,
                                          const mem::Snapshot& prev) const {
  DeltaResult result;
  result.pages_total = dirty.size();
  result.pages_delta = dirty.size();

  // Source: all pages of the previous checkpoint, concatenated in id order.
  Bytes source;
  source.reserve(prev.page_count() * kPageSize);
  for (PageId id : prev.page_ids()) {
    ByteSpan b = prev.page_bytes(id);
    source.insert(source.end(), b.begin(), b.end());
  }
  // Target: the dirty pages, concatenated in the given order.
  Bytes target;
  target.reserve(dirty.size() * kPageSize);
  for (const DirtyPage& page : dirty) {
    AIC_CHECK(page.bytes.size() == kPageSize);
    target.insert(target.end(), page.bytes.begin(), page.bytes.end());
  }

  ByteWriter w(result.payload);
  w.varint(dirty.size());
  PageId last = 0;
  for (const DirtyPage& page : dirty) {
    // Ids are stored as deltas from the previous id (ascending input).
    AIC_CHECK_MSG(page.id >= last, "dirty pages must be id-sorted");
    w.varint(page.id - last);
    last = page.id;
  }
  CodecStats st;
  Bytes delta = codec_.encode(source, target, &st);
  w.varint(delta.size());
  w.raw(delta);
  result.stats = st;
  result.stats.input_bytes = target.size();
  result.stats.output_bytes = result.payload.size();
  return result;
}

mem::Snapshot WholeFileCompressor::decompress(ByteSpan payload,
                                              const mem::Snapshot& prev) const {
  ByteReader r(payload);
  const std::uint64_t count = r.varint();
  // Each id costs at least one varint byte; a hostile count must die here,
  // not in the allocator below.
  AIC_CHECK_MSG(count <= r.remaining(),
                "whole-file page count " << count << " exceeds payload size");
  std::vector<PageId> ids(count);
  PageId last = 0;
  for (std::uint64_t i = 0; i < count; ++i) {
    last += r.varint();
    ids[i] = last;
  }
  const std::uint64_t delta_len = r.varint();
  ByteSpan delta = r.raw(delta_len);
  AIC_CHECK_MSG(r.done(), "trailing bytes in whole-file payload");

  Bytes source;
  source.reserve(prev.page_count() * kPageSize);
  for (PageId id : prev.page_ids()) {
    ByteSpan b = prev.page_bytes(id);
    source.insert(source.end(), b.begin(), b.end());
  }
  Bytes target = codec_.decode(source, delta);
  AIC_CHECK(target.size() == count * kPageSize);

  mem::Snapshot out;
  for (std::uint64_t i = 0; i < count; ++i) {
    out.put_page(ids[i],
                 ByteSpan(target.data() + i * kPageSize, kPageSize));
  }
  return out;
}

}  // namespace aic::delta
