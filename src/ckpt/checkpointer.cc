#include "ckpt/checkpointer.h"

#include <algorithm>
#include <exception>
#include <iterator>

#include "common/check.h"
#include "common/thread_pool.h"
#include "common/units.h"
#include "obs/names.h"
#include "obs/trace.h"

namespace aic::ckpt {
namespace {

using Mode = RestartEngine::Mode;

/// Views of every page of a snapshot, in ascending id order.
std::vector<delta::DirtyPage> views_of(const mem::Snapshot& snapshot) {
  const std::vector<PageId> ids = snapshot.page_ids();
  std::vector<delta::DirtyPage> views;
  views.reserve(ids.size());
  for (PageId id : ids) views.push_back({id, snapshot.page_bytes(id)});
  return views;
}

/// One record's pages as replay reads them, read once for every range:
/// raw pages for full and raw incremental records, the page records of a
/// delta payload otherwise. Both view the record's payload.
struct RecordPages {
  std::vector<std::pair<PageId, ByteSpan>> raw;
  std::vector<delta::PageRecord> coded;
};

RecordPages read_pages(const CheckpointFile& f) {
  RecordPages out;
  if (f.kind == CheckpointKind::kFull ||
      f.kind == CheckpointKind::kIncremental) {
    out.raw = decode_raw_pages(f.payload);
  } else {
    out.coded = delta::read_page_records(f.payload);
  }
  return out;
}

/// RestartEngine::replay over pages read_pages() has read.
void replay_pages(const CheckpointFile& f, const RecordPages& pages,
                  const delta::PageAlignedCompressor& compressor, Mode mode,
                  mem::Snapshot& state, delta::PageRange range) {
  const auto erase_freed = [&] {
    for (PageId id : f.freed_pages) {
      if (range.contains(id)) state.erase_page(id);
    }
  };
  switch (f.kind) {
    case CheckpointKind::kFull:
      // An empty state may hold frames reserved for this record's pages.
      if (state.page_count() != 0) state = mem::Snapshot();
      for (const auto& [id, bytes] : pages.raw) {
        if (range.contains(id)) state.put_page(id, bytes);
      }
      return;
    case CheckpointKind::kIncremental:
      erase_freed();
      for (const auto& [id, bytes] : pages.raw) {
        if (range.contains(id)) state.put_page(id, bytes);
      }
      return;
    case CheckpointKind::kIncrementalDelta:
    case CheckpointKind::kIncrementalCorrecting:
      // Deltas reference page versions as of the previous checkpoint, which
      // is exactly `state`. The two kinds differ only in which record kinds
      // the payload may contain; the decoder dispatches per record.
      if (mode == Mode::kInPlace) {
        compressor.decompress_in_place(pages.coded, state, range);
        erase_freed();
      } else {
        mem::Snapshot decoded =
            compressor.decompress(pages.coded, state, range);
        erase_freed();
        decoded.overlay_onto(state);
      }
      return;
  }
}

/// The serial replay: every check and every message of a restore.
RestartEngine::Restored restore_serial(
    std::span<const CheckpointFile> chain,
    const delta::PageAlignedCompressor& compressor, Mode mode) {
  AIC_CHECK_MSG(!chain.empty(), "empty restart chain");
  AIC_CHECK_MSG(chain.front().kind == CheckpointKind::kFull,
                "restart chain must begin with a full checkpoint, got "
                    << to_string(chain.front().kind) << " sequence "
                    << chain.front().sequence);
  RestartEngine::Restored out;
  std::uint64_t prev_seq = 0;
  bool first = true;
  for (const CheckpointFile& f : chain) {
    AIC_CHECK_MSG(first || f.sequence > prev_seq,
                  "restart chain sequences must increase: sequence "
                      << f.sequence << " follows " << prev_seq);
    // Captures number checkpoints consecutively, so a sequence jump inside
    // a chain means an incremental is missing — the delta after the gap
    // would silently decode against the wrong accumulated state.
    AIC_CHECK_MSG(first || f.sequence == prev_seq + 1,
                  "restart chain is missing checkpoint(s): sequence "
                      << f.sequence << " follows " << prev_seq);
    first = false;
    prev_seq = f.sequence;

    try {
      RestartEngine::replay(f, compressor, mode, out.memory);
    } catch (const CheckError& e) {
      throw CheckError("restoring sequence " + std::to_string(f.sequence) +
                       " (" + to_string(f.kind) + "): " + e.what());
    }
    out.cpu_state = f.cpu_state;
    out.app_time = f.app_time;
    out.sequence = f.sequence;
  }
  return out;
}

/// The replay by range, or nullopt where restore_serial must run instead:
/// a chain it would reject, a full record whose ids do not ascend, a move
/// whose source lies in another range, or any participant's error.
std::optional<RestartEngine::Restored> restore_by_range(
    std::span<const CheckpointFile> chain,
    const delta::PageAlignedCompressor& compressor, Mode mode,
    std::size_t ranges, std::size_t participants) {
  if (chain.empty() || chain.front().kind != CheckpointKind::kFull)
    return std::nullopt;
  for (std::size_t i = 1; i < chain.size(); ++i) {
    if (chain[i].sequence <= chain[i - 1].sequence ||
        chain[i].sequence != chain[i - 1].sequence + 1)
      return std::nullopt;
  }
  std::vector<RecordPages> pages(chain.size());
  try {
    for (std::size_t i = 0; i < chain.size(); ++i)
      pages[i] = read_pages(chain[i]);
  } catch (const CheckError&) {
    return std::nullopt;
  }

  // Cut the ranges at the full record's ids, so each starts with about as
  // many of its pages.
  const std::vector<std::pair<PageId, ByteSpan>>& full = pages[0].raw;
  for (std::size_t k = 1; k < full.size(); ++k) {
    if (full[k].first <= full[k - 1].first) return std::nullopt;
  }
  ranges = std::min(ranges, full.size());
  if (ranges <= 1) return std::nullopt;
  std::vector<delta::PageRange> cut(ranges);
  for (std::size_t r = 1; r < ranges; ++r) {
    cut[r].first = full[r * full.size() / ranges].first;
    cut[r - 1].last = cut[r].first - 1;
  }
  const auto range_of = [&](PageId id) {
    return std::upper_bound(cut.begin(), cut.end(), id,
                            [](PageId v, const delta::PageRange& range) {
                              return v < range.first;
                            }) -
           cut.begin();
  };
  for (const RecordPages& record : pages) {
    for (const delta::PageRecord& rec : record.coded) {
      if (rec.src != rec.id && range_of(rec.src) != range_of(rec.id))
        return std::nullopt;
    }
  }

  std::vector<mem::Snapshot> parts(ranges);
  for (std::size_t r = 0; r < ranges; ++r)
    parts[r].reserve((r + 1) * full.size() / ranges - r * full.size() / ranges);
  std::vector<std::exception_ptr> errors(ranges);
  common::parallel_for(ranges, participants, [&](std::size_t r) {
    try {
      for (std::size_t i = 0; i < chain.size(); ++i)
        replay_pages(chain[i], pages[i], compressor, mode, parts[r], cut[r]);
    } catch (...) {
      errors[r] = std::current_exception();
    }
  });
  for (const std::exception_ptr& error : errors) {
    if (error) return std::nullopt;
  }
  RestartEngine::Restored out;
  out.memory = mem::Snapshot::splice(parts);
  out.cpu_state = chain.back().cpu_state;
  out.app_time = chain.back().app_time;
  out.sequence = chain.back().sequence;
  return out;
}

}  // namespace

namespace detail {

RestartEngine::Restored restore_ranges(
    std::span<const CheckpointFile> chain,
    const delta::PageAlignedCompressor& compressor, Mode mode,
    std::size_t ranges, std::size_t participants) {
  if (ranges > 1) {
    if (auto out =
            restore_by_range(chain, compressor, mode, ranges, participants))
      return std::move(*out);
  }
  return restore_serial(chain, compressor, mode);
}

}  // namespace detail

RestartEngine::Restored RestartEngine::restore(
    std::span<const CheckpointFile> chain,
    const delta::PageAlignedCompressor& compressor, Mode mode) {
  // The full record's payload is its pages and an id per page: its size
  // in pages is the work a split shares out.
  const common::PageSplit split = common::restore_page_split(
      chain.empty() ? 0 : chain.front().payload.size() / kPageSize);
  return detail::restore_ranges(chain, compressor, mode, split.ranges,
                                split.participants);
}

void RestartEngine::replay(const CheckpointFile& f,
                           const delta::PageAlignedCompressor& compressor,
                           Mode mode, mem::Snapshot& state,
                           delta::PageRange range) {
  // Read whole first, so a payload that does not read leaves `state`
  // untouched.
  replay_pages(f, read_pages(f), compressor, mode, state, range);
}

CheckpointChain::CheckpointChain(Config config)
    : config_(config),
      compressor_(delta::ParallelPageCompressor::Config{
          .correcting = config.correcting,
          .workers = config.compress_workers,
          .obs = config.obs}),
      rewind_(config.rewind_budget) {}

void CheckpointChain::record_capture(const CaptureStats& stats) {
  obs::Hub* hub = config_.obs;
  if (hub == nullptr) return;
  namespace on = obs::names;
  obs::MetricsRegistry& m = hub->metrics;
  m.counter(on::kCkptCheckpoints)->add();
  if (stats.kind == CheckpointKind::kFull) m.counter(on::kCkptFulls)->add();
  m.counter(on::kCkptPagesWritten)->add(stats.pages_written);
  m.counter(on::kCkptUncompressedBytes)->add(stats.uncompressed_bytes);
  m.counter(on::kCkptFileBytes)->add(stats.file_bytes);
}

bool CheckpointChain::is_full(const Config& config, std::uint64_t sequence) {
  if (sequence == 0) return true;
  // 64-bit period: full_period + 1 must not wrap to 0 at UINT32_MAX.
  const std::uint64_t period = std::uint64_t(config.full_period) + 1;
  return config.full_period > 0 && sequence % period == 0;
}

CaptureStats CheckpointChain::capture(const mem::AddressSpace& space,
                                      ByteSpan cpu_state, double app_time) {
  const std::vector<PageId> live = space.live_pages();
  const std::vector<PageId> ids =
      next_capture_is_full() ? live : space.dirty_pages();
  std::vector<delta::DirtyPage> pages;
  pages.reserve(ids.size());
  for (PageId id : ids) pages.push_back({id, space.page_bytes(id)});
  return capture_views(pages, live, cpu_state, app_time);
}

CaptureStats CheckpointChain::capture_pages(const mem::Snapshot& pages,
                                            const std::vector<PageId>& live_now,
                                            ByteSpan cpu_state,
                                            double app_time) {
  return capture_views(views_of(pages), live_now, cpu_state, app_time);
}

CaptureStats CheckpointChain::capture_views(
    const std::vector<delta::DirtyPage>& pages,
    const std::vector<PageId>& live_now, ByteSpan cpu_state,
    double app_time) {
  CheckpointFile file;
  file.sequence = next_sequence_;
  file.app_time = app_time;
  file.cpu_state.assign(cpu_state.begin(), cpu_state.end());

  CaptureStats stats;
  stats.pages_written = pages.size();
  stats.uncompressed_bytes = pages.size() * kPageSize + cpu_state.size();
  if (next_capture_is_full()) {
    AIC_CHECK_MSG(pages.size() == live_now.size(),
                  "full capture needs every live page snapshotted");
    file.kind = CheckpointKind::kFull;
    file.payload = encode_raw_pages(pages);
    stats.pages_raw = pages.size();
    accumulated_ = mem::Snapshot();
  } else {
    // The kind follows the compressor's mode: correcting payloads carry
    // cdelta records and need the v3 file magic.
    file.kind = compressor_.correcting()
                    ? CheckpointKind::kIncrementalCorrecting
                    : CheckpointKind::kIncrementalDelta;
    // Freed pages: live at the previous checkpoint, gone now.
    std::set_difference(last_live_.begin(), last_live_.end(),
                        live_now.begin(), live_now.end(),
                        std::back_inserter(file.freed_pages));
    // Encode against the previous state before any of it is dropped: a
    // moved page's source may be freed in this same checkpoint.
    delta::DeltaResult res = compressor_.compress(pages, accumulated_);
    file.payload = std::move(res.payload);
    stats.freed_pages = file.freed_pages.size();
    stats.delta_work_units = res.stats.work_units;
    stats.pages_delta = res.pages_delta;
    stats.pages_raw = res.pages_raw;
    stats.pages_same = res.pages_same;
    stats.pages_moved = res.pages_moved;
    for (PageId id : file.freed_pages) accumulated_.erase_page(id);
  }
  stats.kind = file.kind;
  stats.file_bytes = file.serialized_size();

  // Fold this checkpoint into the accumulated state so the *next* delta has
  // the right source pages.
  for (const delta::DirtyPage& page : pages)
    accumulated_.put_page(page.id, page.bytes);
  last_live_ = live_now;
  ++next_sequence_;
  files_.push_back(std::move(file));
  record_capture(stats);
  admit_to_rewind();
  return stats;
}

void CheckpointChain::admit_to_rewind() {
  if (!rewind_.active()) return;
  const CheckpointFile& f = files_.back();
  std::optional<RewindWindow::Entry> victim =
      rewind_.admit(f.sequence, f.app_time, f.serialized_size());
  if (victim.has_value()) prune_sequence(victim->sequence);
}

void CheckpointChain::prune_sequence(std::uint64_t victim_sequence) {
  std::size_t idx = files_.size();
  for (std::size_t i = 0; i < files_.size(); ++i) {
    if (files_[i].sequence == victim_sequence) {
      idx = i;
      break;
    }
  }
  // Tolerate a victim the chain no longer holds (the caller truncated or
  // rolled back under the window); the window's own accounting is already
  // updated.
  if (idx == files_.size()) return;
  AIC_CHECK_MSG(idx + 1 < files_.size(),
                "rewind window must never evict the newest checkpoint");

  PruneEvent ev;
  ev.victim_sequence = victim_sequence;
  ev.victim_bytes = files_[idx].serialized_size();

  CheckpointFile& succ = files_[idx + 1];
  if (succ.kind != CheckpointKind::kFull) {
    // The successor's deltas decode against state that includes the
    // victim, so rebuild that state BEFORE the victim goes away: replay
    // [latest full <= successor .. successor] and rewrite the successor as
    // a full checkpoint. By induction every earlier prune left a full
    // right after its gap, so the replay slice is always contiguous.
    const std::optional<std::size_t> full = latest_full(idx + 2);
    AIC_CHECK_MSG(full.has_value(), "pruned chain lost its full checkpoint");
    const std::int64_t before = std::int64_t(succ.serialized_size());
    RestartEngine::Restored restored = RestartEngine::restore(
        std::span<const CheckpointFile>(files_).subspan(*full,
                                                        idx + 2 - *full),
        compressor_.serial());
    succ.kind = CheckpointKind::kFull;
    succ.payload = encode_raw_pages(views_of(restored.memory));
    succ.freed_pages.clear();
    ev.reanchored_sequence = succ.sequence;
    ev.reanchor_growth = std::int64_t(succ.serialized_size()) - before;
  }
  files_.erase(files_.begin() + std::ptrdiff_t(idx));

  if (config_.obs != nullptr) {
    namespace on = obs::names;
    obs::MetricsRegistry& m = config_.obs->metrics;
    m.counter(on::kCkptPrunes)->add();
    m.counter(on::kCkptPruneBytes)->add(ev.victim_bytes);
    if (ev.reanchored_sequence.has_value())
      m.counter(on::kCkptReanchors)->add();
  }
  last_prune_ = ev;
}

RestartEngine::Restored CheckpointChain::restore(
    RestartEngine::Mode mode) const {
  AIC_CHECK_MSG(!files_.empty(), "no checkpoints to restore");
  return restore_at(files_.back().sequence, mode);
}

RestartEngine::Restored CheckpointChain::restore_at(
    std::uint64_t sequence, RestartEngine::Mode mode) const {
  std::size_t end = 0;
  for (std::size_t i = 0; i < files_.size(); ++i) {
    if (files_[i].sequence == sequence) {
      end = i + 1;
      break;
    }
  }
  AIC_CHECK_MSG(end > 0, "no retained checkpoint with sequence " << sequence);
  // Replay from the latest full checkpoint at or before the target.
  const std::optional<std::size_t> full = latest_full(end);
  AIC_CHECK_MSG(full.has_value(), "chain has no full checkpoint");
  return RestartEngine::restore(
      std::span<const CheckpointFile>(files_).subspan(*full, end - *full),
      compressor_.serial(), mode);
}

void CheckpointChain::rollback_to(std::uint64_t sequence) {
  while (!files_.empty() && files_.back().sequence > sequence)
    files_.pop_back();
  AIC_CHECK_MSG(!files_.empty(), "rollback removed every checkpoint");
  // Rewind derived state to the restore point.
  auto restored = restore();
  accumulated_ = std::move(restored.memory);
  last_live_ = accumulated_.page_ids();
  next_sequence_ = files_.back().sequence + 1;
  rewind_.drop_newer_than(sequence);
}

std::optional<std::size_t> CheckpointChain::latest_full(
    std::size_t end) const {
  while (end > 0) {
    if (files_[--end].kind == CheckpointKind::kFull) return end;
  }
  return std::nullopt;
}

std::uint64_t CheckpointChain::restart_chain_bytes() const {
  const std::optional<std::size_t> full = latest_full(files_.size());
  if (!full.has_value()) return 0;
  std::uint64_t total = 0;
  for (std::size_t i = *full; i < files_.size(); ++i)
    total += files_[i].serialized_size();
  return total;
}

std::uint64_t CheckpointChain::truncate_before_last_full() {
  const std::optional<std::size_t> full = latest_full(files_.size());
  // Nothing before the last full (or no full yet).
  if (!full.has_value() || *full == 0) return 0;
  std::uint64_t reclaimed = 0;
  for (std::size_t i = 0; i < *full; ++i)
    reclaimed += files_[i].serialized_size();
  files_.erase(files_.begin(), files_.begin() + *full);
  return reclaimed;
}

}  // namespace aic::ckpt
