#include "mem/snapshot.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"
#include "common/thread_pool.h"

namespace aic::mem {
namespace {

constexpr auto kById = [](const auto& page, PageId id) { return page.id < id; };

}  // namespace

Snapshot Snapshot::capture(const AddressSpace& space) {
  return capture_pages(space, space.live_pages());
}

Snapshot Snapshot::capture_pages(const AddressSpace& space,
                                 const std::vector<PageId>& ids) {
  Snapshot snap;
  snap.pages_.reserve(ids.size());
  snap.frames_.reserve(ids.size());
  for (PageId id : ids) snap.put_page(id, space.page_bytes(id));
  return snap;
}

const Snapshot::Page* Snapshot::find(PageId id) const {
  auto it = std::lower_bound(pages_.begin(), pages_.end(), id, kById);
  return it != pages_.end() && it->id == id ? &*it : nullptr;
}

ByteSpan Snapshot::page_bytes(PageId id) const {
  const Page* page = find(id);
  AIC_CHECK_MSG(page != nullptr, "snapshot missing page " << id);
  return ByteSpan(page->frame->bytes, kPageSize);
}

std::span<std::uint8_t> Snapshot::find_page(PageId id) {
  const Page* page = find(id);
  if (page == nullptr) return {};
  return std::span<std::uint8_t>(page->frame->bytes, kPageSize);
}

void Snapshot::reserve(std::size_t pages) {
  pages_.reserve(pages);
  frames_.reserve(pages);
  // Take the frames and hand them back, the first taken last, so that the
  // puts get them in address order.
  std::vector<PageData*> taken(pages);
  for (PageData*& frame : taken) frame = frames_.acquire();
  for (auto it = taken.rbegin(); it != taken.rend(); ++it)
    frames_.release(*it);
}

void Snapshot::put_page(PageId id, ByteSpan bytes) {
  AIC_CHECK(bytes.size() == kPageSize);
  auto it = pages_.end();
  if (!pages_.empty() && id <= pages_.back().id) {
    it = std::lower_bound(pages_.begin(), pages_.end(), id, kById);
    if (it->id == id) {
      std::memcpy(it->frame->bytes, bytes.data(), kPageSize);
      return;
    }
  }
  PageData* frame = frames_.acquire();
  std::memcpy(frame->bytes, bytes.data(), kPageSize);
  pages_.insert(it, Page{id, frame});
}

void Snapshot::erase_page(PageId id) {
  auto it = std::lower_bound(pages_.begin(), pages_.end(), id, kById);
  if (it == pages_.end() || it->id != id) return;
  frames_.release(it->frame);
  pages_.erase(it);
}

std::vector<PageId> Snapshot::page_ids() const {
  std::vector<PageId> out;
  out.reserve(pages_.size());
  for (const Page& page : pages_) out.push_back(page.id);
  return out;
}

Snapshot Snapshot::splice(std::span<Snapshot> parts) {
  Snapshot out;
  std::size_t total = 0;
  for (const Snapshot& part : parts) total += part.pages_.size();
  out.pages_.reserve(total);
  for (Snapshot& part : parts) {
    if (part.pages_.empty()) continue;
    AIC_CHECK_MSG(out.pages_.empty() ||
                      out.pages_.back().id < part.pages_.front().id,
                  "spliced snapshot parts overlap at page "
                      << part.pages_.front().id);
    out.pages_.insert(out.pages_.end(), part.pages_.begin(),
                      part.pages_.end());
    out.frames_.adopt(part.frames_);
    part.pages_.clear();
  }
  return out;
}

void Snapshot::overlay_onto(Snapshot& base) const {
  // Pass 1 overwrites the pages base already holds and counts the rest.
  std::size_t fresh = 0;
  auto pos = base.pages_.begin();
  for (const Page& page : pages_) {
    pos = std::lower_bound(pos, base.pages_.end(), page.id, kById);
    if (pos != base.pages_.end() && pos->id == page.id) {
      std::memcpy(pos->frame->bytes, page.frame->bytes, kPageSize);
    } else {
      ++fresh;
    }
  }
  if (fresh == 0) return;
  // Pass 2 merges the new pages in from the back, so each entry moves
  // once however the two id ranges interleave.
  std::vector<Page>& out = base.pages_;
  std::size_t i = out.size();
  std::size_t j = pages_.size();
  out.resize(out.size() + fresh);
  for (std::size_t k = out.size(); j > 0;) {
    const Page& page = pages_[j - 1];
    if (i > 0 && out[i - 1].id >= page.id) {
      if (out[i - 1].id == page.id) --j;  // overwritten in pass 1
      out[--k] = out[--i];
    } else {
      PageData* frame = base.frames_.acquire();
      std::memcpy(frame->bytes, page.frame->bytes, kPageSize);
      out[--k] = Page{page.id, frame};
      --j;
    }
  }
}

AddressSpace Snapshot::materialize() const {
  AddressSpace space;
  space.reserve(pages_.size());
  // A replay's split (common::restore_page_split), so that a restore too
  // small to split materializes on the calling thread too.
  const common::PageSplit split =
      common::pool_threads() > 0 ? common::restore_page_split(pages_.size())
                                 : common::PageSplit{};
  if (split.participants <= 1) {
    for (const Page& page : pages_)
      space.allocate(page.id, ByteSpan(page.frame->bytes, kPageSize));
    return space;
  }
  std::vector<std::uint8_t*> frames;
  frames.reserve(pages_.size());
  for (const Page& page : pages_)
    frames.push_back(space.allocate_unfilled(page.id).data());
  const std::size_t n = pages_.size(), ranges = split.ranges;
  common::parallel_for(ranges, split.participants, [&](std::size_t r) {
    const std::size_t lo = r * n / ranges, hi = (r + 1) * n / ranges;
    for (std::size_t i = lo; i < hi; ++i)
      std::memcpy(frames[i], pages_[i].frame->bytes, kPageSize);
  });
  return space;
}

bool Snapshot::equals_space(const AddressSpace& space) const {
  if (space.page_count() != pages_.size()) return false;
  for (const Page& page : pages_) {
    if (!space.contains(page.id)) return false;
    ByteSpan live = space.page_bytes(page.id);
    if (std::memcmp(live.data(), page.frame->bytes, kPageSize) != 0)
      return false;
  }
  return true;
}

}  // namespace aic::mem
