#include "mem/address_space.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace aic::mem {

void AddressSpace::reserve(std::size_t pages) {
  index_.reserve(pages);
  frames_.reserve(pages);
  live_.reserve(pages);
  dirty_.reserve(pages);
}

PageData* AddressSpace::insert_page(PageId id) {
  Slot& slot = index_.insert(id);
  AIC_CHECK_MSG(slot.empty(), "double allocation of page " << id);
  // A page born in this epoch is dirty but was never armed: no fault.
  slot = Slot{id, frames_.acquire(), epoch_, dirty_.size()};
  dirty_.push_back(id);
  if (live_.empty() || id > live_.back()) {
    live_.push_back(id);
  } else {
    live_.insert(std::lower_bound(live_.begin(), live_.end(), id), id);
  }
  return slot.frame;
}

void AddressSpace::allocate(PageId id) {
  std::memset(insert_page(id)->bytes, 0, kPageSize);
}

void AddressSpace::allocate(PageId id, ByteSpan bytes) {
  AIC_CHECK(bytes.size() == kPageSize);
  std::memcpy(insert_page(id)->bytes, bytes.data(), kPageSize);
}

std::span<std::uint8_t> AddressSpace::allocate_unfilled(PageId id) {
  return std::span<std::uint8_t>(insert_page(id)->bytes, kPageSize);
}

void AddressSpace::allocate_range(PageId first, std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) allocate(first + i);
}

void AddressSpace::free_page(PageId id) {
  Slot* slot = index_.find(id);
  AIC_CHECK_MSG(slot != nullptr, "freeing unmapped page " << id);
  if (slot->stamp == epoch_) {
    // Dirty: the last dirty id takes this one's place in the list.
    const PageId last = dirty_.back();
    dirty_[slot->dirty_at] = last;
    index_.find(last)->dirty_at = slot->dirty_at;
    dirty_.pop_back();
  }
  frames_.release(slot->frame);
  live_.erase(std::lower_bound(live_.begin(), live_.end(), id));
  index_.erase(*slot);
}

ByteSpan AddressSpace::page_bytes(PageId id) const {
  const Slot* slot = index_.find(id);
  AIC_CHECK_MSG(slot != nullptr, "reading unmapped page " << id);
  return ByteSpan(slot->frame->bytes, kPageSize);
}

PageData* AddressSpace::touch(Slot& slot) {
  PageData* frame = slot.frame;
  if (slot.stamp != epoch_) {
    // Armed: every page is stamped when allocated, so an older stamp means
    // the page existed at the last protect_all() and is written first now.
    const PageId id = slot.id;
    slot.stamp = epoch_;
    slot.dirty_at = dirty_.size();
    dirty_.push_back(id);
    ++fault_count_;
    if (fault_observer_) fault_observer_(id);
  }
  return frame;
}

void AddressSpace::write(PageId id, std::size_t offset, ByteSpan data) {
  Slot* slot = index_.find(id);
  AIC_CHECK_MSG(slot != nullptr, "writing unmapped page " << id);
  // Two comparisons, not offset + size: that sum wraps near SIZE_MAX.
  AIC_CHECK_MSG(offset <= kPageSize && data.size() <= kPageSize - offset,
                "write past page end");
  std::memcpy(touch(*slot)->bytes + offset, data.data(), data.size());
}

void AddressSpace::write_page(PageId id, ByteSpan data) {
  AIC_CHECK(data.size() == kPageSize);
  write(id, 0, data);
}

void AddressSpace::mutate(
    PageId id, const std::function<void(std::span<std::uint8_t>)>& fn) {
  Slot* slot = index_.find(id);
  AIC_CHECK_MSG(slot != nullptr, "mutating unmapped page " << id);
  fn(std::span<std::uint8_t>(touch(*slot)->bytes, kPageSize));
}

void AddressSpace::protect_all() {
  ++epoch_;
  dirty_.clear();
}

std::vector<PageId> AddressSpace::dirty_pages() const {
  std::vector<PageId> out = dirty_;
  std::sort(out.begin(), out.end());
  return out;
}

bool AddressSpace::is_dirty(PageId id) const {
  const Slot* slot = index_.find(id);
  return slot != nullptr && slot->stamp == epoch_;
}

}  // namespace aic::mem
