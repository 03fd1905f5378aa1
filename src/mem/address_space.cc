#include "mem/address_space.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace aic::mem {

AddressSpace::Entry& AddressSpace::insert_page(PageId id) {
  auto [it, inserted] =
      pages_.try_emplace(id, Entry{std::make_unique_for_overwrite<PageData>()});
  AIC_CHECK_MSG(inserted, "double allocation of page " << id);
  return it->second;
}

void AddressSpace::allocate(PageId id) {
  Entry& entry = insert_page(id);
  std::memset(entry.data->bytes, 0, kPageSize);
  // A freshly allocated page must appear in the next checkpoint.
  touch(id, entry);
}

void AddressSpace::allocate(PageId id, ByteSpan bytes) {
  AIC_CHECK(bytes.size() == kPageSize);
  Entry& entry = insert_page(id);
  std::memcpy(entry.data->bytes, bytes.data(), kPageSize);
  touch(id, entry);
}

void AddressSpace::allocate_range(PageId first, std::uint64_t count) {
  for (std::uint64_t i = 0; i < count; ++i) allocate(first + i);
}

void AddressSpace::free_page(PageId id) {
  AIC_CHECK_MSG(pages_.erase(id) == 1, "freeing unmapped page " << id);
  dirty_.erase(id);
}

ByteSpan AddressSpace::page_bytes(PageId id) const {
  auto it = pages_.find(id);
  AIC_CHECK_MSG(it != pages_.end(), "reading unmapped page " << id);
  return ByteSpan(it->second.data->bytes, kPageSize);
}

void AddressSpace::touch(PageId id, Entry& entry) {
  if (entry.protected_) {
    entry.protected_ = false;
    ++fault_count_;
    if (fault_observer_) fault_observer_(id);
  }
  dirty_.emplace(id, true);
}

void AddressSpace::write(PageId id, std::size_t offset, ByteSpan data) {
  auto it = pages_.find(id);
  AIC_CHECK_MSG(it != pages_.end(), "writing unmapped page " << id);
  AIC_CHECK_MSG(offset + data.size() <= kPageSize, "write past page end");
  touch(id, it->second);
  std::memcpy(it->second.data->bytes + offset, data.data(), data.size());
}

void AddressSpace::write_page(PageId id, ByteSpan data) {
  AIC_CHECK(data.size() == kPageSize);
  write(id, 0, data);
}

void AddressSpace::mutate(
    PageId id, const std::function<void(std::span<std::uint8_t>)>& fn) {
  auto it = pages_.find(id);
  AIC_CHECK_MSG(it != pages_.end(), "mutating unmapped page " << id);
  touch(id, it->second);
  fn(std::span<std::uint8_t>(it->second.data->bytes, kPageSize));
}

void AddressSpace::protect_all() {
  for (auto& [id, entry] : pages_) entry.protected_ = true;
  dirty_.clear();
}

std::vector<PageId> AddressSpace::dirty_pages() const {
  std::vector<PageId> out;
  out.reserve(dirty_.size());
  for (const auto& [id, _] : dirty_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<PageId> AddressSpace::live_pages() const {
  std::vector<PageId> out;
  out.reserve(pages_.size());
  for (const auto& [id, _] : pages_) out.push_back(id);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace aic::mem
