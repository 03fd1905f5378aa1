#include "mem/snapshot.h"

#include <cstring>

#include "common/check.h"

namespace aic::mem {

Snapshot Snapshot::capture(const AddressSpace& space) {
  return capture_pages(space, space.live_pages());
}

Snapshot Snapshot::capture_pages(const AddressSpace& space,
                                 const std::vector<PageId>& ids) {
  Snapshot snap;
  for (PageId id : ids) snap.put_page(id, space.page_bytes(id));
  return snap;
}

ByteSpan Snapshot::page_bytes(PageId id) const {
  auto it = pages_.find(id);
  AIC_CHECK_MSG(it != pages_.end(), "snapshot missing page " << id);
  return ByteSpan(it->second->bytes, kPageSize);
}

std::span<std::uint8_t> Snapshot::find_page(PageId id) {
  auto it = pages_.find(id);
  if (it == pages_.end()) return {};
  return std::span<std::uint8_t>(it->second->bytes, kPageSize);
}

void Snapshot::put_page(PageId id, ByteSpan bytes) {
  AIC_CHECK(bytes.size() == kPageSize);
  auto& slot = pages_[id];
  // A new frame is overwritten whole at once: no zero fill first.
  if (!slot) slot = std::make_unique_for_overwrite<PageData>();
  std::memcpy(slot->bytes, bytes.data(), kPageSize);
}

std::vector<PageId> Snapshot::page_ids() const {
  std::vector<PageId> out;
  out.reserve(pages_.size());
  for (const auto& [id, _] : pages_) out.push_back(id);
  return out;
}

void Snapshot::overlay_onto(Snapshot& base) const {
  for (const auto& [id, data] : pages_)
    base.put_page(id, ByteSpan(data->bytes, kPageSize));
}

AddressSpace Snapshot::materialize() const {
  AddressSpace space;
  space.reserve(pages_.size());
  for (const auto& [id, data] : pages_)
    space.allocate(id, ByteSpan(data->bytes, kPageSize));
  return space;
}

bool Snapshot::equals_space(const AddressSpace& space) const {
  if (space.page_count() != pages_.size()) return false;
  for (const auto& [id, data] : pages_) {
    if (!space.contains(id)) return false;
    ByteSpan live = space.page_bytes(id);
    if (std::memcmp(live.data(), data->bytes, kPageSize) != 0) return false;
  }
  return true;
}

}  // namespace aic::mem
