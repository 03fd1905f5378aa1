// Point-in-time page images of an AddressSpace.
//
// A Snapshot is the in-memory form of "the previous checkpoint's pages":
// the delta compressor differences current pages against it, and the
// restart engine materializes an AddressSpace from one. It owns copies of
// page bytes, so it stays valid while the live space keeps mutating.
#pragma once

#include <span>
#include <vector>

#include "common/bytes.h"
#include "mem/address_space.h"
#include "mem/frame_store.h"

namespace aic::mem {

class Snapshot {
 public:
  Snapshot() = default;

  /// Captures all live pages of the space.
  static Snapshot capture(const AddressSpace& space);

  /// Captures only the given pages (which must all exist).
  static Snapshot capture_pages(const AddressSpace& space,
                                const std::vector<PageId>& ids);

  bool contains(PageId id) const { return find(id) != nullptr; }
  std::size_t page_count() const { return pages_.size(); }

  /// Page image bytes; page must be present. Like every view of a frame,
  /// it stays valid until that page is erased.
  ByteSpan page_bytes(PageId id) const;

  /// Writable view of a page's image, empty when the page is absent — one
  /// lookup for the in-place restore path, which rewrites page frames
  /// where they sit instead of building a second snapshot.
  std::span<std::uint8_t> find_page(PageId id);

  /// Inserts or replaces a page image.
  void put_page(PageId id, ByteSpan bytes);

  /// Removes a page image if present.
  void erase_page(PageId id);

  /// Sorted ids of all captured pages.
  std::vector<PageId> page_ids() const;

  /// Applies this snapshot on top of another (later pages win); used when
  /// replaying a full checkpoint followed by increments.
  void overlay_onto(Snapshot& base) const;

  /// Materializes a fresh AddressSpace equal to this snapshot.
  AddressSpace materialize() const;

  /// Byte-for-byte equality with a live address space (test helper).
  bool equals_space(const AddressSpace& space) const;

 private:
  struct Page {
    PageId id;
    PageData* frame;
  };

  /// The page with this id, or nullptr. Const lookups only read: the
  /// parallel compressor's shards share one Snapshot across threads.
  const Page* find(PageId id) const;

  /// Ascending ids with their frames: the order of iteration and of every
  /// payload serialized from a snapshot. Ids arriving in ascending order
  /// append; an id inserted below the largest shifts the entries above it.
  std::vector<Page> pages_;
  FrameStore frames_;
};

}  // namespace aic::mem
