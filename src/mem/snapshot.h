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

  /// Makes room for `pages` pages, frames included, so that putting that
  /// many allocates nothing. A parallel restore sizes each range's
  /// snapshot this way on the calling thread: glibc keeps a freed block in
  /// the arena of the thread that allocated it, and frames taken on pool
  /// threads would spread the image over their arenas.
  void reserve(std::size_t pages);

  /// Inserts or replaces a page image.
  void put_page(PageId id, ByteSpan bytes);

  /// Removes a page image if present.
  void erase_page(PageId id);

  /// Sorted ids of all captured pages.
  std::vector<PageId> page_ids() const;

  /// Joins snapshots of disjoint id ranges, given in ascending id order,
  /// into one. Each part's frame blocks are adopted where they sit, so no
  /// page is copied; the parts are left empty. A parallel restore replays
  /// each range into its own part and splices them.
  static Snapshot splice(std::span<Snapshot> parts);

  /// Applies this snapshot on top of another (later pages win); used when
  /// replaying a full checkpoint followed by increments.
  void overlay_onto(Snapshot& base) const;

  /// Materializes a fresh AddressSpace equal to this snapshot. The
  /// calling thread builds the space's index, live list and dirty list;
  /// the frames are copied by page range on the restore pool
  /// (common/restore_pool.h) when it is running and the image is large,
  /// and on the calling thread otherwise. It never starts the pool: a
  /// materialize outside a restart copies on the calling thread.
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
  FrameSlab frames_;
};

}  // namespace aic::mem
