// Simulated process address space with write-protection-based dirty-page
// tracking.
//
// This is the repo's substitute for the paper's BLCR kernel module +
// mprotect() machinery (Section IV.B): at the start of each checkpoint
// interval the checkpointer "write-protects" all pages (protect_all); the
// first write to a protected page raises a simulated page fault, which (1)
// appends the page to the dirty list, (2) notifies an optional fault
// observer (the AIC hot-page sampler hooks here), and (3) unprotects the
// page so subsequent writes are free — exactly the signal-handler flow the
// paper describes.
//
// Pages are 4 KiB (common/units.h) and sparse: only allocated pages hold
// backing bytes. Page ids are virtual page numbers. Frames come from a
// FrameSlab and a page is found through an id index (common/id_index.h),
// so memory follows the live pages, not the largest id. Protection is by
// epoch: protect_all() starts a new one in O(1), and a page not touched
// in the current epoch is armed.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/id_index.h"
#include "common/slab.h"
#include "common/units.h"

namespace aic::mem {

using PageId = std::uint64_t;

/// Backing bytes of one page.
struct PageData {
  std::uint8_t bytes[kPageSize];
};

/// Small blocks keep a small image small: an in-place restore holds one
/// image plus its spare frames, and must stay near half of what an
/// out-of-place restore holds (CheckpointV3 tests pin that).
inline constexpr std::size_t kFramesPerBlock = 8;
/// The page frames of an AddressSpace or a Snapshot. Blocks never move, so
/// a view of a frame (page_bytes, find_page) stays valid until that frame
/// is released, and a store allocates once per block, not once per page.
using FrameSlab = common::Slab<PageData, kFramesPerBlock>;

/// Called on the first write to a protected page (simulated page fault).
/// Receives the faulting page id.
using FaultObserver = std::function<void(PageId)>;

class AddressSpace {
 public:
  AddressSpace() = default;

  // Move-only: pages can be large and accidental copies would be costly.
  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;
  AddressSpace(AddressSpace&&) = default;
  AddressSpace& operator=(AddressSpace&&) = default;

  /// Allocates a zero-filled page. Allocation counts as a write: the page
  /// starts dirty (a brand-new page must enter the next checkpoint).
  void allocate(PageId id);
  /// Allocates a page holding `bytes` (kPageSize of them): allocate() then
  /// write_page() without the zero fill, in one lookup.
  void allocate(PageId id, ByteSpan bytes);
  /// Allocates a page and returns its frame unfilled: allocate(id, bytes)
  /// without the copy. The caller writes all kPageSize bytes before the
  /// page is read, and may do so on another thread, so a materialize can
  /// build the index on one thread and fill the frames on several.
  std::span<std::uint8_t> allocate_unfilled(PageId id);
  /// Allocates [first, first+count).
  void allocate_range(PageId first, std::uint64_t count);
  /// Frees a page; it disappears from subsequent checkpoints.
  void free_page(PageId id);
  /// Makes room for `pages` pages (and as many dirty marks) up front.
  void reserve(std::size_t pages);

  bool contains(PageId id) const { return index_.find(id) != nullptr; }
  std::size_t page_count() const { return live_.size(); }
  std::uint64_t footprint_bytes() const { return live_.size() * kPageSize; }

  /// Read-only view of a page's bytes. Page must exist. The view stays
  /// valid until that page is freed.
  ByteSpan page_bytes(PageId id) const;

  /// Writes `data` into the page at `offset`. First write since the last
  /// protect_all() faults: marks dirty, notifies the observer, unprotects.
  void write(PageId id, std::size_t offset, ByteSpan data);

  /// Overwrites a whole page.
  void write_page(PageId id, ByteSpan data);

  /// In-place mutation helper: applies fn to the page's bytes, with dirty
  /// accounting as for write(). Used by synthetic workloads to avoid
  /// building temporary buffers.
  void mutate(PageId id, const std::function<void(std::span<std::uint8_t>)>& fn);

  /// Arms write protection on all pages and clears the dirty list; mirrors
  /// the interval-start mprotect() sweep. O(1): it starts a new epoch.
  void protect_all();

  /// Page ids dirtied (written or allocated) since the last protect_all(),
  /// sorted ascending.
  std::vector<PageId> dirty_pages() const;
  std::size_t dirty_page_count() const { return dirty_.size(); }
  bool is_dirty(PageId id) const;

  /// All live page ids, sorted ascending.
  std::vector<PageId> live_pages() const { return live_; }

  /// Observer invoked on each simulated page fault (may be empty).
  void set_fault_observer(FaultObserver observer) {
    fault_observer_ = std::move(observer);
  }

  /// Total simulated page faults since construction (diagnostics).
  std::uint64_t fault_count() const { return fault_count_; }

 private:
  /// A bucket of the id index: one live page. Page 0 is a valid id, so an
  /// empty bucket is one without a frame.
  struct Slot {
    PageId id = 0;
    PageData* frame = nullptr;
    /// The epoch in which the page was allocated or last first-written:
    /// the page is dirty while this is the current epoch, armed after.
    std::uint64_t stamp = 0;
    /// Where the page sits in dirty_ while it is dirty.
    std::size_t dirty_at = 0;

    bool empty() const { return frame == nullptr; }
  };

  /// Inserts a dirty page with an unfilled frame; throws on a double
  /// allocation. Returns the frame for the caller to fill.
  PageData* insert_page(PageId id);
  /// Marks the page dirty, faulting if it was armed; returns its frame.
  /// The observer may change the space, so `slot` is dead afterwards.
  PageData* touch(Slot& slot);

  FrameSlab frames_;
  common::IdIndex<Slot> index_;
  std::vector<PageId> live_;   // ascending
  std::vector<PageId> dirty_;  // in first-touch order
  std::uint64_t epoch_ = 0;
  FaultObserver fault_observer_;
  std::uint64_t fault_count_ = 0;
};

}  // namespace aic::mem
