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
// backing bytes. Page ids are virtual page numbers.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/units.h"

namespace aic::mem {

using PageId = std::uint64_t;

/// Backing bytes of one page.
struct PageData {
  std::uint8_t bytes[kPageSize];
};

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
  /// Allocates [first, first+count).
  void allocate_range(PageId first, std::uint64_t count);
  /// Frees a page; it disappears from subsequent checkpoints.
  void free_page(PageId id);
  /// Makes room for `pages` pages (and as many dirty marks) up front.
  void reserve(std::size_t pages) {
    pages_.reserve(pages);
    dirty_.reserve(pages);
  }

  bool contains(PageId id) const { return pages_.contains(id); }
  std::size_t page_count() const { return pages_.size(); }
  std::uint64_t footprint_bytes() const { return pages_.size() * kPageSize; }

  /// Read-only view of a page's bytes. Page must exist.
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
  /// the interval-start mprotect() sweep.
  void protect_all();

  /// Page ids dirtied (written or allocated) since the last protect_all(),
  /// sorted ascending.
  std::vector<PageId> dirty_pages() const;
  std::size_t dirty_page_count() const { return dirty_.size(); }
  bool is_dirty(PageId id) const { return dirty_.contains(id); }

  /// All live page ids, sorted ascending.
  std::vector<PageId> live_pages() const;

  /// Observer invoked on each simulated page fault (may be empty).
  void set_fault_observer(FaultObserver observer) {
    fault_observer_ = std::move(observer);
  }

  /// Total simulated page faults since construction (diagnostics).
  std::uint64_t fault_count() const { return fault_count_; }

 private:
  struct Entry {
    std::unique_ptr<PageData> data;
    bool protected_ = false;  // armed for fault-on-write
  };

  /// Inserts an unprotected page with uninitialized bytes; throws on a
  /// double allocation. The caller fills the bytes and touches the page.
  Entry& insert_page(PageId id);
  /// Marks the page dirty, firing the fault observer if it was protected.
  void touch(PageId id, Entry& entry);

  std::unordered_map<PageId, Entry> pages_;
  std::unordered_map<PageId, bool> dirty_;  // used as a set
  FaultObserver fault_observer_;
  std::uint64_t fault_count_ = 0;
};

}  // namespace aic::mem
