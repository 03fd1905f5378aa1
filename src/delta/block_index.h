// The greedy coder's block index and its miss scan.
//
// BlockIndex maps the weak digest of every block-aligned source block to
// the blocks that have it. A slot maps a digest to the first block of its
// chain; each block links to the next one with the same digest, in
// ascending offset order — the order max_probes cuts candidates in, so
// the table's layout never changes which candidates are tried. In front
// of the table sits a filter of four one-byte entries per slot (8 to 16
// per block), keyed by a 32-bit multiplicative hash of the digest: its
// top bits pick the entry and the eight bits below them, low bit set,
// are the digest's tag. An entry is 0 if no block hashes to it, the tag
// if every block that does shares one, and kShared, which passes every
// digest, if two tags meet there. About 1 in 100 windows whose digest
// no block has passes. The filter takes what a bitmap of 32 bits per
// slot would: 1 KiB for a page, 256 KiB for 8 MiB of 256-byte blocks,
// so its random loads stay in cache far past a page. The index is
// rebuilt in place for every encode and kept per thread, so
// steady-state encoding allocates nothing.
//
// scan_misses walks a run of windows that no block matches. On x86-64 it
// takes eight windows per step in 16-bit SSE2 lanes: for windows
// pos+1..pos+8 the prefix sum of (in - out) moves a, the prefix sum of
// (that - bs * out) plus a * (1..8) moves b, and a and b ride along as
// broadcasts of the group's last lane. Each lane's digest is hashed in
// the registers, its entry's byte is loaded into a lane, and one compare
// with the tags, one with kShared and a movemask test the group; only
// the lanes that pass are looked up, first to last. A filter hit whose
// digest no block has is settled inside the scan, so the caller sees
// only windows a block may match. Such a window costs one work unit
// either way, so neither the filter's hash, its size nor its false
// positives can move a byte or a unit of the coder's output. The
// per-byte roll is the portable path and the test reference.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "delta/rolling_hash.h"

namespace aic::delta::detail {

class BlockIndex {
 public:
  static constexpr std::uint32_t kNone = 0xFFFFFFFFu;
  /// Multiplier of the filter's hash (the 32-bit golden ratio).
  static constexpr std::uint32_t kFilterMul = 0x9E3779B1u;

  /// The filter entry two tags meet in: it passes every digest.
  static constexpr std::uint8_t kShared = 0xFF;

  /// Indexes every whole block of `source`.
  void rebuild(ByteSpan source, std::size_t block_size);

  /// False only if no block has digest `weak`.
  bool may_contain(std::uint32_t weak) const {
    const std::uint32_t h = weak * kFilterMul;
    const std::uint8_t entry = filter_[h >> filter_shift_];
    return entry == tag_of(h) || entry == kShared;
  }

  /// Lowest block with digest `weak`, or kNone.
  std::uint32_t first(std::uint32_t weak) const {
    return slots_[slot_of(weak)].head;
  }

  /// Next block after `block` with the same digest, or kNone.
  std::uint32_t next(std::uint32_t block) const { return next_[block]; }

  /// True iff some block has digest `weak`.
  bool contains(std::uint32_t weak) const {
    return may_contain(weak) && first(weak) != kNone;
  }

  /// The filter's bytes, indexed by (weak * kFilterMul) >> filter_shift().
  const std::uint8_t* filter() const { return filter_.data(); }
  unsigned filter_shift() const { return filter_shift_; }
  /// A digest's tag: the low byte of ((weak * kFilterMul) >>
  /// tag_shift()) | 1.
  unsigned tag_shift() const { return tag_shift_; }

  /// Heap bytes the index holds, capacity included.
  std::size_t memory_bytes() const {
    return slots_.capacity() * sizeof(Slot) + filter_.capacity() +
           next_.capacity() * sizeof(std::uint32_t);
  }

 private:
  static constexpr unsigned kMinSlotBits = 6;

  struct Slot {
    std::uint32_t digest = 0;
    std::uint32_t head = kNone;  // kNone marks an empty slot
  };

  std::uint8_t tag_of(std::uint32_t h) const {
    return std::uint8_t(h >> tag_shift_) | 1;
  }

  /// The slot holding `weak`, or the empty slot that ends its probe run.
  std::size_t slot_of(std::uint32_t weak) const {
    std::size_t i = (std::uint64_t(weak) * 0x9E3779B97F4A7C15ull) >>
                    slot_shift_;
    while (slots_[i].head != kNone && slots_[i].digest != weak)
      i = (i + 1) & (slots_.size() - 1);
    return i;
  }

  std::vector<Slot> slots_;
  std::vector<std::uint8_t> filter_;
  std::vector<std::uint32_t> next_;
  unsigned slot_shift_ = 0;
  unsigned filter_shift_ = 0;
  unsigned tag_shift_ = 0;
};

/// From window `pos` of `target`, whose sums `rh` holds, finds the first
/// window at or after `pos` whose digest some block of `index` has, or
/// the last window (target.size() - rh.window()) if none has; leaves
/// that window's sums in `rh` and returns its position. `pos` must not
/// be past the last window. The per-byte roll: the portable path.
std::size_t scan_misses_portable(const BlockIndex& index, ByteSpan target,
                                 std::size_t pos, RollingHash& rh);

#if defined(__x86_64__)
/// scan_misses_portable eight windows per step. The sums it leaves in
/// `rh` are exact mod 2^16, all that digest() and roll() need.
std::size_t scan_misses_sse2(const BlockIndex& index, ByteSpan target,
                             std::size_t pos, RollingHash& rh);
#endif

/// The scan the coder runs: SSE2 on x86-64, per byte elsewhere.
inline std::size_t scan_misses(const BlockIndex& index, ByteSpan target,
                               std::size_t pos, RollingHash& rh) {
#if defined(__x86_64__)
  return scan_misses_sse2(index, target, pos, rh);
#else
  return scan_misses_portable(index, target, pos, rh);
#endif
}

}  // namespace aic::delta::detail
