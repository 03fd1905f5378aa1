// Open-addressed index from 64-bit ids to slots stored inline: a power of
// two buckets, at least 16 and at most half full, Fibonacci-hashed homes
// (id * 0x9E3779B97F4A7C15) >> shift, linear probing and backward-shift
// erase (no tombstones).
//
// The caller's Slot is the bucket: a public `id`, its payload beside it,
// and `empty()`, true for a value-initialized Slot. So each caller says
// what empty means (no frame when id 0 is valid, id 0 when it is not). A
// slot may move on any insert (growth) or erase: hold none across one.
#pragma once

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace aic::common {

template <class Slot>
class IdIndex {
 public:
  std::size_t size() const { return size_; }
  /// 0 before the first insert or reserve, else a power of two >= 16.
  std::size_t buckets() const { return slots_.size(); }

  Slot* find(std::uint64_t id) {
    return const_cast<Slot*>(std::as_const(*this).find(id));
  }
  const Slot* find(std::uint64_t id) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(id);; i = next(i)) {
      if (slots_[i].empty()) return nullptr;
      if (slots_[i].id == id) return &slots_[i];
    }
  }

  /// The slot holding `id`, or else the empty slot where `id` goes, which
  /// counts as taken: the caller fills it, id included, before the next
  /// insert or erase. Grows first when one more id would fill more than
  /// half the buckets.
  Slot& insert(std::uint64_t id) {
    if (2 * (size_ + 1) > slots_.size()) reserve(size_ + 1);
    std::size_t i = home(id);
    while (!slots_[i].empty() && slots_[i].id != id) i = next(i);
    if (slots_[i].empty()) ++size_;
    return slots_[i];
  }

  /// Empties `slot`, which must be a taken slot of this index. A later
  /// slot of its probe run moves into the hole unless that would put it
  /// before its home.
  void erase(Slot& slot) {
    const std::size_t mask = slots_.size() - 1;
    std::size_t hole = std::size_t(&slot - slots_.data());
    for (std::size_t i = next(hole); !slots_[i].empty(); i = next(i)) {
      if (((i - home(slots_[i].id)) & mask) >= ((i - hole) & mask)) {
        slots_[hole] = slots_[i];
        hole = i;
      }
    }
    slots_[hole] = Slot{};
    --size_;
  }

  /// Sizes the buckets to hold `ids` ids at most half full. Never shrinks.
  void reserve(std::size_t ids) {
    const std::size_t buckets =
        std::bit_ceil(std::max<std::size_t>(16, 2 * ids));
    if (slots_.size() >= buckets) return;
    std::vector<Slot> old = std::exchange(slots_, std::vector<Slot>(buckets));
    shift_ = 64 - std::countr_zero(buckets);
    for (const Slot& s : old) {
      if (s.empty()) continue;
      std::size_t i = home(s.id);
      while (!slots_[i].empty()) i = next(i);
      slots_[i] = s;
    }
  }

 private:
  std::size_t home(std::uint64_t id) const {
    return std::size_t((id * 0x9E3779B97F4A7C15ull) >> shift_);
  }
  std::size_t next(std::size_t i) const {
    return (i + 1) & (slots_.size() - 1);
  }

  std::vector<Slot> slots_;
  int shift_ = 64;  // 64 - log2(slots_.size())
  std::size_t size_ = 0;
};

}  // namespace aic::common
