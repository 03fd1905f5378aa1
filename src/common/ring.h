// The last `capacity` items pushed: push appends until the ring is full,
// then overwrites the oldest item in place, so the ring allocates once, at
// construction, and never again. It counts every push, evicted or not, and
// hands its items out oldest first. It takes no lock; an owner shared
// between threads guards its ring with its own mutex. The capacity must be
// at least 1, which each owner checks (or clamps) in its own terms.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace aic::common {

template <class T>
class Ring {
 public:
  explicit Ring(std::size_t capacity) : capacity_(capacity) {
    items_.reserve(capacity);
  }

  void push(const T& item) { emplace(item); }
  void push(T&& item) { emplace(std::move(item)); }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }
  /// Items pushed over the ring's life (>= size()).
  std::uint64_t pushed() const { return pushed_; }

  /// The most recent item; the ring must not be empty.
  const T& newest() const {
    return items_[(oldest_ == 0 ? items_.size() : oldest_) - 1];
  }

  /// Calls fn on every item, oldest first.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (std::size_t i = oldest_; i < items_.size(); ++i) fn(items_[i]);
    for (std::size_t i = 0; i < oldest_; ++i) fn(items_[i]);
  }

  /// A copy of the items, oldest first.
  std::vector<T> items() const {
    std::vector<T> out;
    out.reserve(items_.size());
    for_each([&out](const T& item) { out.push_back(item); });
    return out;
  }

 private:
  template <class U>
  void emplace(U&& item) {
    ++pushed_;
    if (items_.size() < capacity_) {
      items_.push_back(std::forward<U>(item));
      return;
    }
    items_[oldest_] = std::forward<U>(item);
    if (++oldest_ == capacity_) oldest_ = 0;
  }

  std::size_t capacity_;
  std::vector<T> items_;
  /// Index of the oldest item, the next one overwritten; 0 until full.
  std::size_t oldest_ = 0;
  std::uint64_t pushed_ = 0;
};

}  // namespace aic::common
