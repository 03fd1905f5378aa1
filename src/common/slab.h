// Objects handed out from fixed blocks that never move, so a pointer into
// one stays valid until that object is released. Released objects come
// back, the last released first, before a block is used further or taken,
// so memory follows the peak number held. Each block is one scalar `new`,
// which the tests' heap guard sees under every build (the sanitizers'
// array new bypasses it). Objects are default-initialized with their
// block and destroyed with the slab; acquire() and release() construct
// and reset nothing.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

namespace aic::common {

template <class T, std::size_t kPerBlock>
class Slab {
 public:
  T* acquire() {
    if (!free_.empty()) {
      T* object = free_.back();
      free_.pop_back();
      return object;
    }
    if (blocks_.empty() || unused_ == 0) {  // empty after a move, too
      blocks_.push_back(std::make_unique_for_overwrite<Block>());
      unused_ = kPerBlock;
    }
    return &blocks_.back()->objects[kPerBlock - unused_--];
  }

  /// Returns an object for reuse; views of it are invalid from here on.
  void release(T* object) { free_.push_back(object); }

  /// Makes room to hold `objects` objects without growing the block list.
  void reserve(std::size_t objects) {
    blocks_.reserve((objects + kPerBlock - 1) / kPerBlock);
  }

  /// Objects in the blocks taken so far, handed out or not.
  std::size_t capacity() const { return blocks_.size() * kPerBlock; }

  /// Takes over every block of `other`, which is left empty. Its objects
  /// do not move, so pointers to them stay valid and belong to this slab
  /// from here on; its released objects and the unused rest of its newest
  /// block are handed out here later, as are this slab's own.
  void adopt(Slab& other) {
    if (other.blocks_.empty()) return;
    if (!blocks_.empty()) {
      // Only the newest block hands out fresh objects, and other's newest
      // is about to be it: this one's unused rest goes to the free list.
      for (; unused_ > 0; --unused_)
        free_.push_back(&blocks_.back()->objects[kPerBlock - unused_]);
    }
    for (auto& block : other.blocks_) blocks_.push_back(std::move(block));
    free_.insert(free_.end(), other.free_.begin(), other.free_.end());
    unused_ = other.unused_;
    other.blocks_.clear();
    other.free_.clear();
    other.unused_ = 0;
  }

  /// Calls fn on every object of every block, handed out or not.
  template <class Fn>
  void for_each(Fn&& fn) const {
    for (const auto& block : blocks_) {
      for (const T& object : block->objects) fn(object);
    }
  }

 private:
  struct Block {
    T objects[kPerBlock];
  };

  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<T*> free_;
  /// Objects of the newest block not handed out yet.
  std::size_t unused_ = 0;
};

}  // namespace aic::common
