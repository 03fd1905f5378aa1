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
