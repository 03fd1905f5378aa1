// Page frames: the one backing store of AddressSpace and Snapshot.
//
// Frames live in small fixed blocks that never move, so a view of a frame
// (AddressSpace::page_bytes, Snapshot::find_page) stays valid until that
// frame is released, whatever else is inserted or erased meanwhile.
// Released frames are handed out again before a new block is taken, so
// memory follows the peak number of frames held, never the page ids kept
// in them, and a store allocates once per block, not once per page.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/units.h"

namespace aic::mem {

/// Backing bytes of one page.
struct PageData {
  std::uint8_t bytes[kPageSize];
};

class FrameStore {
 public:
  /// Small blocks keep a small image small: an in-place restore holds
  /// one image plus its spare frames, and must stay near half of what an
  /// out-of-place restore holds (CheckpointV3 tests pin that).
  static constexpr std::size_t kFramesPerBlock = 8;

  /// A frame whose bytes are unspecified; the caller fills it.
  PageData* acquire() {
    if (!free_.empty()) {
      PageData* frame = free_.back();
      free_.pop_back();
      return frame;
    }
    if (blocks_.empty() || unused_ == 0) {
      blocks_.push_back(std::make_unique_for_overwrite<Block>());
      unused_ = kFramesPerBlock;
    }
    return &blocks_.back()->frames[kFramesPerBlock - unused_--];
  }

  /// Returns a frame for reuse; views of it are invalid from here on.
  void release(PageData* frame) { free_.push_back(frame); }

  /// Makes room to hold `frames` frames without growing the block list.
  void reserve(std::size_t frames) {
    blocks_.reserve((frames + kFramesPerBlock - 1) / kFramesPerBlock);
  }

 private:
  /// One allocation through scalar operator new, which the tests' heap
  /// guard sees under every build (the sanitizers' array new bypasses it).
  struct Block {
    PageData frames[kFramesPerBlock];
  };

  std::vector<std::unique_ptr<Block>> blocks_;
  std::vector<PageData*> free_;
  /// Frames of the newest block not handed out yet.
  std::size_t unused_ = 0;
};

}  // namespace aic::mem
