// xfer::ChunkSink over a StorageTarget: staged partials live in a
// side buffer owned by the sink, so nothing is visible to the target's
// get()/read_seconds() (and hence to MultiLevelStore::recover()) until
// commit() publishes the completed object with one atomic put.
//
// The transfer engine has already charged every byte's wire time through
// its Channel, so commit() deliberately ignores the duration returned by
// StorageTarget::put — the put is the publication step, not a second
// transfer.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "storage/storage.h"
#include "xfer/transfer.h"

namespace aic::storage {

class StagedTargetSink final : public xfer::ChunkSink {
 public:
  explicit StagedTargetSink(StorageTarget& target)
      : target_(&target) {}

  /// Reserves the object's full size on its first chunk; an in-order
  /// chunk appends, a retry overwrites what a partial write left.
  void stage(const std::string& key, std::uint64_t offset, ByteSpan chunk,
             std::uint64_t total_bytes) override;
  std::uint64_t staged_bytes(const std::string& key) const override;
  void commit(const std::string& key) override;
  void discard(const std::string& key) override;

  /// In-progress partials (key -> staged bytes so far); exposed so tests
  /// and diagnostics can observe what a mid-drain failure left behind.
  const std::map<std::string, Bytes>& staging() const { return staging_; }
  std::size_t partial_count() const { return staging_.size(); }

 private:
  StorageTarget* target_;
  std::map<std::string, Bytes> staging_;
};

}  // namespace aic::storage
