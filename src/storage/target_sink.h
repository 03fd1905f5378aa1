// xfer::ObjectSink over a StorageTarget: the transfer engine hands over
// each drained object whole once its last chunk has acked, and commit()
// publishes it with one StorageTarget::put. Nothing of a drain in progress
// reaches the target, so its get()/read_seconds() (and hence
// MultiLevelStore::recover()) see only committed objects.
//
// The transfer engine has already charged every byte's wire time through
// its Channel, so commit() deliberately ignores the duration returned by
// StorageTarget::put — the put is the publication step, not a second
// transfer.
#pragma once

#include <string>
#include <utility>

#include "common/check.h"
#include "storage/storage.h"
#include "xfer/transfer.h"

namespace aic::storage {

class TargetSink final : public xfer::ObjectSink {
 public:
  explicit TargetSink(StorageTarget& target) : target_(&target) {}

  void commit(const std::string& key, Bytes object) override {
    AIC_CHECK_MSG(target_->available(),
                  "cannot commit " << key << ": target unavailable");
    (void)target_->put(key, std::move(object));
  }

 private:
  StorageTarget* target_;
};

}  // namespace aic::storage
