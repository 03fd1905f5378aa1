#include "storage/staged_sink.h"

#include <algorithm>

#include "common/check.h"

namespace aic::storage {

void StagedTargetSink::stage(const std::string& key, std::uint64_t offset,
                             ByteSpan chunk, std::uint64_t total_bytes) {
  Bytes& buf = staging_[key];
  if (buf.capacity() < total_bytes) buf.reserve(std::size_t(total_bytes));
  const std::size_t at = std::size_t(offset);
  if (buf.size() < at) buf.resize(at);  // a gap reads as zeros
  const std::size_t overlap = std::min(chunk.size(), buf.size() - at);
  std::copy_n(chunk.begin(), overlap, buf.begin() + std::ptrdiff_t(at));
  buf.insert(buf.end(), chunk.begin() + std::ptrdiff_t(overlap), chunk.end());
}

std::uint64_t StagedTargetSink::staged_bytes(const std::string& key) const {
  auto it = staging_.find(key);
  return it == staging_.end() ? 0 : it->second.size();
}

void StagedTargetSink::commit(const std::string& key) {
  auto it = staging_.find(key);
  AIC_CHECK_MSG(it != staging_.end(), "commit of unstaged object " << key);
  AIC_CHECK_MSG(target_->available(),
                "commit to unavailable target " << target_->name()
                                                << " for " << key);
  // Publication, not transfer: wire time was charged chunk by chunk.
  (void)target_->put(key, std::move(it->second));
  staging_.erase(it);
}

void StagedTargetSink::discard(const std::string& key) {
  staging_.erase(key);
}

}  // namespace aic::storage
