#include "storage/storage.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"

namespace aic::storage {

double transfer_seconds(std::uint64_t bytes, double bandwidth_bps,
                        double latency_s) {
  AIC_CHECK_MSG(std::isfinite(bandwidth_bps) && bandwidth_bps > 0.0,
                "bandwidth must be positive and finite, got "
                    << bandwidth_bps);
  AIC_CHECK_MSG(std::isfinite(latency_s) && latency_s >= 0.0,
                "latency must be non-negative and finite, got " << latency_s);
  return latency_s + double(bytes) / bandwidth_bps;
}

// ---------- StorageTarget ----------

std::optional<Bytes> StorageTarget::get(const std::string& key) const {
  const std::optional<std::uint64_t> size = object_size(key);
  if (!size.has_value()) return std::nullopt;
  Bytes out(*size);
  read_range(key, 0, out);
  return out;
}

// ---------- MemoryTarget ----------

MemoryTarget::MemoryTarget(double bandwidth_bps, double latency_s)
    : bandwidth_(bandwidth_bps), latency_(latency_s) {
  AIC_CHECK(bandwidth_bps > 0.0);
}

double MemoryTarget::put(const std::string& key, Bytes data) {
  AIC_CHECK_MSG(!failed_, "write to failed storage target");
  const double t = transfer_seconds(data.size(), bandwidth_, latency_);
  objects_[key] = std::move(data);
  return t;
}

double MemoryTarget::read_seconds(const std::string& key) const {
  auto it = objects_.find(key);
  AIC_CHECK_MSG(!failed_ && it != objects_.end(),
                "read_seconds on missing object " << key);
  return transfer_seconds(it->second.size(), bandwidth_, latency_);
}

bool MemoryTarget::erase(const std::string& key) {
  return objects_.erase(key) > 0;
}

std::uint64_t MemoryTarget::stored_bytes() const {
  std::uint64_t total = 0;
  for (const auto& [k, v] : objects_) total += v.size();
  return total;
}

std::optional<std::uint64_t> MemoryTarget::object_size(
    const std::string& key) const {
  if (failed_) return std::nullopt;
  auto it = objects_.find(key);
  if (it == objects_.end()) return std::nullopt;
  return it->second.size();
}

void MemoryTarget::read_range(const std::string& key, std::uint64_t offset,
                              std::span<std::uint8_t> out) const {
  auto it = objects_.find(key);
  AIC_CHECK_MSG(!failed_ && it != objects_.end(),
                "read_range on missing object " << key);
  const Bytes& object = it->second;
  AIC_CHECK_MSG(offset <= object.size() && out.size() <= object.size() - offset,
                "read_range past the end of " << key);
  if (!out.empty()) std::memcpy(out.data(), object.data() + offset, out.size());
}

void MemoryTarget::replace() {
  failed_ = false;
  objects_.clear();
}

// ---------- Raid5Group ----------

namespace {

/// dst[i] ^= src[i] for i < n, a word at a time: the one XOR that computes
/// put's parity units and reconstructs a lost member's share.
void xor_into(std::uint8_t* dst, const std::uint8_t* src, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t d, s;
    std::memcpy(&d, dst + i, sizeof d);
    std::memcpy(&s, src + i, sizeof s);
    d ^= s;
    std::memcpy(dst + i, &d, sizeof d);
  }
  for (; i < n; ++i) dst[i] ^= src[i];
}

/// XOR of every member's share but `skip`'s. Since each member holds one
/// unit per stripe at the same offset, and a stripe's units XOR to zero,
/// this is `skip`'s whole share — data and parity units alike.
Bytes xor_of_others(const std::vector<const Bytes*>& share, std::size_t skip) {
  Bytes out;
  bool first = true;
  for (std::size_t node = 0; node < share.size(); ++node) {
    if (node == skip) continue;
    if (first) {
      out = *share[node];
      first = false;
      continue;
    }
    AIC_CHECK(share[node]->size() == out.size());
    xor_into(out.data(), share[node]->data(), out.size());
  }
  return out;
}

}  // namespace

Raid5Group::Raid5Group(std::size_t nodes, double bandwidth_bps,
                       std::size_t stripe_unit, double latency_s)
    : stripe_unit_(stripe_unit),
      bandwidth_(bandwidth_bps),
      latency_(latency_s),
      node_failed_(nodes, false),
      shares_(nodes) {
  AIC_CHECK_MSG(nodes >= 3, "RAID-5 needs at least 3 members");
  AIC_CHECK(bandwidth_bps > 0.0);
  AIC_CHECK(stripe_unit >= 1);
}

std::size_t Raid5Group::failed_nodes() const {
  return std::size_t(
      std::count(node_failed_.begin(), node_failed_.end(), true));
}

std::size_t Raid5Group::parity_node(std::uint64_t stripe) const {
  const std::size_t n = shares_.size();
  return (n - 1) - std::size_t(stripe % n);
}

double Raid5Group::put(const std::string& key, Bytes data) {
  AIC_CHECK_MSG(available(), "write to degraded-beyond-repair RAID group");
  const std::size_t n = shares_.size();
  const std::size_t stripe_bytes = stripe_unit_ * (n - 1);
  const std::uint64_t stripes =
      data.empty() ? 0 : (data.size() + stripe_bytes - 1) / stripe_bytes;

  // The write time covers data + parity at the aggregate group bandwidth.
  const std::uint64_t written =
      stripes * stripe_unit_ * n;  // includes parity + padding
  const double t = transfer_seconds(std::max<std::uint64_t>(written, 1),
                                    bandwidth_, latency_);

  // Lay out shares, each sized once: per stripe, the data units append to
  // their members in order (the last stripe zero-padded) and are XORed
  // into the parity unit.
  std::vector<Bytes> node_share(n);
  for (Bytes& share : node_share) share.reserve(stripes * stripe_unit_);
  std::size_t off = 0;
  for (std::uint64_t s = 0; s < stripes; ++s) {
    const std::size_t pnode = parity_node(s);
    Bytes& parity = node_share[pnode];
    parity.resize(parity.size() + stripe_unit_);
    std::uint8_t* p = parity.data() + parity.size() - stripe_unit_;
    for (std::size_t node = 0; node < n; ++node) {
      if (node == pnode) continue;
      const std::size_t len = std::min(stripe_unit_, data.size() - off);
      Bytes& share = node_share[node];
      share.insert(share.end(), data.begin() + std::ptrdiff_t(off),
                   data.begin() + std::ptrdiff_t(off + len));
      share.resize(share.size() + stripe_unit_ - len);
      xor_into(p, data.data() + off, len);
      off += len;
    }
  }
  for (std::size_t node = 0; node < n; ++node) {
    if (node_failed_[node]) continue;  // degraded write skips the dead node
    shares_[node][key] = std::move(node_share[node]);
  }
  meta_[key] = ObjectMeta{data.size(), stripes};
  return t;
}

std::optional<std::vector<const Bytes*>> Raid5Group::find_shares(
    const std::string& key) const {
  if (!available() || !meta_.contains(key)) return std::nullopt;
  const std::size_t n = shares_.size();
  std::vector<const Bytes*> share(n, nullptr);
  bool missing = false;
  for (std::size_t node = 0; node < n; ++node) {
    auto it = shares_[node].find(key);
    if (node_failed_[node] || it == shares_[node].end()) {
      if (missing) return std::nullopt;  // a second member missing
      missing = true;
      continue;
    }
    share[node] = &it->second;
  }
  return share;
}

std::optional<std::uint64_t> Raid5Group::object_size(
    const std::string& key) const {
  if (!find_shares(key).has_value()) return std::nullopt;
  return meta_.at(key).size;
}

void Raid5Group::read_range(const std::string& key, std::uint64_t offset,
                            std::span<std::uint8_t> out) const {
  const std::optional<std::vector<const Bytes*>> share = find_shares(key);
  AIC_CHECK_MSG(share.has_value(), "read_range on missing object " << key);
  const ObjectMeta& meta = meta_.at(key);
  AIC_CHECK_MSG(offset <= meta.size && out.size() <= meta.size - offset,
                "read_range past the end of " << key);
  const std::size_t share_bytes = std::size_t(meta.stripes) * stripe_unit_;
  for (const Bytes* sh : *share)
    AIC_CHECK(sh == nullptr || sh->size() == share_bytes);
  // Object byte `at` lies in data unit d of its stripe, on the d-th member
  // that is not the stripe's parity member, at the same offset in its
  // share as the stripe's other units.
  const std::size_t n = shares_.size();
  const std::size_t stripe_bytes = stripe_unit_ * (n - 1);
  for (std::size_t done = 0; done < out.size();) {
    const std::uint64_t at = offset + done;
    const std::uint64_t stripe = at / stripe_bytes;
    const std::size_t d = std::size_t(at % stripe_bytes) / stripe_unit_;
    const std::size_t within = std::size_t(at % stripe_bytes) % stripe_unit_;
    const std::size_t node = d < parity_node(stripe) ? d : d + 1;
    const std::size_t len = std::min(stripe_unit_ - within, out.size() - done);
    const std::size_t share_off = std::size_t(stripe) * stripe_unit_ + within;
    std::uint8_t* dst = out.data() + done;
    if ((*share)[node] != nullptr) {
      std::memcpy(dst, (*share)[node]->data() + share_off, len);
    } else {
      // A stripe's units XOR to zero, so the missing one is the XOR of
      // the others.
      bool first = true;
      for (std::size_t other = 0; other < n; ++other) {
        if (other == node) continue;
        const std::uint8_t* unit = (*share)[other]->data() + share_off;
        if (first) {
          std::memcpy(dst, unit, len);
          first = false;
        } else {
          xor_into(dst, unit, len);
        }
      }
    }
    done += len;
  }
}

double Raid5Group::read_seconds(const std::string& key) const {
  auto mit = meta_.find(key);
  AIC_CHECK_MSG(mit != meta_.end(), "read_seconds on missing object " << key);
  return transfer_seconds(std::max<std::uint64_t>(mit->second.size, 1),
                          bandwidth_, latency_);
}

bool Raid5Group::erase(const std::string& key) {
  bool existed = meta_.erase(key) > 0;
  for (auto& node : shares_) node.erase(key);
  return existed;
}

std::uint64_t Raid5Group::stored_bytes() const {
  std::uint64_t total = 0;
  for (const auto& node : shares_)
    for (const auto& [k, v] : node) total += v.size();
  return total;
}

void Raid5Group::fail_node(std::size_t node) {
  AIC_CHECK(node < shares_.size());
  node_failed_[node] = true;
  shares_[node].clear();
}

bool Raid5Group::is_node_failed(std::size_t node) const {
  AIC_CHECK(node < shares_.size());
  return node_failed_[node];
}

std::uint64_t Raid5Group::rebuild_node(std::size_t node) {
  AIC_CHECK(node < shares_.size());
  AIC_CHECK_MSG(node_failed_[node], "rebuilding a healthy node");
  AIC_CHECK_MSG(failed_nodes() == 1,
                "rebuild_node(" << node << ") with another member down — "
                "parity reconstruction needs every other member healthy");
  node_failed_[node] = false;
  std::uint64_t rebuilt = 0;
  const std::size_t n = shares_.size();
  std::vector<const Bytes*> share(n, nullptr);
  for (const auto& [key, meta] : meta_) {
    bool have_all = true;
    for (std::size_t other = 0; other < n && have_all; ++other) {
      if (other == node) continue;
      auto it = shares_[other].find(key);
      have_all = it != shares_[other].end();
      if (have_all) share[other] = &it->second;
    }
    // An empty object's (empty) share is restored too, or losing another
    // member later would leave two shares of it missing.
    if (have_all) {
      Bytes lost = xor_of_others(share, node);
      AIC_CHECK(lost.size() == std::size_t(meta.stripes) * stripe_unit_);
      rebuilt += lost.size();
      shares_[node][key] = std::move(lost);
    }
  }
  return rebuilt;
}

}  // namespace aic::storage
