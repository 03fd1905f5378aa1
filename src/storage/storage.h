// Simulated checkpoint storage targets with bandwidth accounting.
//
// The paper's three levels map onto two kinds of target:
//   L1 — MemoryTarget     (node-local disk or RAM disk, named LocalDisk;
//                          lost with its node)
//   L2 — Raid5Group       (main memory of a RAID-5 group of partner nodes;
//                          we implement real striping + parity so a single
//                          node loss is recoverable, matching [11, 18])
//   L3 — MemoryTarget     (Lustre-like remote file system, named
//                          RemoteStore; per-node bandwidth B3 shrinks as
//                          the system scales, and it never fails in-model)
//
// Targets store named objects (checkpoint files) in memory and report the
// time a write/read of that size takes at the configured bandwidth; the
// discrete-event simulator turns those durations into virtual time. A
// target can be failed (unavailable) and, for RAID-5, individual member
// nodes can fail and be rebuilt.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace aic::storage {

/// Seconds to move `bytes` at `bandwidth_bps` plus a fixed setup latency.
/// Throws CheckError for non-positive or non-finite bandwidth and for
/// negative or non-finite latency (the inputs that would otherwise turn
/// every downstream duration into inf/NaN).
double transfer_seconds(std::uint64_t bytes, double bandwidth_bps,
                        double latency_s = 0.0);

class StorageTarget {
 public:
  virtual ~StorageTarget() = default;

  virtual bool available() const = 0;

  /// Stores an object; returns the simulated duration in seconds.
  /// Throws CheckError if the target is unavailable.
  virtual double put(const std::string& key, Bytes data) = 0;
  /// Fetches an object: object_size(), then read_range() of all of it.
  /// Returns nullopt if missing or unavailable.
  std::optional<Bytes> get(const std::string& key) const;
  /// Duration a read of `key` would take (for recovery-time accounting).
  virtual double read_seconds(const std::string& key) const = 0;

  virtual bool erase(const std::string& key) = 0;
  virtual std::uint64_t stored_bytes() const = 0;

  /// The size of an object; nullopt if missing or unavailable.
  virtual std::optional<std::uint64_t> object_size(
      const std::string& key) const = 0;
  /// Copies the object's bytes [offset, offset + out.size()) into `out`;
  /// throws CheckError where object_size() is nullopt or the range runs
  /// past the end. Reads of disjoint ranges may run on several threads at
  /// once, so a restart reads one large object on several.
  virtual void read_range(const std::string& key, std::uint64_t offset,
                          std::span<std::uint8_t> out) const = 0;
};

/// A map of whole objects moved at one bandwidth (reads use the write
/// figure; the paper's model sets r_k = c_k). L1 fails it with its node
/// and replaces it empty; L3 never fails it.
class MemoryTarget final : public StorageTarget {
 public:
  explicit MemoryTarget(double bandwidth_bps, double latency_s = 0.0);

  bool available() const override { return !failed_; }

  double put(const std::string& key, Bytes data) override;
  double read_seconds(const std::string& key) const override;
  bool erase(const std::string& key) override;
  std::uint64_t stored_bytes() const override;
  std::optional<std::uint64_t> object_size(
      const std::string& key) const override;
  void read_range(const std::string& key, std::uint64_t offset,
                  std::span<std::uint8_t> out) const override;

  /// Total node failure: the target and its contents become unavailable.
  void fail() { failed_ = true; }
  /// Node replaced: target back online, contents gone.
  void replace();

 private:
  double bandwidth_;
  double latency_;
  bool failed_ = false;
  std::map<std::string, Bytes> objects_;
};

/// L1, the node-local disk.
using LocalDisk = MemoryTarget;
/// L3, the remote parallel file system: a level-3 failure loses everything
/// below it, and L3 is the recovery source, but its per-node bandwidth is
/// the scarce resource.
using RemoteStore = MemoryTarget;

/// RAID-5 group of `n` partner-node memories (L2): objects are striped
/// across n-1 data shares plus one rotating parity share; any single member
/// loss is tolerated and repairable.
class Raid5Group final : public StorageTarget {
 public:
  /// `nodes` >= 3; `bandwidth_bps` is the aggregate write bandwidth to the
  /// group (the paper's B2); `stripe_unit` is the striping granularity.
  Raid5Group(std::size_t nodes, double bandwidth_bps,
             std::size_t stripe_unit = 64 * 1024, double latency_s = 0.0);

  /// Available while at most one member is down.
  bool available() const override { return failed_nodes() <= 1; }

  double put(const std::string& key, Bytes data) override;
  /// Reconstructs from parity transparently when one member is down.
  double read_seconds(const std::string& key) const override;
  bool erase(const std::string& key) override;
  std::uint64_t stored_bytes() const override;
  std::optional<std::uint64_t> object_size(
      const std::string& key) const override;
  /// Reassembles only the stripes the range covers; with one member down,
  /// each of its units there is rebuilt from the others' units.
  void read_range(const std::string& key, std::uint64_t offset,
                  std::span<std::uint8_t> out) const override;

  std::size_t node_count() const { return shares_.size(); }
  std::size_t failed_nodes() const;
  bool is_node_failed(std::size_t node) const;
  void fail_node(std::size_t node);
  /// Rebuilds a replaced member's shares from the surviving members.
  /// Returns the rebuilt byte count. Requires all other members healthy:
  /// throws CheckError if a second member is down (XOR reconstruction
  /// would silently produce garbage shares).
  std::uint64_t rebuild_node(std::size_t node);

 private:
  struct ObjectMeta {
    std::uint64_t size = 0;        // original object size
    std::uint64_t stripes = 0;     // number of stripes
  };
  /// share index layout: for stripe s, parity lives on node
  /// (n-1 - s % n), data units fill the remaining nodes in order.
  std::size_t parity_node(std::uint64_t stripe) const;
  /// Each member's share of `key`, null for the one member whose share is
  /// missing, if any; nullopt when the group is unavailable, the object
  /// is unknown or two shares are missing.
  std::optional<std::vector<const Bytes*>> find_shares(
      const std::string& key) const;

  std::size_t stripe_unit_;
  double bandwidth_;
  double latency_;
  std::vector<bool> node_failed_;
  // shares_[node][key] -> concatenated share units for that object.
  std::vector<std::map<std::string, Bytes>> shares_;
  std::map<std::string, ObjectMeta> meta_;
};

}  // namespace aic::storage
