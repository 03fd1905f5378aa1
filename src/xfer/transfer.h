// Transfer state machine types shared by the scheduler and its clients.
//
// One Transfer moves one serialized checkpoint object to one destination
// level as a sequence of fixed-size chunks. Lifecycle:
//
//   kPending ──start chunk──▶ kInFlight @ acked_bytes
//      ▲                          │
//      │   interrupt_level()      ├── all chunks acked ──▶ kCommitted
//      └───── resume ──── kInterrupted (resumable partial)
//                                 └── retry cap exhausted ─▶ kAborted
//
// Until its last chunk acks, the object exists only as the payload the
// scheduler holds: commit hands it whole to the level's ObjectSink, so a
// failure between any two chunks can leave at most a resumable partial,
// never a torn visible object. An interrupted transfer keeps its acked
// byte count; resuming re-drains from the last acked chunk with a fresh
// per-chunk retry budget.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/check.h"
#include "xfer/stats.h"

namespace aic::xfer {

using TransferId = std::uint64_t;

enum class TransferState : std::uint8_t {
  kPending = 0,     // queued or between chunks, runnable
  kInFlight,        // a chunk attempt is on the wire
  kInterrupted,     // failure mid-drain; resumable at acked_bytes
  kCommitted,       // atomically published to the destination
  kAborted,         // retry cap exhausted; see TransferRecord::error
};

const char* to_string(TransferState state);

/// Naming convention for staged partials that land on a filesystem (used
/// by aic_fsck to tell an in-progress drain from a corrupt record).
inline constexpr const char kPartialSuffix[] = ".partial";

struct RetryPolicy {
  /// Max send attempts per chunk (1 original + max_attempts-1 retries).
  int max_attempts_per_chunk = 8;
  double initial_backoff_s = 0.05;
  double backoff_multiplier = 2.0;
  double max_backoff_s = 2.0;
  /// An attempt taking longer than this counts as failed at the timeout
  /// (covers stalled channels); 0 disables the timeout.
  double chunk_timeout_s = 0.0;
};

/// Per-tenant QoS on one destination channel: a hard bandwidth reservation
/// (a dedicated lane carved out of the channel — both a floor and the
/// tenant's rate while it is active) and/or a weight for the best-effort
/// residual pool. Tenants with reserved_bps == 0 share the residual
/// bandwidth proportionally to weight — with equal weights and no
/// reservations this degrades to the emergent Fig. 7 B/N split.
struct TenantQos {
  double weight = 1.0;
  double reserved_bps = 0.0;
};

/// Typed rejection of a reservation set whose aggregate demand would
/// oversubscribe a channel: names the level, the offending aggregate, and
/// the channel capacity. Thrown by TransferScheduler::set_tenant_qos; the
/// scheduler's QoS table is left unchanged.
class ReservationError : public CheckError {
 public:
  ReservationError(int level, double reserved_bps, double capacity_bps,
                   const std::string& what)
      : CheckError(what),
        level_(level),
        reserved_bps_(reserved_bps),
        capacity_bps_(capacity_bps) {}

  int level() const { return level_; }
  /// Aggregate reserved bandwidth the rejected set would have demanded.
  double reserved_bps() const { return reserved_bps_; }
  double capacity_bps() const { return capacity_bps_; }

 private:
  int level_;
  double reserved_bps_;
  double capacity_bps_;
};

/// Typed abort error: names the destination level and the chunk offset the
/// drain could not push past.
class TransferError : public CheckError {
 public:
  TransferError(int level, std::uint64_t chunk_offset,
                const std::string& what)
      : CheckError(what), level_(level), chunk_offset_(chunk_offset) {}

  int level() const { return level_; }
  std::uint64_t chunk_offset() const { return chunk_offset_; }

 private:
  int level_;
  std::uint64_t chunk_offset_;
};

/// Publication destination for one level: receives each payload drain's
/// object whole, once its last chunk has acked.
class ObjectSink {
 public:
  virtual ~ObjectSink() = default;

  /// Publishes the complete object `key`.
  virtual void commit(const std::string& key, Bytes object) = 0;
};

/// Observable state of one transfer (scheduler-owned).
struct TransferRecord {
  TransferId id = 0;
  std::string key;
  int level = 0;
  /// Owning tenant for QoS pricing (0 = the default tenant: weight 1, no
  /// reservation — the pre-QoS behaviour).
  std::uint64_t tenant = 0;
  TransferState state = TransferState::kPending;
  std::uint64_t total_bytes = 0;
  /// Resume point: bytes the far side has acked (whole chunks only).
  std::uint64_t acked_bytes = 0;
  /// Attempts spent on the chunk currently at acked_bytes.
  int chunk_attempts = 0;
  /// Virtual time the transfer was submitted / committed.
  double submit_time = 0.0;
  double commit_time = 0.0;
  /// Backoff delay applied before each retry, in order (monotonically
  /// non-decreasing up to RetryPolicy::max_backoff_s).
  std::vector<double> backoff_history;
  Stats stats;
  /// Abort reason (empty unless kAborted).
  std::string error;

  bool terminal() const {
    return state == TransferState::kCommitted ||
           state == TransferState::kAborted;
  }
};

}  // namespace aic::xfer
