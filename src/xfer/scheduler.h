// TransferScheduler — the checkpointing core's drain engine.
//
// Owns one simulated Channel per destination level and drives every
// submitted transfer through the chunked state machine of transfer.h under
// a single discrete-event virtual clock:
//
//   * each chunk is one send attempt on the level's channel, charged at
//     the channel's current per-stream bandwidth share (concurrent drains
//     split capacity — the emergent Fig. 7 sharing factor). With tenant
//     QoS configured (set_tenant_qos), the share is priced per tenant:
//     hard reservations are dedicated lanes, best-effort tenants split the
//     residual bandwidth by weight — the fleet's per-tenant QoS layer,
//     still emergent chunk by chunk;
//   * a failed attempt (drop, partial write, or timeout on a stall)
//     retries after capped exponential backoff; exhausting the per-chunk
//     attempt budget aborts the transfer with a TransferError naming the
//     level and chunk offset;
//   * a payload drain's object is handed whole to the level's ObjectSink
//     when its last chunk acks, never before; a size-only drain publishes
//     nothing;
//   * interrupt_level() models a failure striking mid-drain: in-flight
//     and queued transfers to that level become kInterrupted resumable
//     partials, and resume_level() re-drains from the last acked chunk.
//
// The clock never runs backwards: run_until(t) processes every event up to
// virtual time t (attempt completions, backoff expiries, commits) and
// leaves attempts that end later than t in flight for the next call, so a
// failure simulator can interleave failures with a drain at any instant.
// Everything is deterministic — no host clocks, no host randomness.
//
// Cost: an event (an attempt starting or ending, a submit, a per-transfer
// interrupt/resume/discard) is O(log R) in runnable transfers R, plus a
// walk of the active tenants of each level that starts attempts at that
// instant. Pending and in-flight transfers sit in an indexed binary
// min-heap keyed by (next event time, id); each entry knows its heap
// position, so an event sifts in place. Entries live in a slot table of
// fixed blocks, never moving (common/slab.h), and a discard returns its
// slot for reuse; an id index (common/id_index.h) finds an entry by id in
// O(1). Each tenant gets a lane per level on first use, and entries keep
// its index, so opening and closing streams looks nothing up. A per-level
// key set rejects duplicate live keys, and a per-level list holds the
// interrupted transfers. After warm-up a steady stream of size-only drains
// allocates nothing.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/id_index.h"
#include "common/slab.h"
#include "xfer/channel.h"
#include "xfer/stats.h"
#include "xfer/transfer.h"

namespace aic::obs {
class Counter;
class Gauge;
class Histogram;
struct Hub;
}  // namespace aic::obs

namespace aic::xfer {

class TransferScheduler {
 public:
  struct Config {
    std::size_t chunk_bytes = 64 * 1024;
    RetryPolicy retry;
    /// Optional observability hub: per-chunk spans, retry/backoff events,
    /// and goodput gauges land here. nullptr = disabled (no overhead
    /// beyond one branch per event site).
    obs::Hub* obs = nullptr;
  };

  TransferScheduler();
  explicit TransferScheduler(Config config);

  /// Registers a destination level with its channel parameters and the
  /// sink its committed objects go to, which must outlive the scheduler.
  /// A level registered without a sink takes only size-only drains.
  void add_level(int level, Channel::Config channel, ObjectSink* sink);
  bool has_level(int level) const { return levels_.count(level) > 0; }
  /// The level's channel, for fault injection and inspection.
  Channel& channel(int level);

  /// Registers (or replaces) tenant `tenant`'s QoS on `level`'s channel.
  /// Validates the aggregate: the sum of reserved bandwidth across the
  /// level's tenants (with this entry applied) must not exceed the
  /// channel's capacity — otherwise a ReservationError is thrown and the
  /// QoS table is left unchanged. Weights must be positive, reservations
  /// non-negative and finite.
  void set_tenant_qos(int level, std::uint64_t tenant, TenantQos qos);
  /// The tenant's QoS on `level` (defaults: weight 1, no reservation).
  TenantQos tenant_qos(int level, std::uint64_t tenant) const;

  /// Queues a drain of `data` to `level` under object name `key`; the
  /// transfer starts at the next run_*() call. Keys must be unique among
  /// live (non-discarded) transfers to the same level, and the level must
  /// have a sink. `tenant` selects the QoS lane (see TenantQos); the
  /// default tenant 0 reproduces the pre-QoS equal B/N split.
  TransferId submit(int level, std::string key, Bytes data,
                    std::uint64_t tenant = 0);

  /// Size-only drain for fleet-scale simulation: the transfer carries
  /// `total_bytes` that are never materialized, so ten thousand concurrent
  /// multi-GB drains cost no payload memory, and its commit publishes
  /// nothing. Timing, pricing, interrupt/resume, commit and key uniqueness
  /// semantics are identical to submit().
  TransferId submit_sized(int level, std::string key,
                          std::uint64_t total_bytes, std::uint64_t tenant = 0);

  double now() const { return now_; }
  /// True when no transfer is pending or in flight (interrupted and
  /// terminal transfers don't count).
  bool idle() const;

  /// Runs the event loop until idle (commits, aborts, and interrupted
  /// partials only remain).
  void run_until_idle();
  /// Runs the event loop up to virtual time t, then sets now() = t.
  void run_until(double t);

  /// Failure at `level` mid-drain: every pending/in-flight transfer to
  /// that level becomes a resumable kInterrupted partial (the current
  /// chunk attempt is lost; acked bytes are kept). Returns the number of
  /// transfers interrupted.
  std::size_t interrupt_level(int level);
  /// Re-queues interrupted transfers to `level` (fresh per-chunk retry
  /// budget, resuming at the last acked chunk). Returns the count resumed.
  std::size_t resume_level(int level);

  /// Failure striking one job mid-drain: interrupts a single transfer
  /// (acked bytes kept, in-flight chunk lost). Returns false when the
  /// transfer is already terminal or interrupted — an interrupt racing a
  /// commit is a no-op, not an error.
  bool interrupt(TransferId id);
  /// Resumes one interrupted transfer (fresh per-chunk budget, re-drains
  /// from the last acked chunk). Returns false unless it was interrupted.
  bool resume(TransferId id);

  /// Drops a transfer and its payload entirely (rollback of a checkpoint
  /// that no longer exists). Terminal records are erased too.
  void discard(TransferId id);

  /// Associates a causal chain (obs/causal.h, id from CausalLog::open)
  /// with a live transfer: the drain-queue / in-flight / backoff / stalled
  /// seconds this transfer accumulates are added to the chain, which is
  /// closed at commit (or closed aborted at abort/discard). Requires an
  /// obs hub with telemetry enabled at that point; without one the
  /// association is dropped silently — attribution is best-effort.
  void annotate(TransferId id, std::uint64_t causal_id);

  const TransferRecord& record(TransferId id) const;
  bool known(TransferId id) const { return index_.find(id) != nullptr; }
  /// Throws the transfer's TransferError if it aborted; no-op otherwise.
  void rethrow_if_aborted(TransferId id) const;

  std::size_t runnable_count() const;     // pending + in-flight
  std::size_t interrupted_count() const;
  /// Aggregate counters over every transfer this scheduler has seen
  /// (including discarded ones).
  Stats stats() const;

 private:
  static constexpr std::uint32_t kNone = ~std::uint32_t{0};

  /// One tenant's share of one level: its QoS, its attempts on the wire
  /// and their per-stream rate as priced for the current start batch.
  struct Lane {
    std::uint64_t tenant = 0;
    TenantQos qos;
    std::size_t streams = 0;
    double priced_bps = 0.0;
  };
  struct Entry;
  struct Level {
    std::unique_ptr<Channel> channel;
    ObjectSink* sink = nullptr;
    /// Tenant -> index of its lane in `lanes`. A tenant gets its lane on
    /// its first QoS entry or submit here and keeps it, so entries cache
    /// the index; a lane without a QoS entry prices as {1.0, 0.0}.
    std::map<std::uint64_t, std::uint32_t> lane_of;
    std::vector<Lane> lanes;
    /// Lanes with attempts on the wire, in ascending tenant order — the
    /// order pricing sums them in.
    std::vector<std::uint32_t> active;
    /// Keys of the level's live (non-discarded) transfers.
    std::unordered_set<std::string> keys;
    /// The level's kInterrupted transfers, in no particular order.
    std::vector<Entry*> interrupted;
    /// Set while the current start batch opens a stream here.
    bool starting = false;
  };
  /// A pending transfer (at ready_at) or an in-flight one (at attempt_end)
  /// in the event heap; ties at one instant order by id.
  struct Event {
    double time = 0.0;
    TransferId id = 0;
    Entry* entry = nullptr;
    bool operator<(const Event& o) const {
      return time != o.time ? time < o.time : id < o.id;
    }
  };
  struct Entry {
    /// rec.id is 0 while the slot is free.
    TransferRecord rec;
    /// The payload, moved into the level's sink at commit.
    Bytes data;
    /// Destination (levels_ nodes never move) and the tenant's lane there.
    Level* level = nullptr;
    std::uint32_t lane = 0;
    /// Position in events_ while pending or in flight.
    std::uint32_t heap_pos = kNone;
    /// Position in level->interrupted while kInterrupted.
    std::uint32_t interrupted_pos = kNone;
    /// Size-only transfer (submit_sized): `data` stays empty and the
    /// commit publishes nothing.
    bool synthetic = false;
    double ready_at = 0.0;  // earliest start of the next chunk attempt
    // One in-flight chunk attempt (outcome fixed at start time).
    bool attempt_active = false;
    double attempt_start = 0.0;
    double attempt_end = 0.0;
    bool attempt_acked = false;
    std::uint64_t attempt_bytes = 0;
    // Causal attribution (annotate()): where this transfer's latency went,
    // accumulated as it runs, flushed to the chain when it closes.
    std::uint64_t causal_id = 0;
    double wait_since = 0.0;   // start of the current drain-queue wait
    double stall_since = 0.0;  // interrupt time while kInterrupted
    double seg_drainq_s = 0.0;
    double seg_inflight_s = 0.0;
    double seg_backoff_s = 0.0;
    double seg_stalled_s = 0.0;
  };
  /// A slot of the id index; id 0 marks it empty.
  struct Bucket {
    TransferId id = 0;
    Entry* entry = nullptr;

    bool empty() const { return id == 0; }
  };

  TransferId admit(int level, std::string key, std::uint64_t total_bytes,
                   std::uint64_t tenant, Bytes data, bool synthetic);
  /// The live entry with this id; a CheckError names `op` otherwise.
  Entry& entry(TransferId id, const char* op) const;
  /// The index of `tenant`'s lane on `level`, opening it on first use.
  static std::uint32_t lane_index(Level& level, std::uint64_t tenant);
  /// Puts the entry where its state says in events_: pending at ready_at,
  /// in flight at attempt_end, absent otherwise.
  void reschedule(Entry& e);
  // Heap moves: each writes the moved entry's new position into it.
  void place(std::size_t pos, const Event& ev);
  std::size_t sift_up(std::size_t pos);
  void sift_down(std::size_t pos);
  void erase_event(Entry& e);
  /// The transfers whose events fall at or before now_, in id order.
  void collect_due(bool in_flight);
  void collect_due_below(std::size_t pos, bool in_flight);
  void open_stream(Entry& e);
  void close_stream(Entry& e);
  /// Per-stream rate of every active lane on `level`: reserved tenants get
  /// reserved_bps split across their own streams, best-effort tenants
  /// share the residual by weight.
  void price_lanes(Level& level);
  /// A pending transfer leaving the queue mid-backoff (interrupt, discard)
  /// takes back the part of the backoff that never elapsed.
  void refund_backoff(Entry& e);
  void start_ready_attempts();
  void finish_attempt(Entry& e);
  void commit(Entry& e);
  /// Flushes the entry's accumulated segments into its causal chain and
  /// closes it; no-op without an annotation or telemetry.
  void close_causal(Entry& e, bool aborted);
  void run_events(double limit);
  void interrupt_entry(Entry& e);
  void resume_entry(Entry& e);
  /// Takes a kInterrupted entry off its level's interrupted list.
  static void unlist_interrupted(Entry& e);

  Config config_;
  // Metric handles resolved once at construction (all null when
  // config_.obs is null; event sites branch on config_.obs).
  obs::Counter* m_chunks_sent_ = nullptr;
  obs::Counter* m_chunks_failed_ = nullptr;
  obs::Counter* m_retries_ = nullptr;
  obs::Counter* m_bytes_acked_ = nullptr;
  obs::Counter* m_bytes_wasted_ = nullptr;
  obs::Counter* m_commits_ = nullptr;
  obs::Counter* m_aborts_ = nullptr;
  obs::Counter* m_interrupts_ = nullptr;
  obs::Counter* m_resumes_ = nullptr;
  obs::Histogram* m_chunk_seconds_ = nullptr;
  obs::Histogram* m_backoff_seconds_ = nullptr;
  obs::Gauge* m_goodput_ = nullptr;
  double now_ = 0.0;
  TransferId next_id_ = 1;
  std::map<int, Level> levels_;
  /// The slot table: entries in blocks of 64 that never move (callers
  /// hold record() references), reusing the slots discards freed. Memory
  /// follows the peak of live transfers, not every id ever issued.
  common::Slab<Entry, 64> slots_;
  /// Id -> entry. It is sized with the slot table, so it grows when a new
  /// block arrives and never in steady state.
  common::IdIndex<Bucket> index_;
  /// Key-set nodes of discarded transfers, reused by later submits. A
  /// list, not one spare: the fleet discards a round's landed drains in
  /// one sweep and submits the next round's captures in another.
  std::vector<std::unordered_set<std::string>::node_type> spare_keys_;
  /// Binary min-heap of the pending and in-flight transfers.
  std::vector<Event> events_;
  /// Scratch list of entries to act on in id order: one instant's due
  /// transfers (collect_due) or one level's runnable or interrupted ones.
  std::vector<Entry*> due_;
  /// Counters of discarded transfers, folded into stats().
  Stats discarded_stats_;
};

}  // namespace aic::xfer
