#include "xfer/scheduler.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "obs/names.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace aic::xfer {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
namespace on = obs::names;

template <class E>
void sort_by_id(std::vector<E*>& entries) {
  std::sort(entries.begin(), entries.end(),
            [](const E* a, const E* b) { return a->rec.id < b->rec.id; });
}
}  // namespace

const char* to_string(TransferState state) {
  switch (state) {
    case TransferState::kPending:
      return "pending";
    case TransferState::kInFlight:
      return "in-flight";
    case TransferState::kInterrupted:
      return "interrupted";
    case TransferState::kCommitted:
      return "committed";
    case TransferState::kAborted:
      return "aborted";
  }
  return "?";
}

TransferScheduler::TransferScheduler() : TransferScheduler(Config{}) {}

TransferScheduler::TransferScheduler(Config config) : config_(config) {
  AIC_CHECK_MSG(config.chunk_bytes >= 1, "chunk size must be >= 1 byte");
  AIC_CHECK(config.retry.max_attempts_per_chunk >= 1);
  AIC_CHECK(config.retry.initial_backoff_s >= 0.0);
  AIC_CHECK(config.retry.backoff_multiplier >= 1.0);
  AIC_CHECK(config.retry.max_backoff_s >= config.retry.initial_backoff_s);
  AIC_CHECK(config.retry.chunk_timeout_s >= 0.0);
  if (obs::Hub* hub = config_.obs) {
    obs::MetricsRegistry& m = hub->metrics;
    m_chunks_sent_ = m.counter(on::kXferChunksSent);
    m_chunks_failed_ = m.counter(on::kXferChunksFailed);
    m_retries_ = m.counter(on::kXferRetries);
    m_bytes_acked_ = m.counter(on::kXferBytesAcked);
    m_bytes_wasted_ = m.counter(on::kXferBytesWasted);
    m_commits_ = m.counter(on::kXferCommits);
    m_aborts_ = m.counter(on::kXferAborts);
    m_interrupts_ = m.counter(on::kXferInterrupts);
    m_resumes_ = m.counter(on::kXferResumes);
    m_chunk_seconds_ = m.histogram(
        on::kXferChunkSeconds,
        obs::Histogram::exponential_buckets(1e-4, 2.0, 24));
    m_backoff_seconds_ = m.histogram(
        on::kXferBackoffSeconds,
        obs::Histogram::exponential_buckets(1e-3, 2.0, 20));
    m_goodput_ = m.gauge(on::kXferDrainGoodputBps);
  }
}

void TransferScheduler::add_level(int level, Channel::Config channel,
                                  ObjectSink* sink) {
  AIC_CHECK_MSG(levels_.count(level) == 0,
                "level " << level << " already registered");
  Level& l = levels_[level];
  l.channel = std::make_unique<Channel>(channel);
  l.sink = sink;
}

Channel& TransferScheduler::channel(int level) {
  auto it = levels_.find(level);
  AIC_CHECK_MSG(it != levels_.end(), "unknown transfer level " << level);
  return *it->second.channel;
}

void TransferScheduler::set_tenant_qos(int level, std::uint64_t tenant,
                                       TenantQos qos) {
  auto it = levels_.find(level);
  AIC_CHECK_MSG(it != levels_.end(),
                "set_tenant_qos on unregistered level " << level);
  AIC_CHECK_MSG(std::isfinite(qos.weight) && qos.weight > 0.0,
                "tenant " << tenant << " weight must be positive, got "
                          << qos.weight);
  AIC_CHECK_MSG(std::isfinite(qos.reserved_bps) && qos.reserved_bps >= 0.0,
                "tenant " << tenant
                          << " reservation must be non-negative, got "
                          << qos.reserved_bps);
  // Aggregate-demand validation: the reservation set with this entry
  // applied must fit the channel. On rejection the table is untouched.
  const double capacity = it->second.channel->bandwidth_bps();
  double reserved = qos.reserved_bps;
  for (const auto& [t, q] : it->second.qos) {
    if (t != tenant) reserved += q.reserved_bps;
  }
  if (reserved > capacity) {
    std::ostringstream os;
    os << "reservation set on level " << level << " demands " << reserved
       << " B/s but the channel provides " << capacity
       << " B/s (adding tenant " << tenant << " at " << qos.reserved_bps
       << " B/s)";
    throw ReservationError(level, reserved, capacity, os.str());
  }
  it->second.qos[tenant] = qos;
  // An open lane prices from its own copy: the next start batch sees the
  // new contract.
  const auto lane = it->second.lanes.find(tenant);
  if (lane != it->second.lanes.end()) lane->second.qos = qos;
}

TenantQos TransferScheduler::tenant_qos(int level, std::uint64_t tenant) const {
  auto it = levels_.find(level);
  AIC_CHECK_MSG(it != levels_.end(),
                "tenant_qos on unregistered level " << level);
  return it->second.qos_of(tenant);
}

TransferId TransferScheduler::submit(int level, std::string key, Bytes data,
                                     std::uint64_t tenant) {
  const std::uint64_t total = data.size();  // read before `data` moves
  return admit(level, std::move(key), total, tenant, std::move(data), false);
}

TransferId TransferScheduler::submit_sized(int level, std::string key,
                                           std::uint64_t total_bytes,
                                           std::uint64_t tenant) {
  return admit(level, std::move(key), total_bytes, tenant, {}, true);
}

TransferId TransferScheduler::admit(int level, std::string key,
                                    std::uint64_t total_bytes,
                                    std::uint64_t tenant, Bytes data,
                                    bool synthetic) {
  auto lit = levels_.find(level);
  AIC_CHECK_MSG(lit != levels_.end(),
                "submit to unregistered level " << level);
  AIC_CHECK_MSG(!synthetic || total_bytes > 0,
                "sized submit of empty object " << key);
  AIC_CHECK_MSG(synthetic || lit->second.sink != nullptr,
                "payload submit of " << key << " to level " << level
                                     << ", which has no sink");
  bool fresh_key = false;
  if (spare_keys_.empty()) {
    fresh_key = lit->second.keys.insert(key).second;
  } else {
    spare_keys_.back().value() = key;
    auto ins = lit->second.keys.insert(std::move(spare_keys_.back()));
    fresh_key = ins.inserted;
    if (fresh_key) {
      spare_keys_.pop_back();
    } else {
      spare_keys_.back() = std::move(ins.node);  // kept for the next one
    }
  }
  AIC_CHECK_MSG(fresh_key, "duplicate live transfer of "
                               << key << " to level " << level);
  Entry e;
  e.rec.id = next_id_++;
  e.rec.key = std::move(key);
  e.rec.level = level;
  e.rec.tenant = tenant;
  e.rec.total_bytes = total_bytes;
  e.rec.submit_time = now_;
  e.data = std::move(data);
  e.level = &lit->second;
  e.synthetic = synthetic;
  e.ready_at = now_;
  e.wait_since = now_;
  const TransferId id = e.rec.id;
  // Ids ascend, so every entry lands at the end of the map.
  auto it = entries_.end();
  if (spare_entries_.empty()) {
    it = entries_.emplace_hint(it, id, std::move(e));
  } else {
    auto& node = spare_entries_.back();
    node.key() = id;
    node.mapped() = std::move(e);
    it = entries_.insert(it, std::move(node));
    spare_entries_.pop_back();
  }
  reschedule(it->second);
  return id;
}

bool TransferScheduler::idle() const { return events_.empty(); }

std::size_t TransferScheduler::runnable_count() const {
  return events_.size();
}

std::size_t TransferScheduler::interrupted_count() const {
  std::size_t n = 0;
  for (const auto& [id, e] : entries_) {
    n += e.rec.state == TransferState::kInterrupted;
  }
  return n;
}

void TransferScheduler::close_causal(Entry& e, bool aborted) {
  if (e.causal_id == 0) return;
  const std::uint64_t id = e.causal_id;
  e.causal_id = 0;
  if (config_.obs == nullptr) return;
  obs::Telemetry* telemetry = config_.obs->telemetry();
  if (telemetry == nullptr) return;
  obs::CausalLog& log = telemetry->causal();
  log.add(id, obs::CausalSegment::kDrainQueue, e.seg_drainq_s);
  log.add(id, obs::CausalSegment::kInFlight, e.seg_inflight_s);
  log.add(id, obs::CausalSegment::kBackoff, e.seg_backoff_s);
  log.add(id, obs::CausalSegment::kStalled, e.seg_stalled_s);
  log.close_at(id, now_, aborted);
}

void TransferScheduler::annotate(TransferId id, std::uint64_t causal_id) {
  auto it = entries_.find(id);
  AIC_CHECK_MSG(it != entries_.end(), "annotate of unknown transfer " << id);
  it->second.causal_id = causal_id;
}

void TransferScheduler::reschedule(Entry& e) {
  if (e.rec.state != TransferState::kPending &&
      e.rec.state != TransferState::kInFlight) {
    if (e.event) events_.erase(*e.event);
    e.event.reset();
    return;
  }
  const double t = e.attempt_active ? e.attempt_end : e.ready_at;
  if (!e.event) {
    e.event = events_.insert({t, e.rec.id, &e}).first;
  } else if ((*e.event)->time != t) {
    auto node = events_.extract(*e.event);
    node.value().time = t;
    e.event = events_.insert(std::move(node)).position;
  }
}

void TransferScheduler::collect_due(bool in_flight) {
  due_.clear();
  for (auto it = events_.begin(); it != events_.end() && it->time <= now_;
       ++it) {
    if (it->entry->attempt_active == in_flight) due_.push_back(it->entry);
  }
  sort_by_id(due_);
}

void TransferScheduler::open_stream(Entry& e) {
  Level& level = *e.level;
  level.channel->open_stream();
  auto lane = level.lanes.find(e.rec.tenant);
  if (lane == level.lanes.end()) {
    const Lane fresh{0, 0.0, level.qos_of(e.rec.tenant)};
    if (level.spare_lane.empty()) {
      lane = level.lanes.emplace(e.rec.tenant, fresh).first;
    } else {
      level.spare_lane.key() = e.rec.tenant;
      level.spare_lane.mapped() = fresh;
      lane = level.lanes.insert(std::move(level.spare_lane)).position;
    }
  }
  ++lane->second.streams;
  level.starting = true;
}

void TransferScheduler::close_stream(Entry& e) {
  e.level->channel->close_stream();
  const auto lane = e.level->lanes.find(e.rec.tenant);
  if (--lane->second.streams == 0) {
    e.level->spare_lane = e.level->lanes.extract(lane);
  }
  e.attempt_active = false;
}

void TransferScheduler::commit(Entry& e) {
  if (!e.synthetic) e.level->sink->commit(e.rec.key, std::move(e.data));
  close_causal(e, false);
  e.rec.state = TransferState::kCommitted;
  e.rec.commit_time = now_;
  ++e.rec.stats.transfers_committed;
  if (config_.obs) {
    m_commits_->add();
    const double drain = now_ - e.rec.submit_time;
    if (drain > 0.0) m_goodput_->set(double(e.rec.total_bytes) / drain);
    config_.obs->trace.instant(
        obs::TimeDomain::kVirtual, on::kCatXfer, on::kEvCommit, now_,
        std::uint32_t(e.rec.level),
        {{"bytes", double(e.rec.total_bytes)},
         {"drain_s", drain}});
  }
}

void TransferScheduler::start_ready_attempts() {
  // The batch is every pending transfer ready at this instant, sent in id
  // order: scripted faults and the seeded drop RNG are consumed in send
  // order. All streams open before any is priced, so every attempt sees
  // the full population (in flight + starting) and the pricing is
  // order-independent within the batch.
  collect_due(false);
  std::size_t starting = 0;
  for (Entry* e : due_) {
    if (e->rec.acked_bytes >= e->rec.total_bytes) {
      // Zero-byte object: publish without touching the wire.
      commit(*e);
      reschedule(*e);
      continue;
    }
    open_stream(*e);
    due_[starting++] = e;
  }
  due_.resize(starting);
  for (auto& [id, level] : levels_) {
    if (level.starting) price_lanes(level);
    level.starting = false;
  }
  for (Entry* e : due_) {
    const std::uint64_t chunk = std::min<std::uint64_t>(
        config_.chunk_bytes, e->rec.total_bytes - e->rec.acked_bytes);
    Channel::SendOutcome out = e->level->channel->send(
        chunk, e->level->lanes.find(e->rec.tenant)->second.priced_bps);
    // A stalled delivery outlasting the chunk timeout is a failed attempt
    // that costs exactly the timeout (the sender stops listening).
    const double timeout = config_.retry.chunk_timeout_s;
    if (timeout > 0.0 && out.seconds > timeout) {
      out.acked = false;
      out.seconds = timeout;
    }
    e->rec.state = TransferState::kInFlight;
    ++e->rec.chunk_attempts;
    e->seg_drainq_s += std::max(0.0, now_ - e->wait_since);
    e->attempt_active = true;
    e->attempt_start = now_;
    e->attempt_end = now_ + out.seconds;
    e->attempt_acked = out.acked;
    e->attempt_bytes = chunk;
    reschedule(*e);
  }
}

void TransferScheduler::price_lanes(Level& level) {
  // Reserved tenants ride their dedicated lanes; best-effort tenants pool
  // their weights over the residual bandwidth. An inactive reserved tenant
  // does not shrink the residual — reservations only bind while the tenant
  // has streams on the wire.
  double reserved_active = 0.0;
  double weight_pool = 0.0;
  for (const auto& [tenant, lane] : level.lanes) {
    if (lane.qos.reserved_bps > 0.0) {
      reserved_active += lane.qos.reserved_bps;
    } else {
      weight_pool += lane.qos.weight;
    }
  }

  const double residual =
      std::max(0.0, level.channel->bandwidth_bps() - reserved_active);
  for (auto& [tenant, lane] : level.lanes) {
    const TenantQos& q = lane.qos;
    const double streams = double(lane.streams);
    if (q.reserved_bps > 0.0) {
      lane.priced_bps = q.reserved_bps / streams;
    } else if (weight_pool <= 0.0) {
      lane.priced_bps = residual / streams;
    } else {
      lane.priced_bps = residual * (q.weight / weight_pool) / streams;
    }
  }
}

void TransferScheduler::finish_attempt(Entry& e) {
  close_stream(e);
  e.rec.stats.wire_seconds += e.attempt_end - e.attempt_start;
  e.seg_inflight_s += e.attempt_end - e.attempt_start;
  if (config_.obs) {
    m_chunk_seconds_->observe(e.attempt_end - e.attempt_start);
    config_.obs->trace.span(
        obs::TimeDomain::kVirtual, on::kCatXfer, on::kEvChunk,
        e.attempt_start, e.attempt_end, std::uint32_t(e.rec.level),
        {{"offset", double(e.rec.acked_bytes)},
         {"bytes", double(e.attempt_bytes)},
         {"ok", e.attempt_acked ? 1.0 : 0.0}});
  }

  if (e.attempt_acked) {
    e.rec.acked_bytes += e.attempt_bytes;
    ++e.rec.stats.chunks_sent;
    e.rec.stats.bytes_acked += e.attempt_bytes;
    if (config_.obs) {
      m_chunks_sent_->add();
      m_bytes_acked_->add(e.attempt_bytes);
    }
    e.rec.chunk_attempts = 0;
    e.ready_at = now_;
    e.wait_since = now_;
    if (e.rec.acked_bytes >= e.rec.total_bytes) {
      commit(e);
    } else {
      e.rec.state = TransferState::kPending;
    }
    return;
  }

  // Failed attempt: retry with capped exponential backoff, or abort once
  // the per-chunk budget is exhausted.
  ++e.rec.stats.chunks_failed;
  e.rec.stats.bytes_wasted += e.attempt_bytes;
  if (config_.obs) {
    m_chunks_failed_->add();
    m_bytes_wasted_->add(e.attempt_bytes);
  }
  if (e.rec.chunk_attempts >= config_.retry.max_attempts_per_chunk) {
    std::ostringstream os;
    os << "transfer of " << e.rec.key << " to level " << e.rec.level
       << " aborted at chunk offset " << e.rec.acked_bytes << " after "
       << e.rec.chunk_attempts << " attempts";
    e.rec.error = os.str();
    close_causal(e, true);
    e.rec.state = TransferState::kAborted;
    ++e.rec.stats.transfers_aborted;
    if (config_.obs) {
      m_aborts_->add();
      config_.obs->trace.instant(
          obs::TimeDomain::kVirtual, on::kCatXfer, on::kEvAbort, now_,
          std::uint32_t(e.rec.level),
          {{"offset", double(e.rec.acked_bytes)},
           {"attempts", double(e.rec.chunk_attempts)}});
    }
    return;
  }
  const int retry_index = e.rec.chunk_attempts - 1;  // 0 for first retry
  const double backoff = std::min(
      config_.retry.initial_backoff_s *
          std::pow(config_.retry.backoff_multiplier, double(retry_index)),
      config_.retry.max_backoff_s);
  e.rec.backoff_history.push_back(backoff);
  ++e.rec.stats.retries;
  e.rec.stats.backoff_seconds += backoff;
  if (config_.obs) {
    m_retries_->add();
    m_backoff_seconds_->observe(backoff);
    config_.obs->trace.span(
        obs::TimeDomain::kVirtual, on::kCatXfer, on::kEvBackoff, now_,
        now_ + backoff, std::uint32_t(e.rec.level),
        {{"retry", double(retry_index + 1)}});
  }
  e.ready_at = now_ + backoff;
  e.seg_backoff_s += backoff;
  e.wait_since = e.ready_at;
  e.rec.state = TransferState::kPending;
}

void TransferScheduler::run_events(double limit) {
  for (;;) {
    start_ready_attempts();
    // What is still pending backs off past now_ and no attempt ends before
    // now_, so the first event in the set is the next one.
    const double next = events_.empty() ? kInf : events_.begin()->time;
    if (next == kInf || next > limit) break;
    now_ = std::max(now_, next);
    // Attempts ending at one instant finish in id order.
    collect_due(true);
    for (Entry* e : due_) {
      finish_attempt(*e);
      reschedule(*e);
    }
  }
}

void TransferScheduler::run_until_idle() { run_events(kInf); }

void TransferScheduler::run_until(double t) {
  AIC_CHECK_MSG(t >= now_, "virtual clock cannot run backwards (now "
                               << now_ << ", asked " << t << ")");
  run_events(t);
  now_ = t;
}

void TransferScheduler::interrupt_entry(Entry& e) {
  if (e.attempt_active) {
    // The in-flight chunk dies with the failure; charge the wire time
    // actually elapsed, nothing is acked.
    close_stream(e);
    e.rec.stats.wire_seconds += std::max(0.0, now_ - e.attempt_start);
    e.seg_inflight_s += std::max(0.0, now_ - e.attempt_start);
    if (config_.obs) {
      config_.obs->trace.span(
          obs::TimeDomain::kVirtual, on::kCatXfer, on::kEvChunk,
          e.attempt_start, now_, std::uint32_t(e.rec.level),
          {{"offset", double(e.rec.acked_bytes)},
           {"bytes", double(e.attempt_bytes)},
           {"ok", 0.0},
           {"lost", 1.0}});
    }
  } else {
    e.seg_drainq_s += std::max(0.0, now_ - e.wait_since);
    refund_backoff(e);
  }
  e.stall_since = now_;
  e.rec.state = TransferState::kInterrupted;
  ++e.rec.stats.transfers_interrupted;
  reschedule(e);
  if (config_.obs) {
    m_interrupts_->add();
    config_.obs->trace.instant(
        obs::TimeDomain::kVirtual, on::kCatXfer, on::kEvInterrupt, now_,
        std::uint32_t(e.rec.level), {{"acked", double(e.rec.acked_bytes)}});
  }
}

void TransferScheduler::refund_backoff(Entry& e) {
  if (e.rec.state == TransferState::kPending && e.ready_at > now_) {
    e.seg_backoff_s -= e.ready_at - now_;
  }
}

void TransferScheduler::resume_entry(Entry& e) {
  e.rec.state = TransferState::kPending;
  e.rec.chunk_attempts = 0;  // fresh budget for the resumed drain
  e.ready_at = now_;
  e.seg_stalled_s += std::max(0.0, now_ - e.stall_since);
  e.wait_since = now_;
  reschedule(e);
  if (config_.obs) {
    m_resumes_->add();
    config_.obs->trace.instant(
        obs::TimeDomain::kVirtual, on::kCatXfer, on::kEvResume, now_,
        std::uint32_t(e.rec.level),
        {{"acked", double(e.rec.acked_bytes)},
         {"total", double(e.rec.total_bytes)}});
  }
}

std::size_t TransferScheduler::interrupt_level(int level) {
  due_.clear();
  for (const Event& ev : events_) {
    if (ev.entry->rec.level == level) due_.push_back(ev.entry);
  }
  sort_by_id(due_);
  for (Entry* e : due_) interrupt_entry(*e);
  return due_.size();
}

std::size_t TransferScheduler::resume_level(int level) {
  std::size_t resumed = 0;
  for (auto& [id, e] : entries_) {
    if (e.rec.level != level ||
        e.rec.state != TransferState::kInterrupted) {
      continue;
    }
    resume_entry(e);
    ++resumed;
  }
  return resumed;
}

bool TransferScheduler::interrupt(TransferId id) {
  auto it = entries_.find(id);
  AIC_CHECK_MSG(it != entries_.end(), "interrupt of unknown transfer " << id);
  Entry& e = it->second;
  if (e.rec.state != TransferState::kPending &&
      e.rec.state != TransferState::kInFlight) {
    return false;
  }
  interrupt_entry(e);
  return true;
}

bool TransferScheduler::resume(TransferId id) {
  auto it = entries_.find(id);
  AIC_CHECK_MSG(it != entries_.end(), "resume of unknown transfer " << id);
  Entry& e = it->second;
  if (e.rec.state != TransferState::kInterrupted) return false;
  resume_entry(e);
  return true;
}

void TransferScheduler::discard(TransferId id) {
  auto it = entries_.find(id);
  AIC_CHECK_MSG(it != entries_.end(), "discard of unknown transfer " << id);
  Entry& e = it->second;
  if (e.attempt_active) close_stream(e);
  if (!e.rec.terminal()) {
    // Dropping a live drain abandons its checkpoint: close the chain
    // aborted so the attribution ledger balances.
    refund_backoff(e);
    close_causal(e, true);
  }
  if (e.event) events_.erase(*e.event);
  spare_keys_.push_back(e.level->keys.extract(e.rec.key));
  discarded_stats_ += e.rec.stats;
  spare_entries_.push_back(entries_.extract(it));
  spare_entries_.back().mapped() = Entry{};  // frees the payload now
}

const TransferRecord& TransferScheduler::record(TransferId id) const {
  auto it = entries_.find(id);
  AIC_CHECK_MSG(it != entries_.end(), "unknown transfer " << id);
  return it->second.rec;
}

void TransferScheduler::rethrow_if_aborted(TransferId id) const {
  const TransferRecord& rec = record(id);
  if (rec.state == TransferState::kAborted) {
    throw TransferError(rec.level, rec.acked_bytes, rec.error);
  }
}

Stats TransferScheduler::stats() const {
  Stats total = discarded_stats_;
  for (const auto& [id, e] : entries_) total += e.rec.stats;
  return total;
}

}  // namespace aic::xfer
