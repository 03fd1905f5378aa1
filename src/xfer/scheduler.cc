#include "xfer/scheduler.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>
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
  Level& l = it->second;
  const double capacity = l.channel->bandwidth_bps();
  double reserved = qos.reserved_bps;
  for (const auto& [t, lane] : l.lane_of) {
    if (t != tenant) reserved += l.lanes[lane].qos.reserved_bps;
  }
  if (reserved > capacity) {
    std::ostringstream os;
    os << "reservation set on level " << level << " demands " << reserved
       << " B/s but the channel provides " << capacity
       << " B/s (adding tenant " << tenant << " at " << qos.reserved_bps
       << " B/s)";
    throw ReservationError(level, reserved, capacity, os.str());
  }
  // An open lane's next start batch prices at the new contract.
  l.lanes[lane_index(l, tenant)].qos = qos;
}

TenantQos TransferScheduler::tenant_qos(int level, std::uint64_t tenant) const {
  auto it = levels_.find(level);
  AIC_CHECK_MSG(it != levels_.end(),
                "tenant_qos on unregistered level " << level);
  const Level& l = it->second;
  const auto lane = l.lane_of.find(tenant);
  return lane == l.lane_of.end() ? TenantQos{} : l.lanes[lane->second].qos;
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
  Level& l = lit->second;
  bool fresh_key = false;
  if (spare_keys_.empty()) {
    fresh_key = l.keys.insert(key).second;
  } else {
    spare_keys_.back().value() = key;
    auto ins = l.keys.insert(std::move(spare_keys_.back()));
    fresh_key = ins.inserted;
    if (fresh_key) {
      spare_keys_.pop_back();
    } else {
      spare_keys_.back() = std::move(ins.node);  // kept for the next one
    }
  }
  AIC_CHECK_MSG(fresh_key, "duplicate live transfer of "
                               << key << " to level " << level);
  Entry& e = take_slot();
  e.rec.id = next_id_++;
  e.rec.key = std::move(key);
  e.rec.level = level;
  e.rec.tenant = tenant;
  e.rec.total_bytes = total_bytes;
  e.rec.submit_time = now_;
  e.data = std::move(data);
  e.level = &l;
  e.lane = lane_index(l, tenant);
  e.synthetic = synthetic;
  e.ready_at = now_;
  e.wait_since = now_;
  index_insert(e.rec.id, &e);
  reschedule(e);
  return e.rec.id;
}

TransferScheduler::Entry* TransferScheduler::find(TransferId id) const {
  if (index_.empty()) return nullptr;
  const std::size_t mask = index_.size() - 1;
  for (std::size_t i = home(id);; i = (i + 1) & mask) {
    if (index_[i].id == id) return index_[i].entry;
    if (index_[i].id == 0) return nullptr;
  }
}

TransferScheduler::Entry& TransferScheduler::entry(TransferId id,
                                                   const char* op) const {
  Entry* e = find(id);
  AIC_CHECK_MSG(e != nullptr, op << "unknown transfer " << id);
  return *e;
}

TransferScheduler::Entry& TransferScheduler::take_slot() {
  if (free_slots_.empty()) {
    blocks_.push_back(std::make_unique<Entry[]>(kSlotsPerBlock));
    Entry* block = blocks_.back().get();
    for (std::size_t i = kSlotsPerBlock; i-- > 0;) {
      free_slots_.push_back(block + i);
    }
    // Keep the index at most half full: rebuild it at twice the slots.
    const std::size_t buckets = 2 * blocks_.size() * kSlotsPerBlock;
    if (index_.size() < buckets) {
      std::vector<Bucket> old = std::exchange(
          index_, std::vector<Bucket>(std::bit_ceil(buckets)));
      index_shift_ = 64 - std::countr_zero(index_.size());
      for (const Bucket& b : old) {
        if (b.id != 0) index_insert(b.id, b.entry);
      }
    }
  }
  Entry* e = free_slots_.back();
  free_slots_.pop_back();
  return *e;
}

void TransferScheduler::index_insert(TransferId id, Entry* e) {
  const std::size_t mask = index_.size() - 1;
  std::size_t i = home(id);
  while (index_[i].id != 0) i = (i + 1) & mask;
  index_[i] = {id, e};
}

void TransferScheduler::index_erase(TransferId id) {
  const std::size_t mask = index_.size() - 1;
  std::size_t hole = home(id);
  while (index_[hole].id != id) hole = (hole + 1) & mask;
  // Backward-shift deletion: a later bucket of the probe run moves into
  // the hole unless that would put it before its home.
  for (std::size_t i = (hole + 1) & mask; index_[i].id != 0;
       i = (i + 1) & mask) {
    if (((i - home(index_[i].id)) & mask) >= ((i - hole) & mask)) {
      index_[hole] = index_[i];
      hole = i;
    }
  }
  index_[hole] = Bucket{};
}

std::uint32_t TransferScheduler::lane_index(Level& level,
                                            std::uint64_t tenant) {
  const auto [it, fresh] =
      level.lane_of.try_emplace(tenant, std::uint32_t(level.lanes.size()));
  if (fresh) level.lanes.push_back(Lane{tenant, TenantQos{}, 0, 0.0});
  return it->second;
}

bool TransferScheduler::idle() const { return events_.empty(); }

std::size_t TransferScheduler::runnable_count() const {
  return events_.size();
}

std::size_t TransferScheduler::interrupted_count() const {
  std::size_t n = 0;
  for (const auto& [id, level] : levels_) n += level.interrupted.size();
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
  entry(id, "annotate of ").causal_id = causal_id;
}

void TransferScheduler::reschedule(Entry& e) {
  if (e.rec.state != TransferState::kPending &&
      e.rec.state != TransferState::kInFlight) {
    if (e.heap_pos != kNone) erase_event(e);
    return;
  }
  const double t = e.attempt_active ? e.attempt_end : e.ready_at;
  if (e.heap_pos == kNone) {
    events_.push_back({t, e.rec.id, &e});
    sift_up(events_.size() - 1);
  } else if (events_[e.heap_pos].time != t) {
    events_[e.heap_pos].time = t;
    sift_down(sift_up(e.heap_pos));
  }
}

void TransferScheduler::place(std::size_t pos, const Event& ev) {
  events_[pos] = ev;
  ev.entry->heap_pos = std::uint32_t(pos);
}

std::size_t TransferScheduler::sift_up(std::size_t pos) {
  const Event ev = events_[pos];
  while (pos > 0 && ev < events_[(pos - 1) / 2]) {
    place(pos, events_[(pos - 1) / 2]);
    pos = (pos - 1) / 2;
  }
  place(pos, ev);
  return pos;
}

void TransferScheduler::sift_down(std::size_t pos) {
  const Event ev = events_[pos];
  for (;;) {
    std::size_t child = 2 * pos + 1;
    if (child >= events_.size()) break;
    if (child + 1 < events_.size() && events_[child + 1] < events_[child]) {
      ++child;
    }
    if (!(events_[child] < ev)) break;
    place(pos, events_[child]);
    pos = child;
  }
  place(pos, ev);
}

void TransferScheduler::erase_event(Entry& e) {
  const std::size_t pos = e.heap_pos;
  e.heap_pos = kNone;
  const Event last = events_.back();
  events_.pop_back();
  if (pos == events_.size()) return;
  place(pos, last);
  sift_down(sift_up(pos));
}

void TransferScheduler::collect_due(bool in_flight) {
  due_.clear();
  collect_due_below(0, in_flight);
  sort_by_id(due_);
}

void TransferScheduler::collect_due_below(std::size_t pos, bool in_flight) {
  // A node later than now_ has only later nodes below it.
  if (pos >= events_.size() || events_[pos].time > now_) return;
  Entry* e = events_[pos].entry;
  if (e->attempt_active == in_flight) due_.push_back(e);
  collect_due_below(2 * pos + 1, in_flight);
  collect_due_below(2 * pos + 2, in_flight);
}

void TransferScheduler::open_stream(Entry& e) {
  Level& level = *e.level;
  Lane& lane = level.lanes[e.lane];
  if (lane.streams++ == 0) {
    const auto at = std::lower_bound(
        level.active.begin(), level.active.end(), lane.tenant,
        [&level](std::uint32_t i, std::uint64_t tenant) {
          return level.lanes[i].tenant < tenant;
        });
    level.active.insert(at, e.lane);
  }
  level.starting = true;
}

void TransferScheduler::close_stream(Entry& e) {
  Level& level = *e.level;
  if (--level.lanes[e.lane].streams == 0) {
    level.active.erase(
        std::find(level.active.begin(), level.active.end(), e.lane));
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
        chunk, e->level->lanes[e->lane].priced_bps);
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
  for (const std::uint32_t i : level.active) {
    const Lane& lane = level.lanes[i];
    if (lane.qos.reserved_bps > 0.0) {
      reserved_active += lane.qos.reserved_bps;
    } else {
      weight_pool += lane.qos.weight;
    }
  }

  const double residual =
      std::max(0.0, level.channel->bandwidth_bps() - reserved_active);
  for (const std::uint32_t i : level.active) {
    Lane& lane = level.lanes[i];
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
    // now_, so the heap's top is the next event.
    const double next = events_.empty() ? kInf : events_.front().time;
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
  e.interrupted_pos = std::uint32_t(e.level->interrupted.size());
  e.level->interrupted.push_back(&e);
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

void TransferScheduler::unlist_interrupted(Entry& e) {
  std::vector<Entry*>& list = e.level->interrupted;
  list[e.interrupted_pos] = list.back();
  list[e.interrupted_pos]->interrupted_pos = e.interrupted_pos;
  list.pop_back();
  e.interrupted_pos = kNone;
}

void TransferScheduler::resume_entry(Entry& e) {
  unlist_interrupted(e);
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
  const auto it = levels_.find(level);
  if (it == levels_.end()) return 0;
  due_ = it->second.interrupted;
  sort_by_id(due_);
  for (Entry* e : due_) resume_entry(*e);
  return due_.size();
}

bool TransferScheduler::interrupt(TransferId id) {
  Entry& e = entry(id, "interrupt of ");
  if (e.rec.state != TransferState::kPending &&
      e.rec.state != TransferState::kInFlight) {
    return false;
  }
  interrupt_entry(e);
  return true;
}

bool TransferScheduler::resume(TransferId id) {
  Entry& e = entry(id, "resume of ");
  if (e.rec.state != TransferState::kInterrupted) return false;
  resume_entry(e);
  return true;
}

void TransferScheduler::discard(TransferId id) {
  Entry& e = entry(id, "discard of ");
  if (e.attempt_active) close_stream(e);
  if (!e.rec.terminal()) {
    // Dropping a live drain abandons its checkpoint: close the chain
    // aborted so the attribution ledger balances.
    refund_backoff(e);
    close_causal(e, true);
  }
  if (e.heap_pos != kNone) erase_event(e);
  if (e.rec.state == TransferState::kInterrupted) unlist_interrupted(e);
  spare_keys_.push_back(e.level->keys.extract(e.rec.key));
  discarded_stats_ += e.rec.stats;
  index_erase(id);
  e = Entry{};  // frees the payload now
  free_slots_.push_back(&e);
}

const TransferRecord& TransferScheduler::record(TransferId id) const {
  return entry(id, "").rec;
}

void TransferScheduler::rethrow_if_aborted(TransferId id) const {
  const TransferRecord& rec = record(id);
  if (rec.state == TransferState::kAborted) {
    throw TransferError(rec.level, rec.acked_bytes, rec.error);
  }
}

Stats TransferScheduler::stats() const {
  std::vector<const Entry*> live;
  for (const auto& block : blocks_) {
    for (std::size_t i = 0; i < kSlotsPerBlock; ++i) {
      if (block[i].rec.id != 0) live.push_back(&block[i]);
    }
  }
  sort_by_id(live);
  Stats total = discarded_stats_;
  for (const Entry* e : live) total += e->rec.stats;
  return total;
}

}  // namespace aic::xfer
