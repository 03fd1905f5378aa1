#include "storage/async_checkpointer.h"

#include "common/check.h"
#include "obs/clock.h"
#include "obs/names.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace aic::storage {

namespace {
namespace on = obs::names;
}  // namespace

AsyncCheckpointer::AsyncCheckpointer(Config config)
    : config_(std::move(config)),
      chain_(config_.chain),
      worker_([this] { worker_loop(); }) {
  // Safe to resolve after worker_ starts: the worker only reads these
  // inside process(), which a submit() (sequenced after this constructor)
  // must release through the queue mutex first.
  if (obs::Hub* hub = config_.chain.obs) {
    m_capture_s_ = hub->metrics.histogram(
        on::kCkptCaptureSeconds,
        obs::Histogram::exponential_buckets(1e-6, 4.0, 16));
    m_compress_s_ = hub->metrics.histogram(
        on::kCkptCompressSeconds,
        obs::Histogram::exponential_buckets(1e-6, 4.0, 16));
  }
}

AsyncCheckpointer::~AsyncCheckpointer() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  worker_.join();
}

std::uint64_t AsyncCheckpointer::submit(mem::AddressSpace& space,
                                        ByteSpan cpu_state, double app_time) {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint64_t sequence = next_sequence_++;
  lock.unlock();
  // The chain's full schedule is a pure function of the sequence number
  // (CheckpointChain::is_full), so the submitter decides what to snapshot
  // without reading chain state the worker owns, and the worker's capture
  // of this job makes the same decision.
  const bool full = ckpt::CheckpointChain::is_full(config_.chain, sequence);

  // The blocking L1 step: this page-image capture is the one data copy the
  // paper charges as c1 — everything after it (compression, shipping) runs
  // on the checkpointing core. The snapshot and live-set are then MOVED
  // into the job; only the caller-owned cpu_state span must be copied.
  obs::Hub* hub = config_.chain.obs;
  const double cap0 = hub ? hub->trace.wall_seconds() : 0.0;
  mem::Snapshot pages =
      full ? mem::Snapshot::capture(space)
           : mem::Snapshot::capture_pages(space, space.dirty_pages());
  std::vector<mem::PageId> live = space.live_pages();
  space.protect_all();  // next interval's dirty tracking starts now
  if (hub != nullptr) {
    const double cap1 = hub->trace.wall_seconds();
    hub->trace.span(obs::TimeDomain::kWall, on::kCatCkpt, on::kEvCapture,
                    cap0, cap1, 0,
                    {{"seq", double(sequence)}, {"full", full ? 1.0 : 0.0}});
    m_capture_s_->observe(cap1 - cap0);
  }

  double capture_s = 0.0;
  if (hub != nullptr) capture_s = hub->trace.wall_seconds() - cap0;

  Job job{.sequence = sequence,
          .app_time = app_time,
          .cpu_state = Bytes(cpu_state.begin(), cpu_state.end()),
          .pages = std::move(pages),
          .live = std::move(live),
          .capture_s = capture_s};
  lock.lock();
  queue_.push_back(std::move(job));
  lock.unlock();
  cv_.notify_all();
  return sequence;
}

bool AsyncCheckpointer::busy() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return in_flight_ || !queue_.empty();
}

void AsyncCheckpointer::drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait(lock, [this] { return queue_.empty() && !in_flight_; });
}

ckpt::RestartEngine::Restored AsyncCheckpointer::restore() {
  drain();
  std::lock_guard<std::mutex> lock(mutex_);
  return chain_.restore();
}

std::uint64_t AsyncCheckpointer::completed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return completed_;
}

void AsyncCheckpointer::worker_loop() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_ && queue_.empty()) return;
      job = std::move(queue_.front());
      queue_.pop_front();
      in_flight_ = true;
    }
    process(std::move(job));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      in_flight_ = false;
      ++completed_;
    }
    cv_.notify_all();
  }
}

void AsyncCheckpointer::process(Job job) {
  obs::Hub* hub = config_.chain.obs;
  try {
    process_job(job, hub);
  } catch (const CheckError& e) {
    // The worker thread has no caller to propagate to — the rethrow below
    // reaches std::terminate. Leave a postmortem first (flight_recorder.h)
    // so the failed run is diagnosable from its artifact.
    if (hub != nullptr) {
      hub->trace.instant(obs::TimeDomain::kWall, on::kCatCkpt, on::kEvError,
                         hub->trace.wall_seconds(), 0,
                         {{"seq", double(job.sequence)}});
      hub->dump_postmortem("async-checkpointer", e.what());
    }
    throw;
  }
}

void AsyncCheckpointer::process_job(Job& job, obs::Hub* hub) {
  const std::uint64_t t0 = obs::wall_now_ns();
  const double c0 = hub ? hub->trace.wall_seconds() : 0.0;
  ckpt::CaptureStats stats;
  ckpt::CheckpointFile file;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stats = chain_.capture_pages(job.pages, job.live, job.cpu_state,
                                 job.app_time);
    if (config_.store != nullptr) file = chain_.files().back();
  }
  AsyncResult result;
  result.sequence = job.sequence;
  result.app_time = job.app_time;
  result.stats = stats;
  result.compress_ns = obs::wall_now_ns() - t0;
  if (hub != nullptr) {
    const double c1 = hub->trace.wall_seconds();
    hub->trace.span(obs::TimeDomain::kWall, on::kCatCkpt, on::kEvCompress,
                    c0, c1, 0,
                    {{"seq", double(job.sequence)},
                     {"file_bytes", double(stats.file_bytes)}});
    m_compress_s_->observe(c1 - c0);
  }
  if (config_.on_complete) config_.on_complete(result);
  if (config_.store != nullptr) {
    // The "remote checkpointer" half of the core: drain the file to L2/L3
    // through the store's transfer engine. Runs outside the lock so the
    // application thread can keep submitting while chunks are in flight.
    const double v0 = config_.store->xfer().now();
    result.placement = config_.store->put_checkpoint(file);
    result.landed = true;
    if (hub != nullptr) {
      hub->trace.span(obs::TimeDomain::kVirtual, on::kCatCkpt, on::kEvLand,
                      v0, config_.store->xfer().now(), 0,
                      {{"seq", double(job.sequence)},
                       {"raid_s", result.placement.raid},
                       {"remote_s", result.placement.remote}});
    }
    if (config_.on_landed) config_.on_landed(result);
  }
  if (hub != nullptr) {
    if (obs::Telemetry* tel = hub->telemetry()) {
      // One causal chain per checkpoint. Capture and compress are wall
      // seconds, the drain is virtual seconds — mixed clock domains, so
      // the total is the segment sum (close_total), not a timestamp delta.
      obs::CausalLog& log = tel->causal();
      const double compress_s = double(result.compress_ns) * 1e-9;
      const double drain_s =
          result.landed ? result.placement.raid + result.placement.remote
                        : 0.0;
      const std::uint64_t cid =
          log.open("seq" + std::to_string(job.sequence), 0, job.app_time);
      log.add(cid, obs::CausalSegment::kCapture, job.capture_s);
      log.add(cid, obs::CausalSegment::kCompress, compress_s);
      log.add(cid, obs::CausalSegment::kInFlight, drain_s);
      log.close_total(cid, job.capture_s + compress_s + drain_s, false);
    }
  }
}

}  // namespace aic::storage
