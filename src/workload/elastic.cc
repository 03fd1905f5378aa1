#include "workload/elastic.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "common/check.h"

namespace aic::workload {
namespace {

/// Fraction of the post-resize footprint rewritten by the migration burst
/// (state repacking across the new node set).
constexpr double kMigrateFraction = 0.25;

/// Independent deterministic stream for resize `segment`'s migration (and
/// the segment's mutation seed): everything a reconfiguration does to the
/// space is a pure function of (base seed, segment index).
std::uint64_t segment_seed(std::uint64_t base_seed, std::size_t segment) {
  std::uint64_t s = base_seed ^ (std::uint64_t(segment) * 0xBF58476D1CE4E5B9ULL);
  return splitmix64(s);
}

}  // namespace

ElasticWorkload::ElasticWorkload(ElasticProfile profile)
    : profile_(std::move(profile)) {
  AIC_CHECK_MSG(profile_.base_cores >= 1, "elastic job needs >= 1 core");
  double prev = 0.0;
  for (const ResizeEvent& ev : profile_.resizes) {
    AIC_CHECK_MSG(ev.at_progress > prev,
                  "resize events must be strictly ascending in progress");
    AIC_CHECK_MSG(ev.cores >= 1, "resize to zero cores");
    prev = ev.at_progress;
  }
  rebuild_inner(0.0);
}

WorkloadProfile ElasticWorkload::scaled_profile(const ElasticProfile& profile,
                                                std::size_t segment) {
  AIC_CHECK(segment <= profile.resizes.size());
  const std::uint64_t cores =
      segment == 0 ? profile.base_cores : profile.resizes[segment - 1].cores;
  const double f = double(cores) / double(profile.base_cores);
  WorkloadProfile p = profile.base;
  p.footprint_pages = std::max<std::uint64_t>(
      64, std::uint64_t(std::llround(double(p.footprint_pages) * f)));
  for (PhaseSpec& phase : p.phases) {
    phase.dirty_pages_per_sec *= f;
    phase.alloc_pages_per_sec *= f;
    phase.free_pages_per_sec *= f;
  }
  // Decorrelate the per-tick mutation streams across segments — a resized
  // job does not touch the same page sequence it would have at the old
  // width, which is exactly the statistics shift the predictor must chase.
  if (segment > 0) p.seed = segment_seed(profile.base.seed, segment);
  return p;
}

std::uint64_t ElasticWorkload::cores() const {
  return applied_ == 0 ? profile_.base_cores
                       : profile_.resizes[applied_ - 1].cores;
}

std::uint64_t ElasticWorkload::footprint_pages() const {
  return inner_->profile().footprint_pages;
}

double ElasticWorkload::scale_factor() const {
  return double(cores()) / double(profile_.base_cores);
}

void ElasticWorkload::rebuild_inner(double progress) {
  inner_ = std::make_unique<SyntheticWorkload>(
      scaled_profile(profile_, applied_));
  if (progress > 0.0) {
    Bytes blob;
    ByteWriter w(blob);
    w.f64(progress);
    inner_->restore_cpu_state(blob);
  }
}

void ElasticWorkload::initialize(mem::AddressSpace& space) {
  inner_->initialize(space);
}

void ElasticWorkload::step(mem::AddressSpace& space, double dt) {
  AIC_CHECK(dt >= 0.0);
  const double end = std::min(inner_->progress() + dt, base_time());
  for (;;) {
    // Fire every resize the current progress has reached — including one
    // sitting exactly at the restore point that a rolled-back run is about
    // to re-tread.
    if (applied_ < profile_.resizes.size() &&
        profile_.resizes[applied_].at_progress <=
            inner_->progress() + 1e-12) {
      apply_resize(space);
      continue;
    }
    const double cur = inner_->progress();
    if (cur + 1e-12 >= end) break;
    double target = end;
    if (applied_ < profile_.resizes.size())
      target = std::min(target, profile_.resizes[applied_].at_progress);
    inner_->step(space, target - cur);
  }
}

void ElasticWorkload::apply_resize(mem::AddressSpace& space) {
  const ResizeEvent& ev = profile_.resizes[applied_];
  MigrationStats stats;
  stats.cores_before = cores();
  stats.cores_after = ev.cores;

  const std::uint64_t old_fp = inner_->profile().footprint_pages;
  const double progress = inner_->progress();
  ++applied_;
  rebuild_inner(progress);
  const std::uint64_t new_fp = inner_->profile().footprint_pages;

  Rng rng(segment_seed(profile_.base.seed, applied_) ^
          0x94D049BB133111EBULL);
  if (new_fp > old_fp) {
    // Growth: the redistributed state spreads into fresh pages, filled
    // deterministically (the data existed on the old nodes; its content
    // here is part of the synthetic state like initialize()'s).
    for (mem::PageId id = old_fp; id < new_fp; ++id) {
      if (space.contains(id)) continue;
      space.allocate(id);
      ++stats.pages_allocated;
      space.mutate(id, [&](std::span<std::uint8_t> b) {
        for (std::size_t i = 0; i + 8 <= b.size(); i += 8) {
          const std::uint64_t word = rng() & 0x00FFFFFFFFFFFFFFULL;
          std::memcpy(b.data() + i, &word, 8);
        }
      });
    }
  } else if (new_fp < old_fp) {
    // Shrink: surviving state is packed into [0, new_fp); everything
    // beyond it (old data tail and the old heap region) is released.
    for (mem::PageId id : space.live_pages()) {
      if (id < new_fp) continue;
      space.free_page(id);
      ++stats.pages_freed;
    }
  }
  // The repacking burst: redistribution rewrites slices of the retained
  // pages, dirtying a kMigrateFraction share of the new footprint.
  const std::uint64_t touches =
      std::uint64_t(kMigrateFraction * double(new_fp));
  for (std::uint64_t i = 0; i < touches; ++i) {
    const mem::PageId id = rng.uniform_u64(new_fp);
    if (!space.contains(id)) {
      space.allocate(id);
      ++stats.pages_allocated;
    }
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      const std::size_t len = 256;
      const std::size_t off = rng.uniform_u64(b.size() - len + 1);
      for (std::size_t j = 0; j < len; ++j)
        b[off + j] = std::uint8_t(rng());
    });
    ++stats.pages_rewritten;
  }
  last_migration_ = stats;
}

Bytes ElasticWorkload::cpu_state() const { return inner_->cpu_state(); }

void ElasticWorkload::restore_cpu_state(ByteSpan state) {
  ByteReader r(state);
  const double progress = r.f64();
  AIC_CHECK(r.done());
  AIC_CHECK(progress >= 0.0 && progress <= base_time() + 1e-9);
  // Re-derive the segment from progress alone: a checkpoint at progress p
  // always has every resize with at_progress <= p applied to its memory
  // image (step() fires them before returning).
  applied_ = 0;
  while (applied_ < profile_.resizes.size() &&
         profile_.resizes[applied_].at_progress <= progress + 1e-12)
    ++applied_;
  rebuild_inner(progress);
  last_migration_.reset();
}

}  // namespace aic::workload
