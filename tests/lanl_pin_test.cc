// Golden pins for the LANL log synthesis and the fleet mix harvested from
// it: every generate_log record (id, the bit patterns of its submit,
// dispatch and end times, and its placement pairs), the matching
// candidate_flags, and every field of two lanl_fleet_jobs mixes, each
// folded into one FNV-1a digest. A faster dispatcher or candidacy check
// must reproduce these bit for bit — including which of several
// equal-usage nodes a job lands on.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "fnv1a.h"
#include "trace/lanl_trace.h"
#include "workload/lanl_trace.h"

namespace aic::trace {
namespace {

std::uint64_t log_digest(const std::vector<JobRecord>& log) {
  testing::Fnv1a h;
  h.u64(log.size());
  for (const JobRecord& job : log) {
    h.u64(job.job_id);
    h.f64(job.submit_time);
    h.f64(job.dispatch_time);
    h.f64(job.end_time);
    h.u64(job.placement.size());
    for (const auto& [node, count] : job.placement) {
      h.u64(std::uint64_t(node));
      h.u64(std::uint64_t(count));
    }
  }
  return h.value();
}

std::uint64_t flags_digest(const std::vector<bool>& flags) {
  testing::Fnv1a h;
  h.u64(flags.size());
  for (const bool f : flags) h.u64(f ? 1 : 0);
  return h.value();
}

struct LogPin {
  int system_id;
  SchedulerPolicy policy;
  std::size_t jobs;
  std::size_t candidates;
  std::uint64_t log;
  std::uint64_t flags;
};

void expect_pinned(const TraceConfig& base, const LogPin& pin) {
  const SystemConfig sys = system_by_id(pin.system_id);
  TraceConfig cfg = base;
  cfg.policy = pin.policy;
  const auto log = generate_log(sys, cfg);
  const auto flags = candidate_flags(log, sys);
  std::size_t candidates = 0;
  for (const bool f : flags) candidates += f;
  const char* policy =
      pin.policy == SchedulerPolicy::kPacked ? "packed" : "rectified";
  EXPECT_EQ(log.size(), pin.jobs) << pin.system_id << " " << policy;
  EXPECT_EQ(candidates, pin.candidates) << pin.system_id << " " << policy;
  EXPECT_EQ(log_digest(log), pin.log) << pin.system_id << " " << policy;
  EXPECT_EQ(flags_digest(flags), pin.flags) << pin.system_id << " " << policy;
}

constexpr SchedulerPolicy kPacked = SchedulerPolicy::kPacked;
constexpr SchedulerPolicy kRectified = SchedulerPolicy::kRectified;

TEST(LanlPin, TenDayLogsArePinned) {
  TraceConfig cfg;
  cfg.days = 10;
  cfg.seed = 42;
  const LogPin pins[] = {
      {15, kPacked, 382, 193, 0x50d46a432baaeed4ull, 0x835af9384bc4f741ull},
      {15, kRectified, 382, 193, 0x50d46a432baaeed4ull, 0x835af9384bc4f741ull},
      {20, kPacked, 363, 63, 0x33ed79e11dab3127ull, 0xd9f0cc46abab5e68ull},
      {20, kRectified, 363, 125, 0x5f8bd2478db83f29ull, 0x40cbfe125ab26128ull},
      {23, kPacked, 81, 68, 0x289c564cdfa55727ull, 0x27c9e3e327011174ull},
      {23, kRectified, 81, 68, 0x289c564cdfa55727ull, 0x27c9e3e327011174ull},
      {8, kPacked, 160, 89, 0x1d1503791c0deddbull, 0x21e024bba071c9c4ull},
      {8, kRectified, 160, 133, 0x101df8313e976cbaull, 0xe42b3c15a5433c24ull},
      {16, kPacked, 257, 99, 0x0b9d0b0c2e0b0cb7ull, 0xd3bdf2935ca79f1eull},
      {16, kRectified, 257, 110, 0xf63e7b630a2c501cull, 0x8bb3192b4a0168ffull},
  };
  for (const LogPin& pin : pins) expect_pinned(cfg, pin);
}

TEST(LanlPin, LateHarvestCycleIsPinned) {
  // The 53rd cycle of a seed-42 fleet harvest: three rectified days.
  TraceConfig cfg;
  cfg.days = 3;
  cfg.seed = 42 + 52 * 0x9E3779B9ULL;
  const LogPin pins[] = {
      {15, kRectified, 117, 58, 0xbd8eabd1b9bb2975ull, 0x728dee15b9c8a330ull},
      {20, kRectified, 123, 43, 0xdb16ae5124154258ull, 0xe9fcb3547ef73e5full},
      {23, kRectified, 25, 20, 0x7901c0c3fe2e4276ull, 0x055977b302f557bcull},
      {8, kRectified, 40, 34, 0x6dadff3854274880ull, 0xa76fbf1d4012bd2dull},
      {16, kRectified, 70, 33, 0xb9aa9b03bf7ba1d1ull, 0x5dfaad0535e44562ull},
  };
  for (const LogPin& pin : pins) expect_pinned(cfg, pin);
}

std::uint64_t mix_digest(const std::vector<workload::FleetJobSpec>& jobs) {
  testing::Fnv1a h;
  h.u64(jobs.size());
  for (const workload::FleetJobSpec& job : jobs) {
    h.u64(job.job_id);
    h.u64(job.tenant);
    h.f64(job.arrival_s);
    h.f64(job.work_s);
    h.u64(job.footprint_bytes);
    h.f64(job.dirty_fraction);
    h.u64(std::uint64_t(job.system_id));
    h.u64(std::uint64_t(job.processes));
    h.u64(job.resizes.size());
    for (const auto& r : job.resizes) {
      h.f64(r.at_progress);
      h.f64(r.factor);
    }
  }
  return h.value();
}

/// The fleet benchmarks' mix (bench/fleet_scale, perfbench fleet-10k).
workload::FleetMixConfig bench_mix(std::size_t jobs, std::uint64_t seed) {
  workload::FleetMixConfig mix;
  mix.jobs = jobs;
  mix.tenants = 8;
  mix.seed = seed;
  mix.arrival_horizon_s = 300.0;
  mix.min_work_s = 60.0;
  mix.max_work_s = 600.0;
  mix.pages_per_process = 256;
  return mix;
}

TEST(LanlPin, TenThousandJobMixIsPinned) {
  EXPECT_EQ(mix_digest(workload::lanl_fleet_jobs(bench_mix(10000, 42))),
            0x34cb606a0bdba8a7ull);
}

TEST(LanlPin, ThousandJobSeed7MixIsPinned) {
  EXPECT_EQ(mix_digest(workload::lanl_fleet_jobs(bench_mix(1000, 7))),
            0x466f1d351b4bea30ull);
}

}  // namespace
}  // namespace aic::trace
