// Golden pin for sim::run_failure_sim. A fixed grid of configurations —
// both placements (analytic landing times and transfer-engine drains),
// rewind budgets, elastic jobs with and without re-planning, L3-only
// failures, slow remotes — is run and every FailureSimResult field is
// compared bit-exactly (doubles through std::bit_cast). Hub-attached
// entries also pin an FNV-1a digest over every virtual-domain trace event
// and every counter, so an extra RNG draw, a reordered landing time or a
// different rollback target moves at least one entry.
//
// A refactor of the simulator must leave every entry unchanged. When a
// behaviour change moves an entry on purpose, the failure message prints
// the new entry in source form; paste it and record the value it replaced.
#include <bit>
#include <cstdint>
#include <ostream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "common/units.h"
#include "failure/failure.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "sim/failure_sim.h"
#include "fnv1a.h"

namespace aic::sim {
namespace {

// ---- configurations ----

FailureSimConfig static_job(std::uint64_t seed) {
  FailureSimConfig cfg;
  cfg.benchmark = workload::SpecBenchmark::kBzip2;
  cfg.workload_scale = 0.125;
  cfg.failures = failure::FailureSpec::from_total(0.04);
  cfg.checkpoint_interval = 10.0;
  cfg.seed = seed;
  return cfg;
}

FailureSimConfig xfer_job(std::uint64_t seed) {
  FailureSimConfig cfg = static_job(seed);
  cfg.use_transfer_engine = true;
  return cfg;
}

FailureSimConfig rewind_job(std::uint64_t seed) {
  FailureSimConfig cfg = static_job(seed);
  cfg.failures = failure::FailureSpec::from_total(0.02);
  cfg.rewind_budget = 4;
  return cfg;
}

FailureSimConfig rewind_xfer_job(std::uint64_t seed) {
  FailureSimConfig cfg = rewind_job(seed);
  cfg.use_transfer_engine = true;
  return cfg;
}

FailureSimConfig elastic_job(std::uint64_t seed) {
  FailureSimConfig cfg = static_job(seed);
  cfg.failures = failure::FailureSpec::from_total(0.02);
  cfg.resizes = {{40.0, 8}, {90.0, 2}};
  return cfg;
}

FailureSimConfig elastic_static_job(std::uint64_t seed) {
  FailureSimConfig cfg = elastic_job(seed);
  cfg.replan_on_resize = false;
  return cfg;
}

FailureSimConfig elastic_rewind_job(std::uint64_t seed) {
  FailureSimConfig cfg = elastic_job(seed);
  cfg.rewind_budget = 4;
  return cfg;
}

/// Only level-3 failures against a sluggish remote: restores must reach
/// back to checkpoints whose L3 copy had landed.
FailureSimConfig l3_slow_remote_job(std::uint64_t seed) {
  FailureSimConfig cfg = static_job(seed);
  cfg.failures.lambda = {0.0, 0.0, 0.01};
  cfg.costs.b3_bps = 200.0 * kKB;
  return cfg;
}

/// Level-2 failures against a remote slow enough that failures catch
/// drains mid-flight.
FailureSimConfig l2_slow_remote_xfer_job(std::uint64_t seed) {
  FailureSimConfig cfg = static_job(seed);
  cfg.failures.lambda = {0.0, 0.02, 0.0};
  cfg.costs.b3_bps = 50.0 * kKB;
  cfg.use_transfer_engine = true;
  return cfg;
}

/// One 4 -> 8-core grow under a sparse static span: failures after the
/// grow roll back below the resize boundary, reverting it (the only grid
/// entry whose rollbacks revert a resize).
FailureSimConfig reverting_grow_job(std::uint64_t seed) {
  FailureSimConfig cfg = static_job(seed);
  cfg.failures = failure::FailureSpec::from_total(0.02);
  cfg.checkpoint_interval = 40.0;
  cfg.resizes = {{50.0, 8}};
  cfg.replan_on_resize = false;
  return cfg;
}

FailureSimConfig clean_job(std::uint64_t seed) {
  FailureSimConfig cfg = static_job(seed);
  cfg.benchmark = workload::SpecBenchmark::kSphinx3;
  cfg.failures = failure::FailureSpec{};
  cfg.checkpoint_interval = 20.0;
  return cfg;
}

// ---- canonical result text ----

std::string bits(double v) {
  std::ostringstream os;
  os << std::hex << std::bit_cast<std::uint64_t>(v);
  return os.str();
}

/// Every FailureSimResult field, doubles as their bit patterns.
std::string describe(const FailureSimResult& r) {
  std::ostringstream os;
  os << "t=" << bits(r.turnaround) << " b=" << bits(r.base_time)
     << " w=" << bits(r.final_checkpoint_interval)
     << " f=" << r.failures_by_level[0] << ',' << r.failures_by_level[1]
     << ',' << r.failures_by_level[2] << " ck=" << r.checkpoints
     << " rs=" << r.restores << " ok=" << r.final_state_verified
     << " dr=" << r.drains_resumed << " rz=" << r.resizes_applied
     << " rp=" << r.replans << " pr=" << r.checkpoints_pruned;
  const xfer::Stats& x = r.xfer_stats;
  os << " x=" << x.chunks_sent << ',' << x.chunks_failed << ','
     << x.retries << ',' << x.bytes_acked << ',' << x.bytes_wasted << ','
     << bits(x.wire_seconds) << ',' << bits(x.backoff_seconds) << ','
     << x.transfers_committed << ',' << x.transfers_aborted << ','
     << x.transfers_interrupted;
  return os.str();
}

/// FNV-1a over every virtual-domain trace event and every counter, plus
/// the virtual event count.
std::string describe(const obs::Hub& hub) {
  testing::Fnv1a h;
  std::size_t events = 0;
  for (const obs::TraceEvent& e : hub.trace.snapshot()) {
    if (e.domain != obs::TimeDomain::kVirtual) continue;
    ++events;
    h.str(e.category);
    h.str(e.name);
    h.u64(std::uint64_t(e.phase));
    h.f64(e.start);
    h.f64(e.duration);
    h.u64(e.track);
    for (std::size_t i = 0; i < e.arg_count; ++i) {
      h.str(e.args[i].key);
      h.f64(e.args[i].value);
    }
  }
  for (const auto& [name, value] : hub.metrics.snapshot().counters) {
    // The shard count follows the host's core count (the chain's
    // compress_workers is auto); every other counter counts virtual-time
    // events or payload bytes, which are host-independent.
    if (name == obs::names::kDeltaShards) continue;
    h.str(name);
    h.u64(value);
  }
  std::ostringstream os;
  os << " ev=" << events << " fnv=" << std::hex << h.value();
  return os.str();
}

// ---- the grid ----

struct Golden {
  const char* name;
  FailureSimConfig (*make)(std::uint64_t seed);
  std::uint64_t seed;
  bool hub;
  const char* expected;
};

void PrintTo(const Golden& g, std::ostream* os) { *os << g.name; }

/// `text` as adjacent string literals, split at spaces, for pasting.
std::string source_form(const std::string& text) {
  std::string out, line;
  std::istringstream words(text);
  std::string word;
  while (words >> word) {
    if (!line.empty() && line.size() + word.size() > 60) {
      out += "     \"" + line + " \"\n";
      line.clear();
    }
    line += (line.empty() ? "" : " ") + word;
  }
  return out + "     \"" + line + "\"";
}

const Golden kGrid[] = {
    {"AnalyticS11", static_job, 11, false,
     "t=406ba2c08798a03a b=4063000000000000 w=4024000000000000 "
     "f=1,7,4 ck=15 rs=12 ok=1 dr=0 rz=0 rp=0 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"AnalyticS22", static_job, 22, false,
     "t=40642e2a202eadae b=4063000000000000 w=4024000000000000 "
     "f=0,5,0 ck=15 rs=5 ok=1 dr=0 rz=0 rp=0 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"AnalyticS33", static_job, 33, false,
     "t=40662d7470165e4e b=4063000000000000 w=4024000000000000 "
     "f=0,5,2 ck=15 rs=7 ok=1 dr=0 rz=0 rp=0 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"XferS11", xfer_job, 11, false,
     "t=406ba294ad3613aa b=4063000000000000 w=4024000000000000 "
     "f=1,7,4 ck=15 rs=12 ok=1 dr=0 rz=0 rp=0 pr=0 "
     "x=198,0,0,11721340,0,40077159d68ff5aa,0,32,0,0"},
    {"XferS22", xfer_job, 22, false,
     "t=40642e1ea4d9cdad b=4063000000000000 w=4024000000000000 "
     "f=0,5,0 ck=15 rs=5 ok=1 dr=0 rz=0 rp=0 pr=0 "
     "x=198,0,0,11721340,0,40077159d68ff57a,0,32,0,0"},
    {"XferS33", xfer_job, 33, false,
     "t=40662d4d71b6468d b=4063000000000000 w=4024000000000000 "
     "f=0,5,2 ck=15 rs=7 ok=1 dr=0 rz=0 rp=0 pr=0 "
     "x=198,0,0,11721340,0,40077159d68ff5ba,0,32,0,0"},
    {"RewindS9", rewind_job, 9, false,
     "t=4064bcb3fa845dfd b=4063000000000000 w=4024000000000000 "
     "f=0,3,0 ck=15 rs=3 ok=1 dr=0 rz=0 rp=0 pr=12 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"RewindXferS17", rewind_xfer_job, 17, false,
     "t=40637c2667a50d45 b=4063000000000000 w=4024000000000000 "
     "f=0,1,0 ck=15 rs=1 ok=1 dr=0 rz=0 rp=0 pr=12 "
     "x=822,0,0,52898324,0,402a73037556e316,0,32,0,0"},
    {"ElasticReplanS3", elastic_job, 3, false,
     "t=4063fa5d6f858a76 b=4063000000000000 w=3ff0000000000000 "
     "f=0,2,1 ck=113 rs=3 ok=1 dr=0 rz=2 rp=2 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"ElasticReplanS5", elastic_job, 5, false,
     "t=4064ee2fb4a2d3d4 b=4063000000000000 w=3ff0000000000000 "
     "f=0,3,1 ck=113 rs=4 ok=1 dr=0 rz=2 rp=2 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"ElasticReplanS7", elastic_job, 7, false,
     "t=4063d7ad5b76c2a1 b=4063000000000000 w=3ff0000000000000 "
     "f=0,4,1 ck=113 rs=5 ok=1 dr=0 rz=2 rp=2 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"ElasticReplanS9", elastic_job, 9, false,
     "t=4064d5267b291af9 b=4063000000000000 w=3ff0000000000000 "
     "f=0,3,1 ck=113 rs=4 ok=1 dr=0 rz=2 rp=2 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"ElasticReplanS13", elastic_job, 13, false,
     "t=40638c42e2ba198b b=4063000000000000 w=3ff0000000000000 "
     "f=0,3,0 ck=113 rs=3 ok=1 dr=0 rz=2 rp=2 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"ElasticReplanS21", elastic_job, 21, false,
     "t=4064361cf9d7dac0 b=4063000000000000 w=3ff0000000000000 "
     "f=0,4,1 ck=113 rs=5 ok=1 dr=0 rz=2 rp=2 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"ElasticReplanS42", elastic_job, 42, false,
     "t=4063ab35e4ead2b7 b=4063000000000000 w=3ff0000000000000 "
     "f=0,2,0 ck=113 rs=2 ok=1 dr=0 rz=2 rp=2 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"ElasticStaticS3", elastic_static_job, 3, false,
     "t=4064a856e3663590 b=4063000000000000 w=4024000000000000 "
     "f=0,2,1 ck=15 rs=3 ok=1 dr=0 rz=2 rp=0 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"ElasticStaticS5", elastic_static_job, 5, false,
     "t=4065fe6fe9f4563c b=4063000000000000 w=4024000000000000 "
     "f=0,3,1 ck=15 rs=4 ok=1 dr=0 rz=2 rp=0 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"ElasticStaticS7", elastic_static_job, 7, false,
     "t=4065f522661e905f b=4063000000000000 w=4024000000000000 "
     "f=0,4,1 ck=15 rs=5 ok=1 dr=0 rz=2 rp=0 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"ElasticStaticS9", elastic_static_job, 9, false,
     "t=4065e51b81936ba5 b=4063000000000000 w=4024000000000000 "
     "f=0,3,1 ck=15 rs=4 ok=1 dr=0 rz=2 rp=0 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"ElasticStaticS13", elastic_static_job, 13, false,
     "t=406544a61cc67293 b=4063000000000000 w=4024000000000000 "
     "f=0,5,0 ck=15 rs=5 ok=1 dr=0 rz=2 rp=0 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"ElasticStaticS21", elastic_static_job, 21, false,
     "t=4067dd568b2a12a6 b=4063000000000000 w=4024000000000000 "
     "f=0,6,1 ck=15 rs=7 ok=1 dr=0 rz=2 rp=0 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"ElasticStaticS42", elastic_static_job, 42, false,
     "t=40640b1b78c236b3 b=4063000000000000 w=4024000000000000 "
     "f=0,2,0 ck=15 rs=2 ok=1 dr=0 rz=2 rp=0 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"ElasticRewindS9", elastic_rewind_job, 9, false,
     "t=40643857055c618b b=4063000000000000 w=3ff0000000000000 "
     "f=0,3,1 ck=113 rs=4 ok=1 dr=0 rz=2 rp=2 pr=110 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"L3SlowRemoteS7", l3_slow_remote_job, 7, false,
     "t=40669a60a2398330 b=4063000000000000 w=4024000000000000 "
     "f=0,0,1 ck=15 rs=1 ok=1 dr=0 rz=0 rp=0 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"L2SlowRemoteXferS1", l2_slow_remote_xfer_job, 1, false,
     "t=40636c0abc21ca93 b=4063000000000000 w=4024000000000000 "
     "f=0,2,0 ck=15 rs=2 ok=1 dr=2 rz=0 rp=0 pr=0 "
     "x=198,0,0,11721340,0,405d7bf8624b68a8,0,32,0,2"},
    // Until a rollback that reverts the grow drew the rebuilt failure
    // stream's first failure once (it was drawn, then overwritten by a
    // second draw), this entry and its hub twin read:
    //   "t=4088998b9a196a77 b=4063000000000000 w=4044000000000000 "
    //   "f=2,25,4 ck=3 rs=31 ok=1 dr=0 rz=21 rp=0 pr=0 "
    //   "x=0,0,0,0,0,0,0,0,0,0 ev=86 fnv=45f6633e58cf7245"
    {"RevertingGrowS108", reverting_grow_job, 108, false,
     "t=4088e5428a8b00cb b=4063000000000000 w=4044000000000000 "
     "f=2,28,4 ck=3 rs=34 ok=1 dr=0 rz=21 rp=0 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"CleanS1", clean_job, 1, false,
     "t=40876821cfe936e6 b=4087680000000000 w=4034000000000000 "
     "f=0,0,0 ck=37 rs=0 ok=1 dr=0 rz=0 rp=0 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0"},
    {"AnalyticS11Hub", static_job, 11, true,
     "t=406ba2c08798a03a b=4063000000000000 w=4024000000000000 "
     "f=1,7,4 ck=15 rs=12 ok=1 dr=0 rz=0 rp=0 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0 ev=39 fnv=2931c6118bf57ff2"},
    {"XferS11Hub", xfer_job, 11, true,
     "t=406ba294ad3613aa b=4063000000000000 w=4024000000000000 "
     "f=1,7,4 ck=15 rs=12 ok=1 dr=0 rz=0 rp=0 pr=0 "
     "x=198,0,0,11721340,0,40077159d68ff5aa,0,32,0,0 ev=269 "
     "fnv=99b8e4955869b8fe"},
    {"ElasticReplanS3Hub", elastic_job, 3, true,
     "t=4063fa5d6f858a76 b=4063000000000000 w=3ff0000000000000 "
     "f=0,2,1 ck=113 rs=3 ok=1 dr=0 rz=2 rp=2 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0 ev=123 fnv=57be34f6881ca286"},
    {"L2SlowRemoteXferS1Hub", l2_slow_remote_xfer_job, 1, true,
     "t=40636c0abc21ca93 b=4063000000000000 w=4024000000000000 "
     "f=0,2,0 ck=15 rs=2 ok=1 dr=2 rz=0 rp=0 pr=0 "
     "x=198,0,0,11721340,0,405d7bf8624b68a8,0,32,0,2 ev=255 "
     "fnv=ee9ba20080d55f72"},
    {"RewindXferS17Hub", rewind_xfer_job, 17, true,
     "t=40637c2667a50d45 b=4063000000000000 w=4024000000000000 "
     "f=0,1,0 ck=15 rs=1 ok=1 dr=0 rz=0 rp=0 pr=12 "
     "x=822,0,0,52898324,0,402a73037556e316,0,32,0,0 ev=871 "
     "fnv=df08f70a993b2573"},
    {"RevertingGrowS108Hub", reverting_grow_job, 108, true,
     "t=4088e5428a8b00cb b=4063000000000000 w=4044000000000000 "
     "f=2,28,4 ck=3 rs=34 ok=1 dr=0 rz=21 rp=0 pr=0 "
     "x=0,0,0,0,0,0,0,0,0,0 ev=92 fnv=bf092f3957986245"},
};

class FailureSimGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(FailureSimGolden, ResultIsBitExact) {
  const Golden& g = GetParam();
  FailureSimConfig cfg = g.make(g.seed);
  obs::Hub hub;
  if (g.hub) cfg.obs = &hub;
  const FailureSimResult res = run_failure_sim(cfg);
  ASSERT_TRUE(res.final_state_verified);

  std::string actual = describe(res);
  if (g.hub) actual += describe(hub);
  EXPECT_EQ(actual, g.expected) << "source form:\n" << source_form(actual);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FailureSimGolden, ::testing::ValuesIn(kGrid),
    [](const ::testing::TestParamInfo<Golden>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace aic::sim
