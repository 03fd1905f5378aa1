// perfbench — the end-to-end benchmark driver binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--out <dir>]
//
// Runs one workload in this process and prints, as the last line of
// standard output, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). perfbench/run.py builds this binary and wraps it; see
// perfbench/README.md for the workloads and metric definitions.
#include <malloc.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "bench.h"
#include "common/check.h"

namespace {

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (perfbench/run.py checks).
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},
    {"run_wall_s", "s"},
    {"op_p50_ms", "ms"},
    {"peak_rss_MiB", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    // mem: dirty tracking and the halt's page copy
    {"mem.halt.share", "share"},
    {"mem.track.ns_per_page", "ns/page"},
    {"mem.capture.GBps", "GB/s"},
    // ckpt + delta: chain capture and the sharded page-delta encoder
    {"ckpt.capture.share", "share"},
    {"ckpt.checkpoints", "count"},
    {"delta.encode.share", "share"},
    {"delta.encode.MBps", "MB/s"},
    {"delta.encode.ns_per_page", "ns/page"},
    {"delta.shard_wait.share", "share"},
    {"delta.raw_share", "share"},
    {"delta.same_share", "share"},
    {"delta.out_per_in", "ratio"},
    // storage + xfer: serialize/CRC/L1 put, the L2/L3 drains, retention
    {"storage.put.share", "share"},
    {"storage.put.GBps", "GB/s"},
    {"xfer.drain.share", "share"},
    {"xfer.drain.GBps", "GB/s"},
    {"xfer.chunks", "count"},
    {"xfer.drain.us_per_chunk", "us/chunk"},
    {"xfer.retries", "count"},
    {"storage.retain.share", "share"},
    // the read path
    {"storage.recover.share", "share"},
    {"storage.recover.GBps", "GB/s"},
    {"ckpt.replay.share", "share"},
    {"ckpt.replay.GBps", "GB/s"},
    {"ckpt.replay.ns_per_page", "ns/page"},
    {"mem.materialize.share", "share"},
    {"mem.materialize.GBps", "GB/s"},
    {"restart.chain_bytes", "bytes"},
    {"restart.records_delta", "count"},
    {"restart.records_same", "count"},
    {"restart.records_raw", "count"},
    // fleet control plane
    {"workload.lanl_mix_s", "s"},
    {"fleet.init_s", "s"},
    {"fleet.rounds", "count"},
    {"fleet.checkpoints", "count"},
    {"fleet.commits", "count"},
    {"fleet.round_ms", "ms/round"},
    {"fleet.job_round_us", "us/job-round"},
    {"xfer.chunk_us", "us/chunk"},
    // attribution checks
    {"workload.step.share", "share"},
    {"ledger.coverage", "share"},
    {"obs.trace_overhead", "ratio"},
    // operation latencies (untraced blocks of the traced run)
    {"ckpt.halt_p50_ms", "ms"},
    {"ckpt.halt_p95_ms", "ms"},
    {"ckpt.tts_p50_ms", "ms"},
    {"ckpt.tts_p95_ms", "ms"},
    {"ckpt.MBps", "MB/s"},
    {"ckpt.stored_ratio", "ratio"},
    {"restart.restore_p50_ms", "ms"},
    {"restart.restore_p90_ms", "ms"},
};

int usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<ckpt-milc|restart-libquantum|fleet-10k> --seed <n> "
               "--seconds <s> --trace <0|1> [--out <dir>]\n",
               why);
  return 2;
}

bool parse_u64(const char* s, std::uint64_t& out) {
  char* end = nullptr;
  out = std::strtoull(s, &end, 10);
  return end != s && *end == '\0' && s[0] != '-';
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed memory mapped for reuse (no mmap per large buffer, no heap
  // trimming), so repeated operations run on pages already faulted in.
  // Page faults are the noisiest resource on a shared host; with glibc's
  // defaults a restore's timing wandered ±10% between runs of one seed.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);  // the largest value glibc accepts
  mallopt(M_TRIM_THRESHOLD, 1 << 30);

  perfbench::Options opt;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") {
      opt.workload = v;
    } else if (flag == "--seed") {
      if (!parse_u64(v, opt.seed)) return usage("bad --seed");
      have_seed = true;
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(v, nullptr);
      if (!(opt.seconds > 0.0) || !std::isfinite(opt.seconds))
        return usage("bad --seconds");
      have_seconds = true;
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        return usage("bad --trace");
      opt.trace = v[0] == '1';
      have_trace = true;
    } else if (flag == "--out") {
      opt.out_dir = v;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace || opt.workload.empty())
    return usage("--workload, --seed, --seconds and --trace are required");

  perfbench::Result r;
  try {
    if (opt.workload == "ckpt-milc") {
      r = perfbench::run_ckpt_milc(opt);
    } else if (opt.workload == "restart-libquantum") {
      r = perfbench::run_restart_libquantum(opt);
    } else if (opt.workload == "fleet-10k") {
      r = perfbench::run_fleet_10k(opt);
    } else {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const aic::CheckError& e) {
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  // Every catalog metric, in catalog order; per-layer metrics a workload
  // does not exercise read 0.
  std::map<std::string, double> unknown = r.metrics;
  std::string json = "{";
  bool first = true;
  auto emit = [&](const MetricSpec& s, double v) {
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", s.name, v, s.unit);
    json += buf;
    first = false;
  };
  if (!opt.trace) {
    for (const MetricSpec& s : kEndToEnd) {
      auto it = r.metrics.find(s.name);
      if (it == r.metrics.end()) {
        std::fprintf(stderr, "perfbench: %s did not measure %s\n",
                     opt.workload.c_str(), s.name);
        return 1;
      }
      emit(s, it->second);
      unknown.erase(s.name);
    }
  } else {
    for (const MetricSpec& s : kPerLayer) {
      auto it = r.metrics.find(s.name);
      emit(s, it == r.metrics.end() ? 0.0 : it->second);
      unknown.erase(s.name);
    }
  }
  json += "}";
  for (const auto& [name, v] : unknown) {
    std::fprintf(stderr, "perfbench: metric %s is not in the catalog\n",
                 name.c_str());
    return 1;
  }
  for (const auto& [name, v] : r.metrics) {
    if (!std::isfinite(v)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", name.c_str());
      return 1;
    }
  }

  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": "
      "%s}\n",
      r.attempted > 0 && r.failed == 0 ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), json.c_str());
  return 0;
}
