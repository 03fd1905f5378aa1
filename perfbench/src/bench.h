// Shared pieces of the end-to-end benchmark: run options, the result a
// workload reports, percentile samples, and the span ledger the traced run
// uses to attribute wall time to the library's layers.
//
// Every span is recorded from the benchmark's own code, around its calls
// into a module's public functions; the library is not instrumented beyond
// what it already emits into an aic::obs::Hub (the delta pipeline's per-shard
// spans, which the ledger attributes to the benchmark span enclosing them).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "mem/address_space.h"
#include "obs/trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  /// false: end-to-end metrics, tracing off. true: per-layer metrics from a
  /// traced run (plus the trace and ledger files under out_dir).
  bool trace = false;
  std::string out_dir = ".";
};

/// What one workload run reports. Metric names come from the catalog in
/// main.cc: end-to-end names when !Options::trace, per-layer names when
/// tracing. A per-layer metric a workload does not set reads 0 (that layer
/// does no work on this workload).
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, double> metrics;
  /// Human-readable lines printed before the JSON result: sample counts
  /// behind each percentile, check outcomes, file locations.
  std::vector<std::string> notes;
};

/// Delta-compression threads of every chain: what auto picks on the 4-vCPU
/// reference host, set explicitly so a bigger host runs the same pipeline.
inline constexpr unsigned kCompressWorkers = 3;
/// Set-up repetitions per process; setup_s is their median.
inline constexpr int kSetupReps = 3;

/// Order of traced (true) and untraced operations or blocks in a traced
/// run: ABBA pairs, so slow drift of the host charges both sides alike.
inline bool traced_block(std::size_t i) { return i % 4 == 1 || i % 4 == 2; }

inline double safe_div(double a, double b) { return b > 0.0 ? a / b : 0.0; }

/// Monotonic host seconds (obs::wall_now_ns, the library's clock gateway).
double now_s();
/// Peak resident set size of this process so far, MiB.
double peak_rss_mib();

/// Order-sensitive 64-bit digest of every live page (id and bytes) — the
/// fingerprint restored and reference images are compared by.
std::uint64_t image_digest(const aic::mem::AddressSpace& space);

/// Latency samples. A percentile is reported only when at least ten samples
/// lie beyond it (tail_ok).
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  std::size_t size() const { return v_.size(); }
  double sum() const;
  /// Linear interpolation between closest ranks; 0 when empty.
  double quantile(double q) const;
  bool tail_ok(double q) const {
    return double(v_.size()) * (1.0 - q) >= 10.0 - 1e-9;
  }

 private:
  std::vector<double> v_;
};

/// Formats "what: p50 1.234 ms, p95 2.345 ms (n=400)" notes, or just the
/// median when tail_q <= 0.5.
std::string describe(const char* what, const Samples& s, double scale,
                     const char* unit, double tail_q);

/// Per-layer wall-time ledger over spans recorded on the benchmark's
/// (single) calling thread. Spans nest by scope; library spans found in the
/// hub's trace are attached to the innermost benchmark span that encloses
/// them. A layer's self time is its spans' durations minus the parts their
/// children cover.
class Ledger {
 public:
  /// `hub` receives every recorded span (for the Chrome export) and is
  /// where library spans are read from; nullptr = measuring only.
  explicit Ledger(aic::obs::Hub* hub);

  /// When off, spans still measure (their close() returns the duration)
  /// but record nothing. The traced run interleaves recorded and
  /// unrecorded work to price the tracing itself.
  void set_recording(bool on) { recording_ = on; }

  /// Seconds on the hub trace's time base.
  double now() const;

  class Span {
   public:
    Span(Ledger& ledger, const char* layer);
    ~Span() { close(); }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;
    /// Ends the span (idempotent); returns its duration in seconds.
    double close();

   private:
    Ledger& ledger_;
    const char* layer_;
    double start_;
    double duration_ = -1.0;
    std::size_t index_ = 0;  // into spans_, when recorded
    bool recorded_ = false;
  };

  struct Layer {
    std::uint64_t spans = 0;
    double total_s = 0.0;  // sum of span durations
    double self_s = 0.0;   // minus the time covered by children
    /// Library layers only: per enclosing span, the slowest span minus the
    /// mean span (the time parallel shards wait on their straggler).
    double straggler_s = 0.0;
  };

  /// Attributes library spans and computes every layer's totals. Call once
  /// the traced work is done.
  std::map<std::string, Layer> layers() const;
  /// Time attributed to a layer: the top-level spans' duration minus the
  /// self time of wrapper spans (layers named "op.*", which only group one
  /// operation's layer calls). Divided by the timed wall this is the
  /// ledger coverage.
  double covered_seconds() const;

  /// Writes the Chrome trace of the hub (if any) to `path`.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Recorded {
    const char* layer;
    double start;
    double end;
    std::ptrdiff_t parent;  // -1 = root
  };

  aic::obs::Hub* hub_;
  std::uint64_t origin_ns_;
  bool recording_ = true;
  std::vector<Recorded> spans_;
  std::vector<std::size_t> open_;  // stack of recorded, unclosed spans
};

/// Writes the per-layer table (spans, total, self, share of `timed_s`) and
/// the reported metrics to `path`.
bool write_ledger_table(const std::string& path, const std::string& title,
                        const std::map<std::string, Ledger::Layer>& layers,
                        double timed_s, const Result& result);

// One entry point per workload.
Result run_ckpt_milc(const Options& opt);
Result run_restart_libquantum(const Options& opt);
Result run_fleet_10k(const Options& opt);

}  // namespace perfbench
