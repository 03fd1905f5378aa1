// Tests for the observability layer (src/obs/): metrics registry,
// trace log, JSON/CSV exporters and their round trips, the in-repo JSON
// parser's hostile-input behaviour, thread-safety under concurrent
// writers (the TSan leg runs every ObsTest.*), end-to-end trace coverage
// of an instrumented failure-simulator run, and the overhead guard — the
// hot path and the disabled path must not allocate.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <new>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "failure/failure.h"
#include "mem/snapshot.h"
#include "obs/export.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/names.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "sim/failure_sim.h"
#include "storage/async_checkpointer.h"

// ---------------------------------------------------------------------------
// Heap instrumentation for the overhead guard here and the restore-memory
// guard in ckpt_test.cc (shared via heap_guard.h — this TU holds the one
// operator new/delete replacement the binary is allowed). Overriding the
// global operator new is the only way to observe the hot path's
// allocations without a tooling dependency; counters are relaxed-atomic so
// the concurrency tests in this binary stay race-free under TSan. Byte
// totals come from malloc_usable_size on both sides, so live_bytes stays
// exact through the unsized operator delete.

#include <malloc.h>

#include "heap_guard.h"

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_peak_bytes{0};

void note_alloc(void* p) {
  if (p == nullptr) return;
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t size = malloc_usable_size(p);
  const std::uint64_t live =
      g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  std::uint64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak && !g_peak_bytes.compare_exchange_weak(
                            peak, live, std::memory_order_relaxed)) {
  }
}

void note_free(void* p) {
  if (p == nullptr) return;
  g_live_bytes.fetch_sub(malloc_usable_size(p), std::memory_order_relaxed);
}
}  // namespace

namespace aic::testing {

HeapStats heap_stats() {
  return HeapStats{g_alloc_count.load(std::memory_order_relaxed),
                   g_live_bytes.load(std::memory_order_relaxed),
                   g_peak_bytes.load(std::memory_order_relaxed)};
}

void reset_heap_peak() {
  g_peak_bytes.store(g_live_bytes.load(std::memory_order_relaxed),
                     std::memory_order_relaxed);
}

}  // namespace aic::testing

// GCC flags the malloc/free implementations of the replaced operators as
// mismatched new/delete when it inlines them at call sites; the pairing is
// intentional here.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  if (void* p = std::malloc(size)) {
    note_alloc(p);
    return p;
  }
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  void* p = std::malloc(size);
  note_alloc(p);
  return p;
}

void operator delete(void* p) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete(void* p, std::size_t) noexcept {
  note_free(p);
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  note_free(p);
  std::free(p);
}

namespace aic::obs {
namespace {

std::uint64_t allocations() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// Metrics primitives.

TEST(ObsTest, CounterAndGaugeBasics) {
  MetricsRegistry reg;
  Counter* c = reg.counter("test.counter");
  EXPECT_EQ(c->value(), 0u);
  c->add();
  c->add(41);
  EXPECT_EQ(c->value(), 42u);

  Gauge* g = reg.gauge("test.gauge");
  EXPECT_EQ(g->value(), 0.0);
  g->set(3.5);
  g->set(-1.25);
  EXPECT_EQ(g->value(), -1.25);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_FALSE(reg.empty());
}

TEST(ObsTest, RegistryHandlesAreStableAndShared) {
  MetricsRegistry reg;
  Counter* a = reg.counter("same.name");
  Counter* b = reg.counter("same.name");
  EXPECT_EQ(a, b);

  Histogram* h1 =
      reg.histogram("h", Histogram::linear_buckets(0.0, 10.0, 5));
  // Re-registration keeps the first creator's layout.
  Histogram* h2 =
      reg.histogram("h", Histogram::exponential_buckets(1.0, 2.0, 12));
  EXPECT_EQ(h1, h2);
  EXPECT_EQ(h1->bounds().size(), 5u);
}

TEST(ObsTest, HistogramBucketPlacementAndStats) {
  Histogram h(Histogram::linear_buckets(0.0, 10.0, 5));
  // Bounds: 2, 4, 6, 8, 10.
  ASSERT_EQ(h.bounds().size(), 5u);
  EXPECT_DOUBLE_EQ(h.bounds().front(), 2.0);
  EXPECT_DOUBLE_EQ(h.bounds().back(), 10.0);

  h.observe(1.0);    // bucket 0
  h.observe(2.0);    // bucket 0 (x <= bound)
  h.observe(5.0);    // bucket 2
  h.observe(100.0);  // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 108.0);
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_EQ(h.bucket_count(2), 1u);
  EXPECT_EQ(h.bucket_count(5), 1u);  // overflow bucket
}

TEST(ObsTest, HistogramSnapshotQuantiles) {
  Histogram h(Histogram::linear_buckets(0.0, 100.0, 10));
  for (int i = 1; i <= 100; ++i) h.observe(double(i));
  MetricsRegistry reg;  // snapshot via registry for the full path
  Histogram* rh = reg.histogram("q", Histogram::linear_buckets(0.0, 100.0, 10));
  for (int i = 1; i <= 100; ++i) rh->observe(double(i));
  const auto snap = reg.snapshot().histograms.at("q");
  EXPECT_EQ(snap.count, 100u);
  EXPECT_NEAR(snap.mean(), 50.5, 1e-9);
  EXPECT_NEAR(snap.quantile(0.5), 50.0, 10.0);
  EXPECT_NEAR(snap.quantile(0.95), 95.0, 10.0);
  // Overflow mass reports the last finite bound.
  rh->observe(1e9);
  const auto snap2 = reg.snapshot().histograms.at("q");
  EXPECT_DOUBLE_EQ(snap2.quantile(1.0), 100.0);
}

TEST(ObsTest, HistogramQuantileInterpolatesExactly) {
  // Uniform 1..10 in linear buckets of width 2 (bounds 2,4,6,8,10): two
  // observations per bucket, so the interpolated quantiles land exactly
  // where a continuous uniform distribution would put them.
  MetricsRegistry reg;
  Histogram* h = reg.histogram("u", Histogram::linear_buckets(0.0, 10.0, 5));
  for (int i = 1; i <= 10; ++i) h->observe(double(i));
  const HistogramSnapshot snap = reg.snapshot().histograms.at("u");
  EXPECT_DOUBLE_EQ(snap.quantile(0.5), 5.0);
  EXPECT_DOUBLE_EQ(snap.quantile(0.95), 9.5);
  EXPECT_DOUBLE_EQ(snap.quantile(0.99), 9.9);
  EXPECT_DOUBLE_EQ(snap.quantile(0.25), 2.5);
  // Out-of-range q clamps; empty histogram reports 0.
  EXPECT_DOUBLE_EQ(snap.quantile(1.5), snap.quantile(1.0));
  EXPECT_DOUBLE_EQ(HistogramSnapshot{}.quantile(0.5), 0.0);
  // Mass past the last bound reports the last finite bound, never a
  // made-up extrapolation.
  Histogram* of = reg.histogram("of", Histogram::linear_buckets(0.0, 10.0, 5));
  for (int i = 0; i < 4; ++i) of->observe(1e9);
  EXPECT_DOUBLE_EQ(reg.snapshot().histograms.at("of").quantile(0.99), 10.0);
}

TEST(ObsTest, ExponentialBucketsGrowGeometrically) {
  const auto b = Histogram::exponential_buckets(1.0, 2.0, 8);
  ASSERT_EQ(b.size(), 8u);
  for (std::size_t i = 1; i < b.size(); ++i) {
    EXPECT_NEAR(b[i] / b[i - 1], 2.0, 1e-12);
  }
}

TEST(ObsTest, SnapshotLookupHelpers) {
  MetricsRegistry reg;
  reg.counter("present")->add(7);
  reg.gauge("g")->set(2.5);
  const MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_or_zero("present"), 7u);
  EXPECT_EQ(snap.counter_or_zero("absent"), 0u);
  EXPECT_DOUBLE_EQ(snap.gauge_or("g", -1.0), 2.5);
  EXPECT_DOUBLE_EQ(snap.gauge_or("missing", -1.0), -1.0);
}

// ---------------------------------------------------------------------------
// Trace log.

TEST(ObsTest, TraceLogRecordsSpansAndInstants) {
  TraceLog log;
  log.span(TimeDomain::kVirtual, "cat", "sp", 1.0, 3.5, 2,
           {{"bytes", 42.0}});
  log.instant(TimeDomain::kWall, "cat", "in", 0.25, 0, {{"level", 2.0}});
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].phase, TraceEvent::Phase::kSpan);
  EXPECT_EQ(events[0].domain, TimeDomain::kVirtual);
  EXPECT_DOUBLE_EQ(events[0].start, 1.0);
  EXPECT_DOUBLE_EQ(events[0].duration, 2.5);
  EXPECT_EQ(events[0].track, 2u);
  ASSERT_EQ(events[0].arg_count, 1);
  EXPECT_STREQ(events[0].args[0].key, "bytes");
  EXPECT_EQ(events[1].phase, TraceEvent::Phase::kInstant);
  EXPECT_EQ(events[1].domain, TimeDomain::kWall);
  EXPECT_DOUBLE_EQ(events[1].duration, 0.0);
}

TEST(ObsTest, TraceLogClampsNegativeDurationAndExtraArgs) {
  TraceLog log;
  log.span(TimeDomain::kVirtual, "c", "n", 5.0, 3.0, 0,
           {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}, {"e", 5}, {"f", 6}});
  const auto events = log.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_DOUBLE_EQ(events[0].duration, 0.0);
  EXPECT_EQ(events[0].arg_count, TraceEvent::kMaxArgs);
}

TEST(ObsTest, TraceLogCapacityBoundCountsDrops) {
  TraceLog log(4);
  for (int i = 0; i < 10; ++i) {
    log.instant(TimeDomain::kVirtual, "c", "n", double(i));
  }
  EXPECT_EQ(log.size(), 4u);
  EXPECT_EQ(log.dropped(), 6u);
}

// ---------------------------------------------------------------------------
// JSON parser (hostile input discipline).

TEST(ObsTest, JsonParsesScalarsAndNesting) {
  const JsonValue v = json_parse(
      R"({"a": [1, 2.5, -3e2], "b": {"c": true, "d": null}, "s": "x\ny"})");
  ASSERT_TRUE(v.is(JsonValue::Kind::kObject));
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[1].as_number(), 2.5);
  EXPECT_DOUBLE_EQ(a->array[2].as_number(), -300.0);
  EXPECT_TRUE(v.at("b").at("c").boolean);
  EXPECT_TRUE(v.at("b").at("d").is(JsonValue::Kind::kNull));
  EXPECT_EQ(v.at("s").str, "x\ny");
}

TEST(ObsTest, JsonParsesUnicodeEscapes) {
  const JsonValue v = json_parse(R"(["Aé€"])");
  ASSERT_EQ(v.array.size(), 1u);
  EXPECT_EQ(v.array[0].str, "A\xC3\xA9\xE2\x82\xAC");
}

TEST(ObsTest, JsonRejectsMalformedInput) {
  EXPECT_THROW(json_parse(""), CheckError);
  EXPECT_THROW(json_parse("{"), CheckError);
  EXPECT_THROW(json_parse("[1,]"), CheckError);
  EXPECT_THROW(json_parse("{\"a\": 1} trailing"), CheckError);
  EXPECT_THROW(json_parse("\"unterminated"), CheckError);
  EXPECT_THROW(json_parse("01"), CheckError);
  EXPECT_THROW(json_parse("nul"), CheckError);
  EXPECT_THROW(json_parse("{\"bad\\q\": 1}"), CheckError);
}

TEST(ObsTest, JsonNumberRejectsNonFinite) {
  EXPECT_THROW(json_number(std::numeric_limits<double>::infinity()),
               CheckError);
  EXPECT_THROW(json_number(std::nan("")), CheckError);
  EXPECT_EQ(json_number(0.5), "0.5");
}

// ---------------------------------------------------------------------------
// Exporters and round trips.

MetricsRegistry& populated_registry(MetricsRegistry& reg) {
  reg.counter("c.one")->add(3);
  reg.counter("c.two")->add(1ull << 40);
  reg.gauge("g.neg")->set(-2.75);
  Histogram* h = reg.histogram("h.lat", Histogram::exponential_buckets(
                                            1e-3, 10.0, 4));
  h->observe(5e-4);
  h->observe(0.05);
  h->observe(99.0);
  return reg;
}

TEST(ObsTest, MetricsJsonRoundTrip) {
  MetricsRegistry reg;
  const MetricsSnapshot snap = populated_registry(reg).snapshot();
  const MetricsSnapshot back = metrics_from_json(metrics_to_json(snap));
  EXPECT_EQ(back.counters, snap.counters);
  EXPECT_EQ(back.gauges, snap.gauges);
  ASSERT_EQ(back.histograms.size(), snap.histograms.size());
  const auto& h0 = snap.histograms.at("h.lat");
  const auto& h1 = back.histograms.at("h.lat");
  EXPECT_EQ(h1.bounds, h0.bounds);
  EXPECT_EQ(h1.counts, h0.counts);
  EXPECT_EQ(h1.count, h0.count);
  EXPECT_DOUBLE_EQ(h1.sum, h0.sum);
}

TEST(ObsTest, MetricsFromJsonRejectsSchemaViolations) {
  EXPECT_THROW(metrics_from_json("[]"), CheckError);
  EXPECT_THROW(metrics_from_json(R"({"counters": {"c": "nope"}})"),
               CheckError);
  // counts must have bounds.size() + 1 entries.
  EXPECT_THROW(metrics_from_json(
                   R"({"histograms": {"h": {"bounds": [1.0],
                       "counts": [1], "count": 1, "sum": 1.0}}})"),
               CheckError);
}

TEST(ObsTest, MetricsCsvRowPerDatum) {
  MetricsRegistry reg;
  reg.counter("a")->add(2);
  reg.gauge("b")->set(1.5);
  // A histogram contributes count/sum, the interpolated p50/p95/p99
  // summary rows, and one cumulative row per bucket.
  Histogram* h = reg.histogram("lat", Histogram::linear_buckets(0.0, 10.0, 5));
  for (int i = 1; i <= 10; ++i) h->observe(double(i));
  const std::string csv = metrics_to_csv(reg.snapshot());
  EXPECT_NE(csv.find("kind,name,field,value"), std::string::npos);
  EXPECT_NE(csv.find("counter,a,value,2"), std::string::npos);
  EXPECT_NE(csv.find("gauge,b,value,1.5"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat,count,10"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat,p50,5\n"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat,p95,9.5"), std::string::npos);
  EXPECT_NE(csv.find("histogram,lat,p99,9.9"), std::string::npos);
}

TEST(ObsTest, MetricsCsvSkipsQuantilesForEmptyHistogram) {
  MetricsRegistry reg;
  reg.histogram("empty", Histogram::linear_buckets(0.0, 10.0, 5));
  const std::string csv = metrics_to_csv(reg.snapshot());
  EXPECT_NE(csv.find("histogram,empty,count,0"), std::string::npos);
  EXPECT_EQ(csv.find("histogram,empty,p50"), std::string::npos);
}

// Minimal RFC-4180 row splitter: enough to round-trip the exporter's own
// output, including quoted fields with embedded commas and quotes.
std::vector<std::string> csv_split_row(const std::string& line) {
  std::vector<std::string> fields;
  std::string cur;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
        cur += '"';
        ++i;
      } else if (c == '"') {
        quoted = false;
      } else {
        cur += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      fields.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  fields.push_back(cur);
  return fields;
}

TEST(ObsTest, MetricsCsvQuotesHostileNamesRfc4180) {
  // Dynamically named metrics can carry commas and quotes (an SLO rule
  // named from user text, say); the flattened rows must stay parseable.
  MetricsRegistry reg;
  reg.counter("plain")->add(1);
  reg.gauge("evil,name")->set(2.0);
  reg.gauge("worse\"quoted\",name")->set(3.0);
  const std::string csv = metrics_to_csv(reg.snapshot());

  // Round trip: every row splits back to exactly 4 fields and the
  // hostile names survive byte-exact.
  std::vector<std::vector<std::string>> rows;
  std::istringstream lines(csv);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = csv_split_row(line);
    ASSERT_EQ(fields.size(), 4u) << "unparseable row: " << line;
    rows.push_back(fields);
  }
  bool saw_comma = false, saw_quote = false;
  for (const auto& r : rows) {
    if (r[1] == "evil,name") saw_comma = true;
    if (r[1] == "worse\"quoted\",name") saw_quote = true;
  }
  EXPECT_TRUE(saw_comma);
  EXPECT_TRUE(saw_quote);
  // And the quoting is the RFC form on the wire, not a lossy substitute.
  EXPECT_NE(csv.find("\"evil,name\""), std::string::npos);
  EXPECT_NE(csv.find("\"worse\"\"quoted\"\",name\""), std::string::npos);
}

TEST(ObsTest, MetricsPromExposition) {
  MetricsRegistry reg;
  reg.counter("xfer.commits")->add(3);
  reg.gauge("fleet.goodput_bps")->set(1.5e6);
  Histogram* h = reg.histogram("lat", Histogram::linear_buckets(0.0, 1.0, 2));
  h->observe(0.5);
  h->observe(1.5);
  h->observe(99.0);
  const std::string prom = metrics_to_prom(reg.snapshot());

  // Names are sanitized into the aic_ prefix with TYPE headers.
  EXPECT_NE(prom.find("# TYPE aic_xfer_commits counter"), std::string::npos);
  EXPECT_NE(prom.find("aic_xfer_commits 3"), std::string::npos);
  EXPECT_NE(prom.find("# TYPE aic_fleet_goodput_bps gauge"),
            std::string::npos);
  // Histograms expose cumulative buckets plus sum/count.
  EXPECT_NE(prom.find("# TYPE aic_lat histogram"), std::string::npos);
  EXPECT_NE(prom.find("aic_lat_bucket{le=\"0.5\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("aic_lat_bucket{le=\"1\"} 1"), std::string::npos);
  EXPECT_NE(prom.find("aic_lat_bucket{le=\"+Inf\"} 3"), std::string::npos);
  EXPECT_NE(prom.find("aic_lat_sum 101"), std::string::npos);
  EXPECT_NE(prom.find("aic_lat_count 3"), std::string::npos);
}

TEST(ObsTest, MetricsPromFlattensDynamicFamiliesToLabels) {
  MetricsRegistry reg;
  reg.gauge(names::tenant_metric(0, names::kTenantGoodputBps))->set(1.0);
  reg.gauge(names::tenant_metric(7, names::kTenantGoodputBps))->set(2.0);
  reg.gauge(names::slo_metric("tts-p99", names::kSloRuleOk))->set(1.0);
  reg.gauge("fleet.tenant.notanid.x")->set(3.0);  // not the family shape
  const std::string prom = metrics_to_prom(reg.snapshot());

  // One family, two labeled samples — not one metric per tenant id.
  EXPECT_NE(prom.find("aic_fleet_tenant_goodput_bps{tenant=\"0\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("aic_fleet_tenant_goodput_bps{tenant=\"7\"} 2"),
            std::string::npos);
  EXPECT_EQ(prom.find("aic_fleet_tenant_0_goodput_bps"), std::string::npos);
  // SLO rules flatten the same way, keyed by rule name.
  EXPECT_NE(prom.find("aic_fleet_slo_ok{rule=\"tts-p99\"} 1"),
            std::string::npos);
  // Names outside the family shape stay plain (sanitized) metrics.
  EXPECT_NE(prom.find("aic_fleet_tenant_notanid_x 3"), std::string::npos);
}

TEST(ObsTest, ChromeTraceExportShape) {
  TraceLog log;
  log.span(TimeDomain::kVirtual, "xfer", "chunk", 1.0, 1.5, 3,
           {{"bytes", 4096.0}});
  log.instant(TimeDomain::kWall, "sim", "failure", 0.125);
  const JsonValue doc = json_parse(trace_to_chrome_json(log));
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is(JsonValue::Kind::kArray));

  int meta = 0, spans = 0, instants = 0;
  for (const JsonValue& e : events.array) {
    const std::string& ph = e.at("ph").str;
    if (ph == "M") {
      ++meta;
      continue;
    }
    if (ph == "X") {
      ++spans;
      EXPECT_EQ(e.at("cat").str, "xfer");
      EXPECT_EQ(e.at("name").str, "chunk");
      EXPECT_DOUBLE_EQ(e.at("pid").as_number(), 1.0);  // virtual domain
      EXPECT_DOUBLE_EQ(e.at("tid").as_number(), 3.0);
      EXPECT_DOUBLE_EQ(e.at("ts").as_number(), 1e6);   // microseconds
      EXPECT_DOUBLE_EQ(e.at("dur").as_number(), 5e5);
      EXPECT_DOUBLE_EQ(e.at("args").at("bytes").as_number(), 4096.0);
    }
    if (ph == "i") {
      ++instants;
      EXPECT_DOUBLE_EQ(e.at("pid").as_number(), 2.0);  // wall domain
      EXPECT_DOUBLE_EQ(e.at("ts").as_number(), 125000.0);
      EXPECT_EQ(e.at("s").str, "t");
    }
  }
  EXPECT_EQ(meta, 2);  // one process_name per time domain
  EXPECT_EQ(spans, 1);
  EXPECT_EQ(instants, 1);
}

// ---------------------------------------------------------------------------
// Run report.

TEST(ObsTest, RunReportFromJsonRecoversWStarHistory) {
  Hub hub;
  hub.metrics.counter(names::kDeciderEvaluations)->add(2);
  hub.trace.instant(TimeDomain::kVirtual, names::kCatDecider,
                    names::kEvDecision, 1.0, 0, {{"w_star", 12.5}});
  hub.trace.instant(TimeDomain::kVirtual, names::kCatDecider,
                    names::kEvDecision, 2.0, 0, {{"w_star", 14.0}});
  const std::string mjson = metrics_to_json(hub.metrics.snapshot());
  const std::string tjson = trace_to_chrome_json(hub.trace);
  const RunReport report = RunReport::from_json(mjson, tjson);
  ASSERT_EQ(report.w_star_history.size(), 2u);
  EXPECT_DOUBLE_EQ(report.w_star_history[0], 12.5);
  EXPECT_DOUBLE_EQ(report.w_star_history[1], 14.0);
  const std::string text = report.render();
  EXPECT_NE(text.find("decider"), std::string::npos);
  EXPECT_NE(text.find("12.5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Concurrency (TSan leg: ObsTest.* runs under -fsanitize=thread).

TEST(ObsTest, ConcurrentWritersProduceExactTotals) {
  MetricsRegistry reg;
  Counter* c = reg.counter("conc.counter");
  Histogram* h =
      reg.histogram("conc.hist", Histogram::linear_buckets(0.0, 1.0, 4));
  TraceLog log(1 << 12);

  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c->add();
        h->observe(double(i % 5) / 4.0);
        if (i % 100 == 0) {
          log.span(TimeDomain::kWall, "conc", "work", 0.0, 1.0,
                   std::uint32_t(t));
        }
      }
    });
  }
  // Concurrent snapshots must be safe against the writers.
  for (int i = 0; i < 50; ++i) {
    (void)reg.snapshot();
    (void)log.size();
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(c->value(), std::uint64_t(kThreads) * kPerThread);
  EXPECT_EQ(h->count(), std::uint64_t(kThreads) * kPerThread);
  EXPECT_EQ(log.size() + log.dropped(),
            std::uint64_t(kThreads) * (kPerThread / 100));
}

TEST(ObsTest, ConcurrentRegistryResolutionIsSafe) {
  MetricsRegistry reg;
  std::vector<std::thread> threads;
  std::array<Counter*, 8> seen{};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&reg, &seen, t] {
      Counter* c = reg.counter("same.instrument");
      c->add();
      seen[std::size_t(t)] = c;
    });
  }
  for (auto& th : threads) th.join();
  for (int t = 1; t < 8; ++t) EXPECT_EQ(seen[std::size_t(t)], seen[0]);
  EXPECT_EQ(seen[0]->value(), 8u);
}

// ---------------------------------------------------------------------------
// Overhead guard: the hot path and the disabled path allocate nothing.

TEST(ObsTest, HotPathDoesNotAllocate) {
  MetricsRegistry reg;
  Counter* c = reg.counter("guard.counter");
  Gauge* g = reg.gauge("guard.gauge");
  Histogram* h = reg.histogram(
      "guard.hist", Histogram::exponential_buckets(1e-6, 4.0, 16));
  TraceLog log(8);
  for (int i = 0; i < 8; ++i) {
    log.instant(TimeDomain::kVirtual, "guard", "fill", double(i));
  }
  ASSERT_EQ(log.size(), 8u);  // at capacity: further events hit the drop path

  const std::uint64_t before = allocations();
  for (int i = 0; i < 1000; ++i) {
    c->add();
    g->set(double(i));
    h->observe(double(i) * 1e-5);
    log.span(TimeDomain::kVirtual, "guard", "dropped", 0.0, 1.0);
  }
  EXPECT_EQ(allocations() - before, 0u)
      << "counter/gauge/histogram/trace-drop hot paths must not allocate";
  EXPECT_EQ(c->value(), 1000u);
  EXPECT_EQ(log.dropped(), 1000u);
}

TEST(ObsTest, DisabledSitePatternDoesNotAllocate) {
  // The component pattern with a null hub: handles stay null, every site
  // is one branch. This is what "observability disabled" costs.
  Hub* hub = nullptr;
  Counter* c = nullptr;
  Histogram* h = nullptr;
  if (hub != nullptr) {
    c = hub->metrics.counter("never");
    h = hub->metrics.histogram("never.h",
                               Histogram::linear_buckets(0.0, 1.0, 4));
  }
  const std::uint64_t before = allocations();
  double acc = 0.0;
  for (int i = 0; i < 10000; ++i) {
    acc += double(i);
    if (c != nullptr) c->add();
    if (h != nullptr) h->observe(acc);
    if (hub != nullptr) {
      hub->trace.instant(TimeDomain::kVirtual, "never", "ev", acc);
    }
  }
  EXPECT_EQ(allocations() - before, 0u);
  EXPECT_GT(acc, 0.0);
}

TEST(ObsTest, DisabledRunLeavesRegistryEmptyAndResultUnchanged) {
  sim::FailureSimConfig cfg;
  cfg.benchmark = workload::SpecBenchmark::kBzip2;
  cfg.workload_scale = 0.125;
  cfg.failures = failure::FailureSpec::from_total(0.04);
  cfg.checkpoint_interval = 10.0;
  cfg.seed = 22;

  cfg.obs = nullptr;
  const auto plain = sim::run_failure_sim(cfg);

  Hub hub;
  cfg.obs = &hub;
  const auto observed = sim::run_failure_sim(cfg);

  // Attaching a hub must not perturb the virtual timeline.
  EXPECT_DOUBLE_EQ(observed.turnaround, plain.turnaround);
  EXPECT_EQ(observed.checkpoints, plain.checkpoints);
  EXPECT_EQ(observed.restores, plain.restores);
  EXPECT_EQ(observed.failures_by_level, plain.failures_by_level);
  EXPECT_TRUE(observed.final_state_verified);
  EXPECT_FALSE(hub.metrics.empty());

  // And the un-observed run must not have touched any registry: a fresh
  // hub the run never saw is the only registry in scope — it stays empty.
  Hub untouched;
  EXPECT_TRUE(untouched.metrics.empty());
  EXPECT_EQ(untouched.trace.size(), 0u);
}

// ---------------------------------------------------------------------------
// Instrumented components end to end.

TEST(ObsTest, AsyncCheckpointerEmitsCaptureCompressSpans) {
  Hub hub;
  mem::AddressSpace space;
  space.allocate_range(0, 16);
  Rng rng(5);
  for (mem::PageId id = 0; id < 16; ++id) {
    space.mutate(id, [&](std::span<std::uint8_t> b) {
      for (auto& x : b) x = std::uint8_t(rng());
    });
  }
  storage::AsyncCheckpointer::Config cfg;
  cfg.chain.obs = &hub;
  storage::AsyncCheckpointer async(std::move(cfg));
  async.submit(space, {}, 0.0);
  space.write(2, 0, Bytes{1, 2, 3});
  async.submit(space, {}, 1.0);
  (void)async.restore();

  const auto snap = hub.metrics.snapshot();
  EXPECT_EQ(snap.counter_or_zero(names::kCkptCheckpoints), 2u);
  EXPECT_EQ(snap.counter_or_zero(names::kCkptFulls), 1u);
  EXPECT_GT(snap.counter_or_zero(names::kCkptFileBytes), 0u);
  ASSERT_TRUE(snap.histograms.count(names::kCkptCaptureSeconds));
  EXPECT_EQ(snap.histograms.at(names::kCkptCaptureSeconds).count, 2u);
  EXPECT_EQ(snap.histograms.at(names::kCkptCompressSeconds).count, 2u);

  int captures = 0, compresses = 0;
  for (const auto& e : hub.trace.snapshot()) {
    if (std::string(e.name) == names::kEvCapture) ++captures;
    if (std::string(e.name) == names::kEvCompress) ++compresses;
    if (std::string(e.name) == names::kEvCapture ||
        std::string(e.name) == names::kEvCompress) {
      EXPECT_EQ(e.domain, TimeDomain::kWall);
    }
  }
  EXPECT_EQ(captures, 2);
  EXPECT_EQ(compresses, 2);
}

// The acceptance check for the whole layer: a full failure-simulator run
// with the transfer engine exports a Chrome trace whose spans cover the
// pipeline — checkpoint intervals, compression shards, drain chunks,
// failure and restart instants — and the file parses as valid JSON with
// well-formed events.
TEST(ObsTest, FailureSimChromeTraceCoversPipeline) {
  Hub hub;
  sim::FailureSimConfig cfg;
  cfg.benchmark = workload::SpecBenchmark::kBzip2;
  cfg.workload_scale = 0.125;
  cfg.failures = failure::FailureSpec::from_total(0.04);
  cfg.checkpoint_interval = 10.0;
  cfg.seed = 11;
  cfg.use_transfer_engine = true;
  cfg.obs = &hub;
  const auto res = sim::run_failure_sim(cfg);
  ASSERT_TRUE(res.final_state_verified);
  ASSERT_GT(res.total_failures(), 0);

  const JsonValue doc = json_parse(trace_to_chrome_json(hub.trace));
  const JsonValue& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is(JsonValue::Kind::kArray));

  std::set<std::pair<std::string, std::string>> span_kinds;
  std::set<std::pair<std::string, std::string>> instant_kinds;
  for (const JsonValue& e : events.array) {
    const std::string& ph = e.at("ph").str;
    if (ph == "M") continue;
    ASSERT_TRUE(ph == "X" || ph == "i") << "unexpected phase " << ph;
    const std::string& cat = e.at("cat").str;
    const std::string& name = e.at("name").str;
    const double ts = e.at("ts").as_number();
    EXPECT_GE(ts, 0.0);
    if (ph == "X") {
      EXPECT_GE(e.at("dur").as_number(), 0.0);
      span_kinds.emplace(cat, name);
    } else {
      instant_kinds.emplace(cat, name);
    }
  }

  using P = std::pair<std::string, std::string>;
  EXPECT_TRUE(span_kinds.count(P(names::kCatCkpt, names::kEvInterval)))
      << "checkpoint intervals missing from trace";
  EXPECT_TRUE(span_kinds.count(P(names::kCatDelta, names::kEvShard)))
      << "compression shards missing from trace";
  EXPECT_TRUE(span_kinds.count(P(names::kCatXfer, names::kEvChunk)))
      << "drain chunks missing from trace";
  EXPECT_TRUE(instant_kinds.count(P(names::kCatSim, names::kEvFailure)))
      << "failure instants missing from trace";
  EXPECT_TRUE(span_kinds.count(P(names::kCatSim, names::kEvRestore)))
      << "restore spans missing from trace";

  // The registry side agrees with the simulator's own counters.
  const auto snap = hub.metrics.snapshot();
  EXPECT_EQ(snap.counter_or_zero(names::kSimRestores),
            std::uint64_t(res.restores));
  EXPECT_EQ(snap.counter_or_zero(names::kSimFailuresL1) +
                snap.counter_or_zero(names::kSimFailuresL2) +
                snap.counter_or_zero(names::kSimFailuresL3),
            std::uint64_t(res.total_failures()));
  EXPECT_NEAR(snap.gauge_or(names::kSimNet2, 0.0), res.net2(), 1e-12);

  // And the report renders something useful from it.
  const std::string text = RunReport::from_hub(hub).render();
  EXPECT_NE(text.find("NET^2"), std::string::npos);
  EXPECT_NE(text.find("transfer engine"), std::string::npos);
}

}  // namespace
}  // namespace aic::obs
