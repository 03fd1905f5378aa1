// Failure flight recorder: the bounded event ring, the TraceLog tap (which
// must keep seeing events after the log itself hits capacity), and the
// postmortem.json artifact a dying run leaves behind — including the
// integration paths through the transfer scheduler and failure simulator.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common/check.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/names.h"
#include "obs/trace.h"
#include "sim/failure_sim.h"
#include "storage/storage.h"
#include "storage/target_sink.h"
#include "xfer/scheduler.h"

namespace aic::obs {
namespace {

std::string temp_path(const char* name) {
  return ::testing::TempDir() + "aic_fr_" + name + ".json";
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(bool(in)) << "missing " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TraceEvent instant_event(const char* name, double t) {
  TraceEvent e;
  e.category = names::kCatXfer;
  e.name = name;
  e.phase = TraceEvent::Phase::kInstant;
  e.start = t;
  return e;
}

TEST(FlightRecorder, RingKeepsTheNewestEvents) {
  FlightRecorder fr(4);
  for (int i = 0; i < 10; ++i) {
    fr.record(instant_event("tick", double(i)));
  }
  EXPECT_EQ(fr.total_recorded(), 10u);
  const auto tail = fr.recent();
  ASSERT_EQ(tail.size(), 4u);
  // Oldest -> newest: events 6, 7, 8, 9.
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(tail[std::size_t(i)].start, double(6 + i));
  }
}

TEST(FlightRecorder, TapOutlivesTraceLogCapacity) {
  Hub hub(/*trace_capacity=*/8);
  FlightRecorder& fr = hub.enable_flight_recorder(/*capacity=*/16);
  for (int i = 0; i < 30; ++i) {
    hub.trace.instant(TimeDomain::kVirtual, names::kCatXfer, "ev", double(i));
  }
  EXPECT_EQ(hub.trace.size(), 8u);
  EXPECT_GT(hub.trace.dropped(), 0u) << "log must be past capacity";
  // The tap sits before the capacity check: it saw every event, and its
  // tail is the run's END, not where the log gave up.
  EXPECT_EQ(fr.total_recorded(), 30u);
  const auto tail = fr.recent();
  ASSERT_EQ(tail.size(), 16u);
  EXPECT_DOUBLE_EQ(tail.back().start, 29.0);
}

TEST(FlightRecorder, PostmortemJsonIsSchemaValid) {
  Hub hub;
  FlightRecorder& fr = hub.enable_flight_recorder(4);
  hub.metrics.counter("xfer.retries")->add(7);
  for (int i = 0; i < 6; ++i) {
    hub.trace.instant(TimeDomain::kVirtual, names::kCatXfer,
                      names::kEvAbort, double(i), 3,
                      {{"offset", 65536.0}});
  }
  const JsonValue doc =
      json_parse(fr.postmortem_json("unit-test", "why it died"));
  EXPECT_EQ(doc.at("schema").str, kPostmortemSchema);
  EXPECT_EQ(doc.at("reason").str, "unit-test");
  EXPECT_EQ(doc.at("detail").str, "why it died");
  EXPECT_DOUBLE_EQ(doc.at("events_total").as_number(), 6.0);
  const JsonValue& events = doc.at("events");
  ASSERT_EQ(events.array.size(), 4u);  // ring capacity
  const JsonValue& last = events.array.back();
  EXPECT_EQ(last.at("cat").str, "xfer");
  EXPECT_EQ(last.at("name").str, "abort");
  EXPECT_EQ(last.at("phase").str, "instant");
  EXPECT_DOUBLE_EQ(last.at("t").as_number(), 5.0);
  EXPECT_DOUBLE_EQ(last.at("args").at("offset").as_number(), 65536.0);
  // Metrics ride along, via the normal metrics_to_json schema.
  EXPECT_DOUBLE_EQ(
      doc.at("metrics").at("counters").at("xfer.retries").as_number(), 7.0);
}

TEST(FlightRecorder, DumpWritesTheFile) {
  const std::string path = temp_path("dump");
  std::remove(path.c_str());
  FlightRecorder fr(4);
  fr.set_dump_path(path);
  fr.record(instant_event("tick", 1.0));
  ASSERT_TRUE(fr.dump("unit-test", "detail"));
  const JsonValue doc = json_parse(slurp(path));
  EXPECT_EQ(doc.at("reason").str, "unit-test");
  std::remove(path.c_str());
  // Unwritable path: reports failure instead of throwing.
  fr.set_dump_path("/nonexistent-dir/x/postmortem.json");
  EXPECT_FALSE(fr.dump("unit-test", "detail"));
}

TEST(FlightRecorder, MidDrainAbortLeavesParseablePostmortem) {
  const std::string path = temp_path("xfer");
  std::remove(path.c_str());

  Hub hub;
  hub.enable_flight_recorder(64, path);

  storage::RemoteStore target(1e12);
  storage::TargetSink sink(target);
  xfer::TransferScheduler::Config cfg;
  cfg.chunk_bytes = 100;
  cfg.retry.max_attempts_per_chunk = 2;
  cfg.obs = &hub;
  xfer::TransferScheduler sched(cfg);
  sched.add_level(3, {1e6, 0.0}, &sink);
  // Two clean chunks, then the whole attempt budget drops: the drain
  // exhausts its retries mid-flight.
  sched.channel(3).inject({xfer::FaultKind::kStall, 0.0, 0.0});
  sched.channel(3).inject({xfer::FaultKind::kStall, 0.0, 0.0});
  sched.channel(3).inject_drops(2);

  const xfer::TransferId id = sched.submit(3, "doomed", Bytes(500, 0xab));
  sched.run_until_idle();

  std::string detail;
  try {
    sched.rethrow_if_aborted(id);
    FAIL() << "drain must abort";
  } catch (const xfer::TransferError& e) {
    EXPECT_EQ(e.level(), 3);
    EXPECT_EQ(e.chunk_offset(), 200u);
    detail = e.what();
    ASSERT_TRUE(hub.dump_postmortem("xfer-abort", detail));
  }

  const JsonValue doc = json_parse(slurp(path));
  EXPECT_EQ(doc.at("reason").str, "xfer-abort");
  // The interrupting failure is named: level and chunk offset.
  EXPECT_NE(doc.at("detail").str.find("level 3"), std::string::npos);
  EXPECT_NE(doc.at("detail").str.find("chunk offset 200"),
            std::string::npos);
  // And the recent-events tail contains the abort instant at that offset.
  bool saw_abort = false;
  for (const JsonValue& e : doc.at("events").array) {
    if (e.at("name").str == names::kEvAbort) {
      saw_abort = true;
      EXPECT_DOUBLE_EQ(e.at("args").at("offset").as_number(), 200.0);
      EXPECT_DOUBLE_EQ(e.at("track").as_number(), 3.0);
    }
  }
  EXPECT_TRUE(saw_abort) << "abort event must be in the retained tail";
  std::remove(path.c_str());
}

TEST(FlightRecorder, FailureSimDyingMidDrainDumpsPostmortem) {
  const std::string path = temp_path("sim");
  std::remove(path.c_str());

  Hub hub;
  hub.enable_flight_recorder(128, path);

  sim::FailureSimConfig cfg;
  cfg.benchmark = workload::SpecBenchmark::kBzip2;
  cfg.workload_scale = 0.125;
  cfg.failures = failure::FailureSpec::from_total(0.01);
  cfg.checkpoint_interval = 10.0;
  cfg.seed = 3;
  cfg.use_transfer_engine = true;
  cfg.obs = &hub;
  // Nearly every remote chunk drops and the budget is tiny: the first L3
  // drain dies mid-flight with a TransferError (deterministic — the
  // channel noise is seeded from cfg.seed).
  cfg.remote_drop_probability = 0.95;
  cfg.xfer_max_attempts_override = 2;

  EXPECT_THROW(sim::run_failure_sim(cfg), xfer::TransferError);

  const JsonValue doc = json_parse(slurp(path));
  EXPECT_EQ(doc.at("reason").str, "failure-sim");
  EXPECT_NE(doc.at("detail").str.find("level 3"), std::string::npos);
  EXPECT_NE(doc.at("detail").str.find("chunk offset"), std::string::npos);
  ASSERT_FALSE(doc.at("events").array.empty());
  bool saw_abort = false;
  for (const JsonValue& e : doc.at("events").array) {
    if (e.at("name").str == names::kEvAbort) saw_abort = true;
  }
  EXPECT_TRUE(saw_abort)
      << "the interrupting failure must be in the event tail";
  std::remove(path.c_str());
}

TEST(FlightRecorderDeathTest, TerminateHookDumpsBeforeDying) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::string path = temp_path("terminate");
  std::remove(path.c_str());
  // The throw happens on a separate thread: gtest wraps the death-test
  // statement in a try/catch on the calling thread, which would intercept
  // a local throw before it ever reached std::terminate. An exception
  // escaping another thread has no such safety net — exactly the
  // worker-thread crash the hook exists for.
  EXPECT_DEATH(
      {
        FlightRecorder fr(8);
        fr.set_dump_path(path);
        fr.record(instant_event("last-breath", 1.0));
        FlightRecorder::install_terminate_hook(&fr);
        std::thread([] {
          throw CheckError("unhandled invariant failure");
        }).join();
      },
      "");
  // The child dumped on its way down; the artifact is readable here.
  const JsonValue doc = json_parse(slurp(path));
  EXPECT_EQ(doc.at("reason").str, "uncaught-exception");
  EXPECT_NE(doc.at("detail").str.find("unhandled invariant failure"),
            std::string::npos);
  ASSERT_EQ(doc.at("events").array.size(), 1u);
  EXPECT_EQ(doc.at("events").array[0].at("name").str, "last-breath");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aic::obs
