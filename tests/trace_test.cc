// Tests for trace/: log synthesis invariants (capacity, FIFO, placement
// shapes), the candidate-job analysis, and Table 1's qualitative facts.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/check.h"
#include "trace/lanl_trace.h"

namespace aic::trace {
namespace {

TEST(Trace, FiveSystemsConfigured) {
  auto systems = table1_systems();
  ASSERT_EQ(systems.size(), 5u);
  EXPECT_EQ(system_by_id(15).cores_per_node, 256);
  EXPECT_EQ(system_by_id(20).nodes, 256);
  EXPECT_EQ(system_by_id(8).cores_per_node, 2);
  EXPECT_THROW((void)system_by_id(99), CheckError);
}

TEST(Trace, GeneratedLogRespectsCapacityAndOrdering) {
  auto sys = system_by_id(16);
  TraceConfig cfg;
  cfg.days = 20;
  auto log = generate_log(sys, cfg);
  ASSERT_GT(log.size(), 100u);
  for (const auto& job : log) {
    EXPECT_GE(job.dispatch_time, job.submit_time);
    EXPECT_GT(job.end_time, job.dispatch_time);
    EXPECT_GT(job.process_count(), 0);
    for (const auto& [node, count] : job.placement) {
      EXPECT_GE(node, 0);
      EXPECT_LT(node, sys.nodes);
      EXPECT_GE(count, 1);
      EXPECT_LE(count, sys.cores_per_node);
    }
  }
  // At no instant may a node exceed its core count. Verify via the
  // analyzer's own sweep: max usage <= cores (candidate analysis against a
  // virtual 1-more-core system counts nobody as over-capacity).
  SystemConfig bigger = sys;
  bigger.cores_per_node += 1;
  auto stats = analyze_candidates(log, bigger);
  EXPECT_EQ(stats.candidates, stats.jobs)
      << "some node exceeded its true core capacity";
}

TEST(Trace, DeterministicForSeed) {
  auto sys = system_by_id(20);
  TraceConfig cfg;
  cfg.days = 10;
  auto a = generate_log(sys, cfg);
  auto b = generate_log(sys, cfg);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].job_id, b[i].job_id);
    EXPECT_DOUBLE_EQ(a[i].dispatch_time, b[i].dispatch_time);
    EXPECT_EQ(a[i].placement, b[i].placement);
  }
  cfg.seed = 777;
  auto c = generate_log(sys, cfg);
  EXPECT_NE(a.size(), c.size());
}

/// Sum over nodes of max(0, cap - used): what a job may take under `cap`.
std::int64_t free_under(const std::vector<int>& used, int cap) {
  std::int64_t free = 0;
  for (const int u : used) free += std::max(0, cap - u);
  return free;
}

TEST(Trace, EveryJobDispatchesAtItsEarliestFit) {
  // Replays each log from its records alone. FIFO order is submit order,
  // i.e. job id order. At an instant t the machine holds the jobs ahead in
  // the queue that have not ended (end > t); a job fits when its
  // processes are at most the free cores under the cap. Each job must
  // start at the first instant, at or after its submit and its
  // predecessor's dispatch, at which it fits, under cores - 1 per node
  // when rectified and that fits, else under cores.
  for (const int id : {15, 20, 23, 8, 16}) {
    const SystemConfig sys = system_by_id(id);
    const int cores = sys.cores_per_node;
    for (const SchedulerPolicy policy :
         {SchedulerPolicy::kPacked, SchedulerPolicy::kRectified}) {
      for (const std::uint64_t seed : {1ull, 42ull, 777ull}) {
        SCOPED_TRACE(::testing::Message()
                     << "system " << id << " policy " << int(policy)
                     << " seed " << seed);
        TraceConfig cfg;
        cfg.days = 10;
        cfg.policy = policy;
        cfg.seed = seed;
        auto log = generate_log(sys, cfg);
        ASSERT_GT(log.size(), 10u);
        std::sort(log.begin(), log.end(),
                  [](const JobRecord& a, const JobRecord& b) {
                    return a.job_id < b.job_id;
                  });
        std::vector<int> used(std::size_t(sys.nodes), 0);
        std::vector<const JobRecord*> running;
        // Releases every running job that has ended by `t`.
        auto advance = [&](double t) {
          std::erase_if(running, [&](const JobRecord* r) {
            if (r->end_time > t) return false;
            for (const auto& [n, c] : r->placement) used[std::size_t(n)] -= c;
            return true;
          });
        };
        double prev_dispatch = 0.0;
        for (const JobRecord& job : log) {
          const int procs = job.process_count();
          const double from = std::max(job.submit_time, prev_dispatch);
          ASSERT_GE(job.dispatch_time, from) << "job " << job.job_id;
          // Every instant before the dispatch at which the fit can change.
          std::vector<double> instants{from};
          for (const JobRecord* r : running) {
            if (r->end_time > from && r->end_time < job.dispatch_time) {
              instants.push_back(r->end_time);
            }
          }
          std::sort(instants.begin(), instants.end());
          for (const double t : instants) {
            if (t >= job.dispatch_time) break;
            advance(t);
            EXPECT_GT(procs, free_under(used, cores))
                << "job " << job.job_id << " fit at " << t
                << " but waited until " << job.dispatch_time;
          }
          advance(job.dispatch_time);
          ASSERT_LE(procs, free_under(used, cores))
              << "job " << job.job_id << " dispatched without room";
          const bool reserve = policy == SchedulerPolicy::kRectified &&
                               cores > 1 &&
                               procs <= free_under(used, cores - 1);
          const int cap = reserve ? cores - 1 : cores;
          for (const auto& [n, c] : job.placement) {
            EXPECT_LE(used[std::size_t(n)] + c, cap)
                << "job " << job.job_id << " on node " << n;
            // A job that fit with the reservation keeps an idle core on
            // every node it lands on.
            if (reserve) {
              EXPECT_LT(used[std::size_t(n)] + c, cores)
                  << "job " << job.job_id << " on node " << n;
            }
          }
          for (const auto& [n, c] : job.placement) used[std::size_t(n)] += c;
          running.push_back(&job);
          prev_dispatch = job.dispatch_time;
        }
      }
    }
  }
}

TEST(Trace, PlacementsAscendByNode) {
  for (const int id : {20, 8, 16}) {
    const SystemConfig sys = system_by_id(id);
    TraceConfig cfg;
    cfg.days = 10;
    cfg.policy = SchedulerPolicy::kRectified;
    for (const JobRecord& job : generate_log(sys, cfg)) {
      for (std::size_t i = 1; i < job.placement.size(); ++i) {
        ASSERT_LT(job.placement[i - 1].first, job.placement[i].first)
            << "system " << id << " job " << job.job_id;
      }
    }
  }
}

TEST(Trace, CandidateAnalysisManualCase) {
  // Two jobs overlapping on node 0 of a 2-core system: together they fill
  // the node, so neither is a candidate while both run.
  SystemConfig sys;
  sys.system_id = 1;
  sys.nodes = 2;
  sys.cores_per_node = 2;
  JobRecord a;
  a.job_id = 1;
  a.dispatch_time = 0.0;
  a.end_time = 100.0;
  a.placement = {{0, 1}};
  JobRecord b;
  b.job_id = 2;
  b.dispatch_time = 50.0;
  b.end_time = 150.0;
  b.placement = {{0, 1}};
  JobRecord c;
  c.job_id = 3;
  c.dispatch_time = 0.0;
  c.end_time = 100.0;
  c.placement = {{1, 1}};  // alone on node 1: candidate
  auto stats = analyze_candidates({a, b, c}, sys);
  EXPECT_EQ(stats.jobs, 3u);
  EXPECT_EQ(stats.candidates, 1u);
}

TEST(Trace, ReleaseAndDispatchAtOneInstantDoNotOverlap) {
  // On a 4-core node, b starts the instant a ends while d runs across that
  // instant: the node holds three processes throughout, never five, so all
  // three keep an idle core, whichever order the log lists them in.
  SystemConfig sys;
  sys.system_id = 3;
  sys.nodes = 1;
  sys.cores_per_node = 4;
  JobRecord a;
  a.job_id = 1;
  a.dispatch_time = 0.0;
  a.end_time = 100.0;
  a.placement = {{0, 2}};
  JobRecord b;
  b.job_id = 2;
  b.dispatch_time = 100.0;
  b.end_time = 200.0;
  b.placement = {{0, 2}};
  JobRecord d;
  d.job_id = 3;
  d.dispatch_time = 0.0;
  d.end_time = 200.0;
  d.placement = {{0, 1}};
  const std::vector<bool> all{true, true, true};
  EXPECT_EQ(candidate_flags({a, b, d}, sys), all);
  EXPECT_EQ(candidate_flags({b, a, d}, sys), all);
  // One more process of d fills the node for everyone.
  d.placement = {{0, 2}};
  EXPECT_EQ(candidate_flags({b, a, d}, sys),
            (std::vector<bool>{false, false, false}));
}

TEST(Trace, FullNodePlacementIsNeverCandidate) {
  SystemConfig sys;
  sys.system_id = 2;
  sys.nodes = 1;
  sys.cores_per_node = 4;
  JobRecord a;
  a.job_id = 1;
  a.dispatch_time = 0.0;
  a.end_time = 10.0;
  a.placement = {{0, 4}};
  auto stats = analyze_candidates({a}, sys);
  EXPECT_EQ(stats.candidates, 0u);
}

class Table1Fixture : public ::testing::Test {
 protected:
  static CandidateStats run(int system_id, SchedulerPolicy policy) {
    auto sys = system_by_id(system_id);
    TraceConfig cfg;
    cfg.days = 45;
    cfg.policy = policy;
    return analyze_candidates(generate_log(sys, cfg), sys);
  }
};

TEST_F(Table1Fixture, RectifiedNeverHurts) {
  for (int id : {15, 20, 23, 8, 16}) {
    const double packed = run(id, SchedulerPolicy::kPacked).fraction();
    const double rect = run(id, SchedulerPolicy::kRectified).fraction();
    EXPECT_GE(rect, packed - 0.03) << "system " << id;
  }
}

TEST_F(Table1Fixture, System20HasFewestCandidatesPacked) {
  const double s20 = run(20, SchedulerPolicy::kPacked).fraction();
  for (int id : {15, 23, 8, 16}) {
    EXPECT_LT(s20, run(id, SchedulerPolicy::kPacked).fraction())
        << "vs system " << id;
  }
}

TEST_F(Table1Fixture, RectificationHelpsSmallCoreClustersMost) {
  auto gain = [&](int id) {
    return run(id, SchedulerPolicy::kRectified).fraction() -
           run(id, SchedulerPolicy::kPacked).fraction();
  };
  // Systems 20 (4 cores) and 8 (2 cores) gain a lot; fat-node systems and
  // the single-node NUMA barely move (Table 1's last column).
  EXPECT_GT(gain(20), 0.10);
  EXPECT_GT(gain(8), 0.15);
  EXPECT_LT(gain(15), 0.02);
  EXPECT_LT(gain(23), 0.05);
  EXPECT_LT(gain(16), 0.08);
}

TEST_F(Table1Fixture, FractionsInPaperBallpark) {
  // Loose bands around Table 1's values — shape, not digits.
  EXPECT_NEAR(run(15, SchedulerPolicy::kPacked).fraction(), 0.50, 0.12);
  EXPECT_NEAR(run(20, SchedulerPolicy::kPacked).fraction(), 0.17, 0.10);
  EXPECT_NEAR(run(23, SchedulerPolicy::kPacked).fraction(), 0.77, 0.12);
  EXPECT_NEAR(run(8, SchedulerPolicy::kPacked).fraction(), 0.47, 0.15);
  EXPECT_NEAR(run(16, SchedulerPolicy::kPacked).fraction(), 0.41, 0.10);
  EXPECT_NEAR(run(20, SchedulerPolicy::kRectified).fraction(), 0.32, 0.12);
  EXPECT_NEAR(run(8, SchedulerPolicy::kRectified).fraction(), 0.75, 0.15);
}

}  // namespace
}  // namespace aic::trace
