#include "trace/lanl_trace.h"

#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>

#include "common/check.h"

namespace aic::trace {
namespace {

constexpr double kSecondsPerDay = 86400.0;

struct PendingJob {
  std::uint64_t job_id;
  double submit_time;
  double duration;
  bool full_node;  // whole-node allocation shape
  int processes;
};

using Placement = std::vector<std::pair<int, int>>;

/// Core occupancy during scheduling: per-node usage plus two running
/// totals, the free cores and the full nodes, so the free capacity under
/// either per-node cap costs O(1).
class Machine {
 public:
  Machine(int nodes, int cores_per_node)
      : cores_(cores_per_node),
        used_(std::size_t(nodes), 0),
        free_(std::int64_t(nodes) * cores_per_node) {}

  /// Sum over nodes of max(0, cap - used), for cap = cores or cores - 1.
  /// A job fits under `cap` iff its processes are at most this: both
  /// placement shapes keep filling until every node is at the cap.
  std::int64_t free_under(int cap) const {
    if (cap == cores_) return free_;
    return free_ - (std::int64_t(used_.size()) - full_);
  }

  /// Places `job`, which must fit under `cap`. Nodes are visited emptiest
  /// first. The whole-node shape fills each node to the cap (the
  /// production scheduler hands such jobs dedicated nodes); the scattered
  /// shape spreads one process per node per layer, going a layer deeper
  /// only when the job is wider than one process per node allows.
  Placement place(const PendingJob& job, int cap) {
    const int nodes = int(used_.size());
    Placement placement;
    if (job.processes == free_under(cap)) {
      // The job takes all free capacity: every node fills to the cap
      // whatever the visiting order, so the sort is skipped.
      for (int n = 0; n < nodes; ++n) {
        if (cap - used_[n] > 0) placement.emplace_back(n, cap - used_[n]);
      }
      return placement;
    }
    // std::sort is not stable: the order it leaves equal-usage nodes in
    // decides which of them a job lands on, and is part of the log.
    order_.resize(used_.size());
    std::iota(order_.begin(), order_.end(), 0);
    std::sort(order_.begin(), order_.end(),
              [&](int a, int b) { return used_[a] < used_[b]; });
    take_.assign(used_.size(), 0);
    int remaining = job.processes;
    if (job.full_node) {
      for (int n : order_) {
        if (remaining <= 0) break;
        const int free_cap = cap - used_[n];
        if (free_cap <= 0) continue;
        take_[n] = std::min(free_cap, remaining);
        remaining -= take_[n];
      }
    } else {
      for (int layer = 1; layer <= cap && remaining > 0; ++layer) {
        for (int n : order_) {
          if (remaining <= 0) break;
          if (take_[n] >= layer || cap - used_[n] - take_[n] <= 0) continue;
          ++take_[n];
          --remaining;
        }
      }
    }
    AIC_CHECK(remaining == 0);
    for (int n = 0; n < nodes; ++n) {
      if (take_[n] > 0) placement.emplace_back(n, take_[n]);
    }
    return placement;
  }

  /// Adds (sign +1) or releases (sign -1) a placement's processes.
  void apply(const Placement& placement, int sign) {
    for (const auto& [n, c] : placement) {
      if (used_[n] == cores_) --full_;
      used_[n] += sign * c;
      free_ -= sign * c;
      if (used_[n] == cores_) ++full_;
    }
  }

 private:
  int cores_;
  std::vector<int> used_;
  std::int64_t free_;
  std::int64_t full_ = 0;
  std::vector<int> order_;  // reused by place()
  std::vector<int> take_;   // reused by place()
};

}  // namespace

std::vector<SystemConfig> table1_systems() {
  // Workload mixes chosen per machine character: System 20's production
  // scheduler packed processes onto small subsets of 4-core nodes (the
  // paper's explanation for its 17%), System 8's 2-core nodes are trivially
  // filled by pairwise placement, the fat-node systems (23, 16, 15) mostly
  // run jobs far narrower than a node.
  return {
      // id, type, nodes, cores, full-node fraction, jobs/day, wide decay,
      // machine-filling fraction, mean duration
      {15, "NUMA", 1, 256, 0.50, 40.0, 0.97, 0.0, 40000.0},
      {20, "Cluster", 256, 4, 0.80, 35.0, 0.97, 0.75, 20000.0},
      {23, "Cluster", 5, 128, 0.25, 8.0, 0.6, 1.0, 20000.0},
      {8, "Cluster", 164, 2, 0.42, 15.0, 0.7, 0.45, 10000.0},
      {16, "Cluster", 16, 128, 0.62, 25.0, 0.9, 0.95, 30000.0},
  };
}

SystemConfig system_by_id(int system_id) {
  for (const auto& s : table1_systems()) {
    if (s.system_id == system_id) return s;
  }
  AIC_CHECK_MSG(false, "unknown LANL system id " << system_id);
  return {};
}

int JobRecord::process_count() const {
  int total = 0;
  for (const auto& [node, count] : placement) total += count;
  return total;
}

std::vector<JobRecord> generate_log(const SystemConfig& system,
                                    const TraceConfig& config) {
  AIC_CHECK(config.days > 0.0);
  Rng rng(config.seed ^ (std::uint64_t(system.system_id) << 32));

  // Arrival sequence.
  std::vector<PendingJob> arrivals;
  double t = 0.0;
  std::uint64_t next_id = 1;
  const double horizon = config.days * kSecondsPerDay;
  const double rate = system.jobs_per_day / kSecondsPerDay;
  while (true) {
    t += rng.exponential(rate);
    if (t >= horizon) break;
    PendingJob job;
    job.job_id = next_id++;
    job.submit_time = t;
    // Heavy-tailed runtimes: minutes to days.
    job.duration = std::min(rng.pareto(system.mean_duration / 5.0, 1.25),
                            7.0 * kSecondsPerDay);
    job.full_node = rng.bernoulli(system.full_node_job_fraction);
    if (job.full_node) {
      // Whole nodes: machine-filling heroics or a skewed node count.
      // Machine-filling runs are kept short (they monopolize the machine;
      // long ones would saturate the log out of proportion to their count).
      const bool filling = rng.bernoulli(system.machine_filling_fraction);
      const auto k =
          filling ? std::uint64_t(system.nodes)
                  : 1 + rng.zipf_like(std::uint64_t(system.nodes),
                                      system.wide_decay);
      if (filling) job.duration = std::min(job.duration, 0.35 * system.mean_duration);
      job.processes = int(k) * system.cores_per_node;
    } else {
      const auto max_procs =
          std::max<std::uint64_t>(1, std::uint64_t(system.total_cores()) / 2);
      job.processes = int(1 + rng.zipf_like(max_procs, system.wide_decay));
    }
    arrivals.push_back(job);
  }

  // FIFO dispatch over core capacity. Running jobs leave through a
  // min-heap of (end time, log index).
  Machine machine(system.nodes, system.cores_per_node);
  std::vector<JobRecord> log;
  log.reserve(arrivals.size());
  using Ending = std::pair<double, std::size_t>;
  std::priority_queue<Ending, std::vector<Ending>, std::greater<>> running;
  auto release_until = [&](double time) {
    while (!running.empty() && running.top().first <= time) {
      machine.apply(log[running.top().second].placement, -1);
      running.pop();
    }
  };
  // The per-node cap `job` fits under, 0 if none. Rectified reserves one
  // core per node "if available": the job keeps the reservation when it
  // fits that way and packs fully otherwise (the reservation is
  // best-effort, not a hard guarantee).
  const int cores = system.cores_per_node;
  auto fitting_cap = [&](const PendingJob& job) {
    if (config.policy == SchedulerPolicy::kRectified && cores > 1 &&
        job.processes <= machine.free_under(cores - 1)) {
      return cores - 1;
    }
    return job.processes <= machine.free_under(cores) ? cores : 0;
  };

  double now = 0.0;
  for (const PendingJob& job : arrivals) {
    now = std::max(now, job.submit_time);
    release_until(now);
    int cap = fitting_cap(job);
    while (cap == 0) {
      // FIFO head-of-line blocking: wait for the next completion.
      AIC_CHECK_MSG(!running.empty(),
                    "job " << job.job_id << " can never be placed");
      now = running.top().first;
      release_until(now);
      cap = fitting_cap(job);
    }
    JobRecord rec;
    rec.job_id = job.job_id;
    rec.submit_time = job.submit_time;
    rec.dispatch_time = now;
    rec.end_time = now + job.duration;
    rec.placement = machine.place(job, cap);
    machine.apply(rec.placement, +1);
    running.emplace(rec.end_time, log.size());
    log.push_back(std::move(rec));
  }
  // Not stable either: jobs dispatched at one instant keep whatever order
  // this sort leaves them in, and that order is part of the log.
  std::sort(log.begin(), log.end(), [](const JobRecord& a, const JobRecord& b) {
    return a.dispatch_time < b.dispatch_time;
  });
  return log;
}

std::vector<bool> candidate_flags(const std::vector<JobRecord>& log,
                                  const SystemConfig& system) {
  // Every dispatch and end of the log in time order (ties in any order).
  struct Event {
    double time;
    std::size_t job;
    int sign;  // +1 dispatch, -1 end
  };
  std::vector<Event> events;
  events.reserve(2 * log.size());
  for (std::size_t i = 0; i < log.size(); ++i) {
    events.push_back({log[i].dispatch_time, i, +1});
    events.push_back({log[i].end_time, i, -1});
  }
  std::sort(events.begin(), events.end(),
            [](const Event& a, const Event& b) { return a.time < b.time; });

  // Per-node usage step functions, laid out flat: node n's levels are
  // levels[first[n], last[n]), one per instant at which its usage changes,
  // holding the usage once all of that instant's events have applied.
  // Splitting an instant into its events, releases first, would add levels
  // in between, but partial sums of ascending deltas are convex: none
  // exceeds the larger of the levels before and after the instant.
  struct Level {
    double time;
    int usage;
  };
  const std::size_t nodes = std::size_t(system.nodes);
  std::vector<std::size_t> first(nodes + 1, 0);
  for (const JobRecord& job : log) {
    for (const auto& [n, c] : job.placement) first[std::size_t(n) + 1] += 2;
  }
  std::partial_sum(first.begin(), first.end(), first.begin());
  std::vector<Level> levels(first.back());
  std::vector<std::size_t> last(first.begin(), first.end() - 1);
  std::vector<int> usage(nodes, 0);
  for (const Event& e : events) {
    for (const auto& [n, c] : log[e.job].placement) {
      const std::size_t node = std::size_t(n);
      usage[node] += e.sign * c;
      std::size_t& at = last[node];
      if (at > first[node] && levels[at - 1].time == e.time) {
        levels[at - 1].usage = usage[node];
      } else {
        levels[at++] = {e.time, usage[node]};
      }
    }
  }
  // full_from[i]: the first index at or after i, on i's node, whose usage
  // leaves no idle core (the node's end if none).
  const int idle_limit = system.cores_per_node - 1;
  std::vector<std::size_t> full_from(levels.size());
  for (std::size_t n = 0; n < nodes; ++n) {
    std::size_t full = last[n];
    for (std::size_t i = last[n]; i-- > first[n];) {
      if (levels[i].usage > idle_limit) full = i;
      full_from[i] = full;
    }
  }

  // A job is a candidate iff none of its nodes is full in the level in
  // force at its dispatch (the last at or before it; the job's own
  // dispatch makes one) or in any later level that starts before it ends.
  std::vector<bool> flags;
  flags.reserve(log.size());
  for (const JobRecord& job : log) {
    bool candidate = true;
    for (const auto& [n, c] : job.placement) {
      const auto lo = levels.begin() + std::ptrdiff_t(first[std::size_t(n)]);
      const auto hi = levels.begin() + std::ptrdiff_t(last[std::size_t(n)]);
      const auto after = std::upper_bound(
          lo, hi, job.dispatch_time,
          [](double t, const Level& l) { return t < l.time; });
      const std::size_t at = std::size_t(after - levels.begin()) - 1;
      const std::size_t full = full_from[at];
      if (full < last[std::size_t(n)] &&
          (full == at || levels[full].time < job.end_time)) {
        candidate = false;
        break;
      }
    }
    flags.push_back(candidate);
  }
  return flags;
}

CandidateStats analyze_candidates(const std::vector<JobRecord>& log,
                                  const SystemConfig& system) {
  CandidateStats stats;
  stats.jobs = log.size();
  for (const bool flag : candidate_flags(log, system)) {
    stats.candidates += flag;
  }
  return stats;
}

}  // namespace aic::trace
