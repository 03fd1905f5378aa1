// Tests for the concurrent checkpointing core (storage::AsyncCheckpointer):
// the application keeps mutating while the worker compresses; restores
// must reflect exactly the state at each submit, never the in-flight
// mutations.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>

#include "common/rng.h"
#include "mem/snapshot.h"
#include "storage/async_checkpointer.h"
#include "workload/workload.h"

namespace aic::storage {
namespace {

void random_fill(mem::AddressSpace& space, mem::PageId id, Rng& rng) {
  space.mutate(id, [&](std::span<std::uint8_t> b) {
    for (auto& x : b) x = std::uint8_t(rng());
  });
}

TEST(AsyncCheckpointer, FirstSubmitIsFullAndRestores) {
  mem::AddressSpace space;
  space.allocate_range(0, 64);
  Rng rng(1);
  for (mem::PageId id = 0; id < 64; ++id) random_fill(space, id, rng);
  const mem::Snapshot expected = mem::Snapshot::capture(space);

  AsyncCheckpointer::Config cfg;
  AsyncCheckpointer async(std::move(cfg));
  async.submit(space, {}, 0.0);
  auto restored = async.restore();
  EXPECT_TRUE(expected.equals_space(restored.memory.materialize()));
  EXPECT_EQ(async.completed(), 1u);
}

TEST(AsyncCheckpointer, MutationsAfterSubmitDoNotLeakIn) {
  mem::AddressSpace space;
  space.allocate_range(0, 32);
  Rng rng(2);
  for (mem::PageId id = 0; id < 32; ++id) random_fill(space, id, rng);

  AsyncCheckpointer async({});
  async.submit(space, {}, 0.0);

  // Interval 1: edit page 3, submit, then IMMEDIATELY keep scribbling on
  // the same page while the worker may still be compressing.
  Bytes edit = {0xAA, 0xBB, 0xCC};
  space.write(3, 100, edit);
  const mem::Snapshot at_submit = mem::Snapshot::capture(space);
  async.submit(space, {}, 1.0);
  for (int burst = 0; burst < 200; ++burst) random_fill(space, 3, rng);

  auto restored = async.restore();
  EXPECT_TRUE(at_submit.equals_space(restored.memory.materialize()))
      << "the checkpoint must reflect submit-time state, not later writes";
}

TEST(AsyncCheckpointer, PipelinedSubmitsLandInOrder) {
  mem::AddressSpace space;
  space.allocate_range(0, 128);
  Rng rng(3);
  for (mem::PageId id = 0; id < 128; ++id) random_fill(space, id, rng);

  std::atomic<int> completions{0};
  std::atomic<std::uint64_t> last_sequence{0};
  std::atomic<bool> ordered{true};
  AsyncCheckpointer::Config cfg;
  cfg.on_complete = [&](const AsyncResult& r) {
    if (completions.load() > 0 && r.sequence <= last_sequence.load())
      ordered = false;
    last_sequence = r.sequence;
    ++completions;
  };
  AsyncCheckpointer async(std::move(cfg));

  async.submit(space, {}, 0.0);
  mem::Snapshot latest = mem::Snapshot::capture(space);
  for (int interval = 1; interval <= 8; ++interval) {
    for (int e = 0; e < 30; ++e)
      random_fill(space, rng.uniform_u64(128), rng);
    latest = mem::Snapshot::capture(space);
    async.submit(space, {}, double(interval));
  }
  auto restored = async.restore();
  EXPECT_EQ(completions.load(), 9);
  EXPECT_TRUE(ordered.load()) << "completions must be in sequence order";
  EXPECT_TRUE(latest.equals_space(restored.memory.materialize()));
  EXPECT_DOUBLE_EQ(restored.app_time, 8.0);
}

TEST(AsyncCheckpointer, CompletionCarriesCompressionAccounting) {
  mem::AddressSpace space;
  space.allocate_range(0, 32);
  Rng rng(4);
  for (mem::PageId id = 0; id < 32; ++id) random_fill(space, id, rng);

  std::atomic<std::uint64_t> delta_bytes{0};
  std::atomic<std::uint64_t> kinds_full{0};
  AsyncCheckpointer::Config cfg;
  cfg.on_complete = [&](const AsyncResult& r) {
    if (r.stats.kind == ckpt::CheckpointKind::kFull) ++kinds_full;
    delta_bytes += r.stats.file_bytes;
  };
  AsyncCheckpointer async(std::move(cfg));
  async.submit(space, {}, 0.0);
  Bytes edit = {1, 2, 3};
  space.write(7, 0, edit);
  async.submit(space, {}, 1.0);
  async.drain();
  EXPECT_EQ(kinds_full.load(), 1u);
  EXPECT_GT(delta_bytes.load(), 32 * kPageSize / 2);  // the full dominates
}

TEST(AsyncCheckpointer, WorksUnderRealWorkloadChurn) {
  auto wl = workload::make_spec_workload(workload::SpecBenchmark::kBzip2,
                                         0.125);
  mem::AddressSpace space;
  wl->initialize(space);

  AsyncCheckpointer async({});
  async.submit(space, wl->cpu_state(), 0.0);
  mem::Snapshot at_last_submit = mem::Snapshot::capture(space);
  double t = 0.0;
  for (int i = 0; i < 6; ++i) {
    wl->step(space, 5.0);
    t += 5.0;
    at_last_submit = mem::Snapshot::capture(space);
    async.submit(space, wl->cpu_state(), t);
    wl->step(space, 2.0);  // keep computing while the worker compresses
    t += 2.0;
  }
  auto restored = async.restore();
  EXPECT_TRUE(at_last_submit.equals_space(restored.memory.materialize()));
}

TEST(AsyncCheckpointer, PeriodicFullSchedule) {
  mem::AddressSpace space;
  space.allocate_range(0, 16);
  std::atomic<int> fulls{0};
  AsyncCheckpointer::Config cfg;
  cfg.chain.full_period = 2;  // full, inc, inc, full, inc, inc, ...
  cfg.on_complete = [&](const AsyncResult& r) {
    fulls += (r.stats.kind == ckpt::CheckpointKind::kFull);
  };
  AsyncCheckpointer async(std::move(cfg));
  Rng rng(5);
  for (int i = 0; i < 7; ++i) {
    random_fill(space, rng.uniform_u64(16), rng);
    async.submit(space, {}, double(i));
  }
  async.drain();
  EXPECT_EQ(fulls.load(), 3);  // sequences 0, 3, 6
}

// A rewind window re-anchors pruned checkpoints' successors as fulls on the
// worker; the submitter, which snapshots only the dirty set for an
// incremental, cannot see that. The periodic-full cadence must therefore
// stay a function of the sequence number alone, or the worker's capture
// disagrees with what was snapshotted.
TEST(AsyncCheckpointer, RewindReanchorsDoNotMoveTheFullCadence) {
  for (std::uint32_t full_period = 1; full_period <= 4; ++full_period) {
    for (std::size_t budget : {2, 3, 4, 5, 6, 8}) {
      mem::AddressSpace space;
      space.allocate_range(0, 16);
      Rng rng(6 + budget);
      for (mem::PageId id = 0; id < 16; ++id) random_fill(space, id, rng);
      std::vector<std::uint64_t> full_sequences;  // worker thread only
      AsyncCheckpointer::Config cfg;
      cfg.chain.full_period = full_period;
      cfg.chain.rewind_budget = budget;
      cfg.on_complete = [&](const AsyncResult& r) {
        if (r.stats.kind == ckpt::CheckpointKind::kFull)
          full_sequences.push_back(r.sequence);
      };
      AsyncCheckpointer async(std::move(cfg));
      mem::Snapshot at_last_submit;
      for (int i = 0; i < 24; ++i) {
        for (int e = 0; e < 3; ++e)
          random_fill(space, rng.uniform_u64(16), rng);
        at_last_submit = mem::Snapshot::capture(space);
        async.submit(space, {}, double(i));
      }
      const auto restored = async.restore();  // drains first
      std::vector<std::uint64_t> expected;
      for (std::uint64_t seq = 0; seq < 24; seq += full_period + 1)
        expected.push_back(seq);
      EXPECT_EQ(full_sequences, expected)
          << "full_period " << full_period << " budget " << budget;
      EXPECT_TRUE(at_last_submit.equals_space(restored.memory.materialize()))
          << "full_period " << full_period << " budget " << budget;
    }
  }
}

}  // namespace
}  // namespace aic::storage
