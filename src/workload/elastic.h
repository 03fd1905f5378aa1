// Elastic (malleable) jobs — the Raghavendra & Vadhiyar direction from
// PAPERS.md: an application that grows or shrinks its core allocation
// mid-run. AIC's inputs all move when that happens: the footprint is
// redistributed (weak scaling: pages ∝ cores), the page-dirtying rates
// scale with the compute throughput, and the migration itself dirties a
// burst of pages as state is repacked across the new node set — so the
// dirty-page statistics the predictor feeds on shift measurably at every
// reconfiguration.
//
// ElasticWorkload composes a SyntheticWorkload per core-count segment.
// Resizes are keyed on *progress* (executed virtual seconds), and every
// migration mutation is a pure function of (seed, resize index), so the
// restart property of workload.h carries over verbatim: restore a
// checkpoint, replay from its stored progress, and the trajectory —
// including re-fired resizes — is byte-identical to the original run.
// A resize fires as soon as progress reaches its threshold; a checkpoint
// taken at progress p therefore always captures every resize with
// at_progress <= p already applied, and restore_cpu_state re-derives the
// applied count from p alone.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "workload/workload.h"

namespace aic::workload {

/// One reconfiguration: when progress reaches `at_progress`, the job's
/// allocation becomes `cores`.
struct ResizeEvent {
  double at_progress = 0.0;
  std::uint64_t cores = 0;
};

struct ElasticProfile {
  /// Rates and footprint as calibrated at `base_cores`.
  WorkloadProfile base;
  std::uint64_t base_cores = 4;
  /// Strictly ascending in at_progress; cores >= 1.
  std::vector<ResizeEvent> resizes;
};

class ElasticWorkload final : public Workload {
 public:
  /// What one resize did to the address space (deterministic).
  struct MigrationStats {
    std::uint64_t cores_before = 0;
    std::uint64_t cores_after = 0;
    std::uint64_t pages_allocated = 0;
    std::uint64_t pages_freed = 0;
    std::uint64_t pages_rewritten = 0;
  };

  explicit ElasticWorkload(ElasticProfile profile);

  const std::string& name() const override { return profile_.base.name; }
  double base_time() const override { return profile_.base.base_time; }

  void initialize(mem::AddressSpace& space) override;
  void step(mem::AddressSpace& space, double dt) override;
  double progress() const override { return inner_->progress(); }

  Bytes cpu_state() const override;
  void restore_cpu_state(ByteSpan state) override;

  /// Current core allocation (base_cores until the first resize fires).
  std::uint64_t cores() const;
  /// Resizes applied so far (re-derived from progress on restore).
  std::size_t applied_resizes() const { return applied_; }
  /// Footprint of the current segment (pages ∝ cores).
  std::uint64_t footprint_pages() const;
  /// cores / base_cores of the current segment — what the simulator
  /// applies to lambda, bandwidth share, and cost coefficients.
  double scale_factor() const;
  const ElasticProfile& profile() const { return profile_; }
  /// Stats of the most recent migration, if any resize fired yet.
  const std::optional<MigrationStats>& last_migration() const {
    return last_migration_;
  }

  /// The per-segment profile: footprint and page rates scaled by
  /// cores/base_cores, seed decorrelated per segment.
  static WorkloadProfile scaled_profile(const ElasticProfile& profile,
                                        std::size_t segment);

 private:
  /// Applies resize `applied_` to the space (allocation, frees, and the
  /// migration rewrite burst) and swaps in the next segment's workload.
  void apply_resize(mem::AddressSpace& space);
  /// Builds the segment-`applied_` inner workload at `progress`.
  void rebuild_inner(double progress);

  ElasticProfile profile_;
  std::unique_ptr<SyntheticWorkload> inner_;
  std::size_t applied_ = 0;
  std::optional<MigrationStats> last_migration_;
};

}  // namespace aic::workload
