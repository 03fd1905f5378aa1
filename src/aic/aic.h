// Umbrella header for the AIC library — adaptive incremental checkpointing
// via delta compression for networked multicore systems (reproduction of
// Jangjaimon & Tzeng, IPDPS 2013).
//
// Layers, bottom-up:
//   common/     deterministic RNG, byte streams, statistics, linear algebra
//   mem/        simulated process address space with write-protection
//               dirty tracking (the BLCR/mprotect substitute)
//   delta/      rsync-style delta coding (Xdelta3 stand-in), page-aligned
//               Xdelta3-PA, XOR+RLE baseline
//   ckpt/       checkpoint file format, full/incremental capture, restart
//               replay, chain management with failure rollback
//   xfer/       chunked transfer engine: simulated channels (bandwidth
//               sharing, injectable faults), retry/backoff state machine,
//               interrupt/resume of drains
//   storage/    local disk / RAID-5 partner group / remote store models,
//               glued to the transfer engine by MultiLevelStore (each
//               drain published whole at commit through TargetSink) and
//               to the chain by AsyncCheckpointer's worker-thread core
//   failure/    per-level exponential failure processes
//   model/      Markov interval models (L1L3, L2L3, L1L2L3), the Moody
//               baseline, NET^2, optimizers (grid + Newton–Raphson)
//   predictor/  JD/DI metrics, hot-page sampling, stepwise regression +
//               online gradient descent
//   workload/   synthetic SPEC CPU2006 memory-mutation kernels
//   control/    the AIC / SIC / Moody experiment runners (Eq. (1) NET^2)
//   sim/        Monte-Carlo chain validation and full-stack failure
//               injection with byte-exact recovery verification
//   trace/      LANL-style usage logs and the idle-core candidate study
//   verify/     checkpoint-chain integrity verification (the aic_fsck
//               engine): typed diagnostics over structural + replay
//               invariants
#pragma once

#include "ckpt/checkpoint_file.h"
#include "ckpt/checkpointer.h"
#include "common/bytes.h"
#include "common/check.h"
#include "common/crc32c.h"
#include "common/linalg.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/table.h"
#include "common/units.h"
#include "control/coordinated.h"
#include "control/cost_model.h"
#include "control/experiment.h"
#include "delta/delta_codec.h"
#include "delta/page_delta.h"
#include "delta/rolling_hash.h"
#include "delta/xdelta3.h"
#include "delta/xor_delta.h"
#include "failure/failure.h"
#include "mem/address_space.h"
#include "mem/snapshot.h"
#include "model/exp_math.h"
#include "model/interval_models.h"
#include "model/markov_chain.h"
#include "model/moody.h"
#include "model/optimizer.h"
#include "model/system_profile.h"
#include "predictor/features.h"
#include "predictor/hot_page_sampler.h"
#include "predictor/metrics.h"
#include "predictor/predictor.h"
#include "predictor/regression.h"
#include "sim/chain_sim.h"
#include "sim/failure_sim.h"
#include "storage/async_checkpointer.h"
#include "storage/multilevel_store.h"
#include "storage/storage.h"
#include "storage/target_sink.h"
#include "trace/lanl_trace.h"
#include "verify/chain_verifier.h"
#include "workload/workload.h"
#include "xfer/channel.h"
#include "xfer/scheduler.h"
#include "xfer/stats.h"
#include "xfer/transfer.h"
