// Checkpoint-chain integrity verification (the `aic_fsck` engine).
//
// The restart path needs the last full checkpoint plus *every* incremental
// after it, so one silently corrupted record poisons the whole chain.
// ChainVerifier walks a chain of serialized checkpoint records and checks,
// returning typed diagnostics instead of aborting on the first problem:
//
//   structural invariants
//     I1  every record parses (magic, v2 CRC-32C, bounded length fields);
//     I2  the chain starts with a full checkpoint;
//     I3  sequences strictly increase, with no duplicates;
//     I4  sequences are contiguous — a gap means a missing incremental,
//         after which every delta decodes against the wrong state;
//     I5  kind-vs-position legality: incremental/delta records never open
//         a chain (a mid-chain full legally restarts the replay state);
//     I6  app_time never regresses (warning — it is informational);
//   content invariants (replaying RestartEngine's state transitions)
//     I7  full checkpoints carry no freed-page list;
//     I8  every freed page was live in the accumulated pre-state;
//     I9  raw payloads decode (page count/id/body well-formed);
//     I10 delta payloads decompress against the accumulated previous
//         state — the exact state RestartEngine would hand the codec;
//     I11 v1 records (no checksum) are flagged as a warning so operators
//         know which part of a store predates integrity metadata.
//
// Verification never throws on corrupt input and never mutates anything:
// every injected fault surfaces as a Diagnostic. After a record fails
// I1/I9/I10 the replay state is unknown, so later content checks
// (I8–I10) are suspended and reported as skipped; structural checks
// continue to the end of the chain.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ckpt/checkpoint_file.h"
#include "delta/page_delta.h"

namespace aic::verify {

enum class Severity : std::uint8_t { kWarning = 0, kError = 1 };

/// Stable machine-readable identity of a finding (the invariant violated).
enum class CheckCode : std::uint8_t {
  kParseError = 0,        // I1: magic / CRC / bounds / truncation
  kBadChainStart,         // I2/I5: chain opens with a non-full record
  kSequenceNotMonotone,   // I3
  kDuplicateSequence,     // I3
  kSequenceGap,           // I4: missing middle incremental
  kPrunedGap,             // I4' (warning): gap closed by a full re-anchor
  kAppTimeRegressed,      // I6 (warning)
  kFreedInFull,           // I7
  kFreedPageUnknown,      // I8
  kPayloadCorrupt,        // I9: raw-page payload undecodable
  kDeltaUndecodable,      // I10: delta payload fails against the pre-state
  kReplaySkipped,         // content checks suspended after earlier fault
  kUncheckedV1,           // I11 (warning): record has no checksum
  /// I1 variant: the record is recognizably an AIC checkpoint but its
  /// format version postdates this build ("AICCKPT4"+). Not corruption —
  /// the store needs a newer reader — so tools surface it distinctly
  /// (aic_fsck exits 2, not 1).
  kUnsupportedVersion,
};

const char* to_string(CheckCode code);

/// True when `filename` names an unfinished record ("<key>" +
/// xfer::kPartialSuffix): one a file-backed store had not finished
/// writing. Such files in a chain directory are NOT corruption — the
/// committed record is "<key>" — and are excluded from chain verification
/// (fsck reports them as a distinct diagnostic instead).
bool is_partial_transfer_name(std::string_view filename);

struct Diagnostic {
  Severity severity = Severity::kError;
  CheckCode code = CheckCode::kParseError;
  /// Position of the offending record in the chain (0-based).
  std::size_t chain_index = 0;
  /// Sequence number of the offending record; kNoSequence when the record
  /// did not parse far enough to know it.
  static constexpr std::uint64_t kNoSequence = ~std::uint64_t{0};
  std::uint64_t sequence = kNoSequence;
  std::string message;

  /// One-line rendering: "ERROR [delta-undecodable] record 3 seq 7: ...".
  std::string render() const;
};

struct Report {
  std::vector<Diagnostic> diagnostics;
  std::size_t records_checked = 0;
  std::uint64_t bytes_checked = 0;
  /// True when replay reached the end of the chain with no content faults
  /// (structural warnings do not clear it; errors of any kind do).
  bool replay_complete = false;

  std::size_t error_count() const;
  std::size_t warning_count() const;
  bool ok() const { return error_count() == 0; }
  /// "3 record(s), 9184 bytes: 1 error(s), 0 warning(s)".
  std::string summary() const;
};

class ChainVerifier {
 public:
  struct Options {
    /// Replay payload decoding (I9/I10). Off = structural checks only,
    /// which never touch page bytes (cheap triage mode).
    bool replay = true;
    /// Emit kUncheckedV1 warnings for records without a checksum.
    bool warn_v1 = true;
  };

  ChainVerifier();
  explicit ChainVerifier(Options options);

  /// Verifies already-parsed records (structural + content invariants;
  /// I1 is vacuous here).
  Report verify(const std::vector<ckpt::CheckpointFile>& chain) const;

  /// Verifies serialized records in chain order — the fsck entry point;
  /// parse failures become kParseError diagnostics, never exceptions.
  Report verify_serialized(const std::vector<Bytes>& records) const;

 private:
  Options options_;
  delta::PageAlignedCompressor compressor_;
};

}  // namespace aic::verify
