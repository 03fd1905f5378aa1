#include "verify/chain_verifier.h"

#include <optional>
#include <sstream>

#include "ckpt/checkpointer.h"
#include "common/check.h"
#include "xfer/transfer.h"

namespace aic::verify {
namespace {

using ckpt::CheckpointFile;
using ckpt::CheckpointKind;

/// Shared record-by-record walk used by both verify() entry points. Each
/// record arrives either parsed or as a parse-failure message; the walker
/// keeps checking structure after content faults and keeps collecting
/// diagnostics to the end of the chain.
class Walker {
 public:
  Walker(const ChainVerifier::Options& options,
         const delta::PageAlignedCompressor& compressor, Report& report)
      : options_(options), compressor_(compressor), report_(report) {}

  void step(std::size_t index, const CheckpointFile* f,
            const std::string& parse_error,
            CheckCode parse_code = CheckCode::kParseError) {
    ++report_.records_checked;
    if (f == nullptr) {
      emit(Severity::kError, parse_code, index, Diagnostic::kNoSequence,
           parse_error);
      replay_ok_ = false;
      return;
    }
    structural(index, *f);
    if (options_.replay) content(index, *f);
  }

  void finish() { report_.replay_complete = options_.replay && replay_ok_; }

 private:
  void emit(Severity severity, CheckCode code, std::size_t index,
            std::uint64_t sequence, const std::string& message) {
    report_.diagnostics.push_back(
        Diagnostic{severity, code, index, sequence, message});
  }

  void structural(std::size_t index, const CheckpointFile& f) {
    std::ostringstream os;
    if (first_) {
      if (f.kind != CheckpointKind::kFull) {
        os << "chain starts with a " << to_string(f.kind)
           << " record; restart needs a full checkpoint first";
        emit(Severity::kError, CheckCode::kBadChainStart, index, f.sequence,
             os.str());
        replay_ok_ = false;
      }
    } else if (f.sequence == prev_seq_) {
      os << "sequence " << f.sequence << " duplicates the previous record";
      emit(Severity::kError, CheckCode::kDuplicateSequence, index, f.sequence,
           os.str());
      replay_ok_ = false;
    } else if (f.sequence < prev_seq_) {
      os << "sequence " << f.sequence << " follows " << prev_seq_
         << "; records are out of order";
      emit(Severity::kError, CheckCode::kSequenceNotMonotone, index,
           f.sequence, os.str());
      replay_ok_ = false;
    } else if (f.sequence != prev_seq_ + 1) {
      if (f.kind == CheckpointKind::kFull) {
        // A gap right before a full checkpoint is the rewind window's
        // signature: the prune re-anchored the successor, so the record
        // depends on nothing that was discarded and replay stays sound.
        os << "sequence " << f.sequence << " follows " << prev_seq_ << "; "
           << (f.sequence - prev_seq_ - 1)
           << " checkpoint(s) pruned before this full re-anchor";
        emit(Severity::kWarning, CheckCode::kPrunedGap, index, f.sequence,
             os.str());
      } else {
        os << "sequence " << f.sequence << " follows " << prev_seq_ << "; "
           << (f.sequence - prev_seq_ - 1)
           << " checkpoint(s) missing in between";
        emit(Severity::kError, CheckCode::kSequenceGap, index, f.sequence,
             os.str());
        replay_ok_ = false;
      }
    }
    if (!first_ && f.app_time < prev_app_time_) {
      std::ostringstream ts;
      ts << "app_time " << f.app_time << " regresses below "
         << prev_app_time_;
      emit(Severity::kWarning, CheckCode::kAppTimeRegressed, index,
           f.sequence, ts.str());
    }
    if (options_.warn_v1 && f.version == CheckpointFile::kVersionV1) {
      emit(Severity::kWarning, CheckCode::kUncheckedV1, index, f.sequence,
           "v1 record carries no checksum; corruption here is only "
           "detectable by replay");
    }
    first_ = false;
    prev_seq_ = f.sequence;
    prev_app_time_ = f.app_time;
  }

  void content(std::size_t index, const CheckpointFile& f) {
    const bool raw = f.kind == CheckpointKind::kFull ||
                     f.kind == CheckpointKind::kIncremental;
    if (f.kind == CheckpointKind::kFull) {
      // A mid-chain full checkpoint depends on nothing before it, so it
      // re-anchors replay even after earlier faults.
      if (!f.freed_pages.empty()) {
        std::ostringstream os;
        os << "full checkpoint lists " << f.freed_pages.size()
           << " freed page(s); full records free nothing";
        emit(Severity::kError, CheckCode::kFreedInFull, index, f.sequence,
             os.str());
      }
    } else if (!replay_ok_) {
      emit(Severity::kWarning, CheckCode::kReplaySkipped, index, f.sequence,
           "pre-state unknown after an earlier fault; freed-page and "
           "payload checks skipped");
      return;
    } else {
      for (mem::PageId id : f.freed_pages) {
        if (!accumulated_.contains(id)) {
          std::ostringstream os;
          os << "freed page " << id << " was not live at the previous "
             << "checkpoint";
          emit(Severity::kError, CheckCode::kFreedPageUnknown, index,
               f.sequence, os.str());
        }
      }
    }

    try {
      ckpt::RestartEngine::replay(f, compressor_,
                                  ckpt::RestartEngine::Mode::kOutOfPlace,
                                  accumulated_);
      replay_ok_ = true;
    } catch (const CheckError& e) {
      emit(Severity::kError,
           raw ? CheckCode::kPayloadCorrupt : CheckCode::kDeltaUndecodable,
           index, f.sequence,
           std::string(raw ? "raw-page payload undecodable: "
                           : "delta payload undecodable against the "
                             "accumulated pre-state: ") +
               e.what());
      replay_ok_ = false;
    }
  }

  const ChainVerifier::Options& options_;
  const delta::PageAlignedCompressor& compressor_;
  Report& report_;

  bool first_ = true;
  bool replay_ok_ = true;
  std::uint64_t prev_seq_ = 0;
  double prev_app_time_ = 0.0;
  mem::Snapshot accumulated_;
};

}  // namespace

bool is_partial_transfer_name(std::string_view filename) {
  const std::string_view suffix = xfer::kPartialSuffix;
  return filename.size() > suffix.size() &&
         filename.substr(filename.size() - suffix.size()) == suffix;
}

const char* to_string(CheckCode code) {
  switch (code) {
    case CheckCode::kParseError:
      return "parse-error";
    case CheckCode::kBadChainStart:
      return "bad-chain-start";
    case CheckCode::kSequenceNotMonotone:
      return "sequence-not-monotone";
    case CheckCode::kDuplicateSequence:
      return "duplicate-sequence";
    case CheckCode::kSequenceGap:
      return "sequence-gap";
    case CheckCode::kPrunedGap:
      return "pruned-gap";
    case CheckCode::kAppTimeRegressed:
      return "app-time-regressed";
    case CheckCode::kFreedInFull:
      return "freed-in-full";
    case CheckCode::kFreedPageUnknown:
      return "freed-page-unknown";
    case CheckCode::kPayloadCorrupt:
      return "payload-corrupt";
    case CheckCode::kDeltaUndecodable:
      return "delta-undecodable";
    case CheckCode::kReplaySkipped:
      return "replay-skipped";
    case CheckCode::kUncheckedV1:
      return "unchecked-v1";
    case CheckCode::kUnsupportedVersion:
      return "unsupported-version";
  }
  return "?";
}

std::string Diagnostic::render() const {
  std::ostringstream os;
  os << (severity == Severity::kError ? "ERROR" : "WARNING") << " ["
     << to_string(code) << "] record " << chain_index;
  if (sequence != kNoSequence) os << " seq " << sequence;
  os << ": " << message;
  return os.str();
}

std::size_t Report::error_count() const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics) n += d.severity == Severity::kError;
  return n;
}

std::size_t Report::warning_count() const {
  return diagnostics.size() - error_count();
}

std::string Report::summary() const {
  std::ostringstream os;
  os << records_checked << " record(s), " << bytes_checked << " bytes: "
     << error_count() << " error(s), " << warning_count() << " warning(s)";
  return os.str();
}

ChainVerifier::ChainVerifier() : ChainVerifier(Options{}) {}

ChainVerifier::ChainVerifier(Options options) : options_(options) {}

Report ChainVerifier::verify(
    const std::vector<ckpt::CheckpointFile>& chain) const {
  Report report;
  Walker walker(options_, compressor_, report);
  for (std::size_t i = 0; i < chain.size(); ++i) {
    report.bytes_checked += chain[i].serialized_size();
    walker.step(i, &chain[i], {});
  }
  walker.finish();
  return report;
}

Report ChainVerifier::verify_serialized(
    const std::vector<Bytes>& records) const {
  Report report;
  Walker walker(options_, compressor_, report);
  for (std::size_t i = 0; i < records.size(); ++i) {
    report.bytes_checked += records[i].size();
    std::optional<ckpt::CheckpointFile> parsed;
    std::string error;
    CheckCode code = CheckCode::kParseError;
    try {
      parsed = ckpt::CheckpointFile::parse(records[i]);
    } catch (const ckpt::UnsupportedFormatError& e) {
      // Ordered before CheckError: a future-versioned record is a reader
      // mismatch, not corruption, and gets its own code.
      error = e.what();
      code = CheckCode::kUnsupportedVersion;
    } catch (const CheckError& e) {
      error = e.what();
    }
    walker.step(i, parsed ? &*parsed : nullptr, error, code);
  }
  walker.finish();
  return report;
}

}  // namespace aic::verify
